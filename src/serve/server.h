// librock — serve/server.h
//
// The long-lived label server (ROADMAP item 1: clustering-as-a-service).
// One process loads a model once (serve/model_handle.h) and answers
// "which cluster is this transaction?" at high QPS:
//
//   client → Submit(tx) → bounded request queue → worker batches
//                                                   (≤ max_batch pops)
//                                                 → bit-sliced Assign
//                                                 → future resolves
//
// Workers coalesce whatever is queued into blocks of up to `max_batch`
// requests per wake-up — one lock round-trip amortized over the block,
// the same batch-sized-block idea as similarity/batch.h — and run on a
// fork-join pool (util/thread_pool.h) held open for the server's
// lifetime. Admission is bounded: a Submit against a full queue is
// rejected immediately (counted as serve.rejected) instead of growing
// without limit.
//
// Every answer is the §4.6 labeler's Assign of that transaction — the
// exact assignment `rock pipeline` writes for the same row, enforced by
// the serve ≡ pipeline differential test.
//
// Metrics: workers keep internal atomics (the diag registry is
// single-writer by design) and ExportMetrics() publishes serve.qps,
// serve.batch_fill, serve.queue_depth (peak), serve.rejected,
// serve.requests, serve.batches and serve.outliers after Stop().

#ifndef ROCK_SERVE_SERVER_H_
#define ROCK_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <iosfwd>
#include <mutex>
#include <thread>

#include "common/status.h"
#include "core/cluster.h"
#include "serve/model_handle.h"

namespace rock {

class SwappableModel;  // serve/stream.h

namespace diag {
class MetricsRegistry;
}  // namespace diag

/// Controls for a LabelServer.
struct ServeOptions {
  /// Worker threads: 0 = hardware concurrency.
  size_t num_threads = 1;
  /// Most requests a worker pops per wake-up (the coalescing block size).
  size_t max_batch = 64;
  /// Admission bound: Submit against a queue this deep is rejected.
  size_t max_queue = 4096;
  /// When non-null, Stop() publishes the serve.* metrics here once the
  /// workers have joined (the registry is single-writer, so the export
  /// happens strictly after the last worker write).
  diag::MetricsRegistry* metrics = nullptr;
};

/// A long-lived server answering cluster-assignment queries from one
/// loaded model. Thread-safe: any number of client threads may Submit
/// concurrently with the workers.
class LabelServer {
 public:
  /// `model` is borrowed and must outlive the server.
  LabelServer(const ModelHandle* model, const ServeOptions& options);

  /// Swap-aware variant for the streaming layer (serve/stream.h): each
  /// worker acquires one model snapshot per popped batch and answers the
  /// whole batch from it. A Swap() landing mid-batch takes effect at the
  /// next pop — every individual query is answered entirely by the old
  /// model or the new one, never a mix, and snapshots keep the old model
  /// alive until its last in-flight batch finishes.
  LabelServer(const SwappableModel* model, const ServeOptions& options);

  /// Stops and joins if still running.
  ~LabelServer();

  LabelServer(const LabelServer&) = delete;
  LabelServer& operator=(const LabelServer&) = delete;

  /// Starts the worker pool. Submissions made before Start queue up (to
  /// the admission bound) and are answered once workers run.
  Status Start();

  /// Enqueues one query. The future resolves to the assigned cluster
  /// (kUnassigned = outlier). Rejected with FailedPrecondition — and
  /// counted under serve.rejected — when the queue is at max_queue or the
  /// server is shutting down.
  Result<std::future<ClusterIndex>> Submit(Transaction tx);

  /// Drains the queue, resolves every pending future, and joins the
  /// workers. Idempotent. After Stop the server no longer admits work.
  void Stop();

  /// Aggregate counters, valid once the workers are quiescent (after
  /// Stop, or between Submits in single-threaded tests).
  struct Stats {
    uint64_t requests = 0;   ///< queries answered
    uint64_t batches = 0;    ///< worker wake-ups that popped work
    uint64_t rejected = 0;   ///< submissions refused at admission
    uint64_t outliers = 0;   ///< answers that were kUnassigned
    uint64_t peak_queue_depth = 0;
    double seconds = 0.0;    ///< Start → Stop wall time
    /// requests / seconds (0 before Stop).
    double qps = 0.0;
    /// Mean requests per batch — how full the coalescing blocks ran.
    double batch_fill = 0.0;
  };
  Stats stats() const;

  /// Publishes the serve.* metrics into `registry` (docs/OBSERVABILITY.md).
  /// Call after Stop — the registry is single-writer.
  void ExportMetrics(diag::MetricsRegistry* registry) const;

 private:
  struct Request {
    Transaction tx;
    std::promise<ClusterIndex> promise;
  };

  void WorkerLoop(size_t worker);

  const ModelHandle* model_;              // fixed-model mode (else null)
  const SwappableModel* swappable_ = nullptr;  // swap-aware mode (else null)
  ServeOptions options_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool stopping_ = false;  // guarded by mu_
  bool started_ = false;
  std::thread runner_;     // forks the worker pool and joins it

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batch_items_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> outliers_{0};
  std::atomic<uint64_t> peak_depth_{0};
  double seconds_ = 0.0;   // written by Stop before stats() is legal
  bool metrics_exported_ = false;
  std::chrono::steady_clock::time_point start_time_;
};

/// Runs the stdin/stdout line protocol against a model: one
/// whitespace-separated item query per line, one decimal cluster index per
/// answer line (-1 = outlier, "ERR: …" for malformed queries), answers in
/// submission order. Blank lines and lines starting with '#' are skipped.
/// Used by `rock serve`; tests drive it with stringstreams.
Status ServeLines(const ModelHandle& model, const ServeOptions& options,
                  std::istream& in, std::ostream& out);

}  // namespace rock

#endif  // ROCK_SERVE_SERVER_H_
