// librock — serve/stream.h
//
// Streaming append-mode clustering (docs/DESIGN.md §11). A model is built
// once from a sample (core/pipeline.h BuildModel); afterwards new
// transactions arrive incrementally:
//
//   Append(rows) → AppendToStore (crash-safe copy-on-append, data layer)
//               → label each appended row with the live model's §4.6
//                 AssignDetailed (bit-sliced) — the exact Assign path the
//                 batch pipeline runs, so incremental labels are
//                 byte-identical to a full relabel of the same model
//               → feed every outcome to the drift detector (eval/drift.h)
//               → when drift trips and auto_rebuild is on, kick off a
//                 re-cluster of the grown store in the background
//
// The live model is a SwappableModel: a mutex-guarded shared_ptr to an
// immutable ModelHandle. Readers Acquire() a snapshot and answer entirely
// from it — a query in flight during a swap is answered by the old model
// or the new one, never a mix. A rebuild publishes its bundle to disk
// first (atomic tmp+rename inside SaveModelBundle), then consults the
// "model.swap" failpoint, then swaps the in-process handle — a crash at
// the failpoint leaves the new model durable on disk, and reopening the
// session (or MaybeReload) picks it up; rows are never labeled by a model
// older than the one that crashed mid-swap plus the swap itself is
// idempotent, so resume cannot produce duplicated or mixed labels.
//
// Rebuilds ride the PR-4 checkpoint spine: with
// StreamOptions::build.pipeline.checkpoint_path set, a rebuild that
// crashes after clustering resumes without re-clustering and freezes a
// byte-identical bundle (core/pipeline.h BuildModel).
//
// Metrics (stream.*, docs/OBSERVABILITY.md): stream.appends,
// stream.rows_appended, stream.labeled, stream.outliers, stream.rebuilds,
// stream.reloads, stream.generation, stream.store_rows, stream.swaps —
// plus the detector's drift.* family. All registry writes happen under the
// session mutex (the registry itself is single-writer).

#ifndef ROCK_SERVE_STREAM_H_
#define ROCK_SERVE_STREAM_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/pipeline.h"
#include "data/disk_store.h"
#include "eval/drift.h"
#include "serve/model_handle.h"
#include "util/retry.h"

namespace rock {

/// A hot-swappable immutable model. Readers take a shared_ptr snapshot and
/// answer entirely from it; Swap() publishes a replacement for future
/// acquisitions without disturbing snapshots already taken. Thread-safe.
class SwappableModel {
 public:
  SwappableModel() = default;
  explicit SwappableModel(std::shared_ptr<const ModelHandle> model)
      : model_(std::move(model)) {}

  SwappableModel(const SwappableModel&) = delete;
  SwappableModel& operator=(const SwappableModel&) = delete;

  /// The current model. Never null once constructed with a model; the
  /// returned snapshot stays valid (and immutable) across any number of
  /// subsequent swaps.
  std::shared_ptr<const ModelHandle> Acquire() const {
    std::lock_guard<std::mutex> lock(mu_);
    return model_;
  }

  /// Publishes `model` as the current one. Snapshots already acquired are
  /// unaffected.
  void Swap(std::shared_ptr<const ModelHandle> model) {
    std::lock_guard<std::mutex> lock(mu_);
    model_ = std::move(model);
    ++swaps_;
  }

  /// Number of Swap() calls so far.
  uint64_t swaps() const {
    std::lock_guard<std::mutex> lock(mu_);
    return swaps_;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ModelHandle> model_;
  uint64_t swaps_ = 0;  // guarded by mu_
};

/// Controls for a StreamingSession.
struct StreamOptions {
  /// Parameters for drift-triggered (and explicit) rebuilds: θ/k/sampling,
  /// checkpoint_path/resume for crash-safe rebuilds, retry policy. The
  /// model_path field is ignored — rebuilds always publish to the
  /// session's own model path. The retry policy also wraps the append
  /// itself.
  ModelBuildOptions build;
  /// Drift thresholds. The metrics field is overridden with
  /// StreamOptions::metrics so drift.* and stream.* land in one registry.
  DriftOptions drift;
  /// When drift trips, start a re-cluster automatically.
  bool auto_rebuild = false;
  /// Auto rebuilds run on a background thread (true) or inline in the
  /// Append call that tripped the detector (false — deterministic tests).
  bool background_rebuild = true;
  /// When non-null, stream.* / drift.* metrics are recorded here. Written
  /// only under the session mutex (the registry is single-writer).
  diag::MetricsRegistry* metrics = nullptr;
};

/// What one Append call did.
struct StreamAppendResult {
  /// The committed store state (base_count / new_count / generation).
  StoreAppendResult store;
  /// §4.6 assignment of each appended row, in input order — cluster,
  /// winning neighbor count and score, bit-identical to what a full
  /// relabel of the same model would produce for these rows.
  std::vector<TransactionLabeler::AssignOutcome> outcomes;
  /// Drift verdict + evidence right after observing this batch — captured
  /// before any triggered rebuild resets the detector.
  DriftReport drift;
  /// Convenience mirror of drift.tripped (sticky until a rebuild).
  bool drift_tripped = false;
  /// True when this Append kicked off an automatic rebuild.
  bool rebuild_started = false;
};

/// One long-lived append-mode clustering session over a store + model pair.
/// Append/Label/Rebuild/MaybeReload are thread-safe with respect to each
/// other and to the background rebuild; model snapshots taken through
/// swappable() are safe from any thread.
class StreamingSession {
 public:
  /// Opens a session: loads and validates the model bundle at `model_path`
  /// and the store header at `store_path`. The model's build-time profile
  /// (empty for version-1 bundles) seeds the drift baseline.
  static Result<std::unique_ptr<StreamingSession>> Open(
      std::string store_path, std::string model_path, StreamOptions options);

  /// Joins any background rebuild still running.
  ~StreamingSession();

  StreamingSession(const StreamingSession&) = delete;
  StreamingSession& operator=(const StreamingSession&) = delete;

  /// Appends `rows` (with optional ground-truth `labels`) to the store —
  /// crash-safe, see AppendToStore — then labels each appended row against
  /// one acquired model snapshot and feeds the drift detector. Transient
  /// append I/O errors are retried under the build retry policy. On any
  /// error the store is either untouched or fully committed (never torn);
  /// an error after the commit surfaces the committed state in the store
  /// field of the session (generation()/store_rows()).
  Result<StreamAppendResult> Append(const std::vector<Transaction>& rows,
                                    const std::vector<LabelId>* labels =
                                        nullptr);

  /// Labels one transaction against the current model without appending it
  /// (read-only query; does not feed the drift detector).
  TransactionLabeler::AssignOutcome Label(const Transaction& tx);

  /// The swappable model, for wiring into a LabelServer or taking
  /// snapshots directly.
  SwappableModel* swappable() { return &model_; }
  std::shared_ptr<const ModelHandle> Acquire() const {
    return model_.Acquire();
  }

  /// Re-clusters the grown store synchronously with the session's build
  /// options, publishes the bundle to the model path (atomic), consults
  /// the "model.swap" failpoint, swaps the in-process model and resets the
  /// drift baseline to the new profile. FailedPrecondition when a rebuild
  /// is already in flight.
  Status Rebuild();

  /// Joins the background rebuild if one is running (or just finished) and
  /// returns its status; OK when none was ever started.
  Status WaitForRebuild();

  /// True while a rebuild (background or synchronous) is running.
  bool rebuild_in_flight() const;

  /// Reloads the model from disk if its fingerprint changed (another
  /// process — or a crashed swap — published a new bundle). Returns true
  /// when a new model was swapped in.
  Result<bool> MaybeReload();

  /// Snapshot of the drift verdict + evidence.
  DriftReport drift_report() const;

  /// Store generation after the last committed append (header stamp).
  uint64_t generation() const;
  /// Store row count after the last committed append.
  uint64_t store_rows() const;
  /// Completed model rebuilds (swaps from Rebuild, not MaybeReload).
  uint64_t rebuilds() const;
  /// Transient-I/O retry accounting for appends.
  RetryStats retry_stats() const;

 private:
  StreamingSession(std::string store_path, std::string model_path,
                   StreamOptions options)
      : store_path_(std::move(store_path)),
        model_path_(std::move(model_path)),
        options_(std::move(options)) {}

  /// The rebuild body: BuildModel → "model.swap" consult → swap + drift
  /// reset. Takes mu_ only for the final publication.
  Status RebuildNow();
  /// Starts a rebuild if none is in flight; returns true when started.
  bool MaybeStartRebuild();

  const std::string store_path_;
  const std::string model_path_;
  StreamOptions options_;

  SwappableModel model_;

  mutable std::mutex mu_;
  DriftDetector drift_;                   // guarded by mu_
  TransactionLabeler::Scratch scratch_;   // guarded by mu_
  uint64_t generation_ = 0;               // guarded by mu_
  uint64_t store_rows_ = 0;               // guarded by mu_
  uint64_t rebuilds_ = 0;                 // guarded by mu_
  RetryStats retry_stats_;                // guarded by mu_
  bool rebuild_inflight_ = false;         // guarded by mu_
  Status rebuild_status_;                 // guarded by mu_
  std::thread rebuild_thread_;            // guarded by mu_ (handle only)
};

}  // namespace rock

#endif  // ROCK_SERVE_STREAM_H_
