// librock — util/thread_pool.h
//
// Minimal fork-join helpers for the parallel neighbor/link computations
// (graph/neighbor_engine.h, graph/link_engine.h).
// Workloads here are large, coarse-grained and CPU-bound, so plain
// std::thread fork-join per call is the right shape — no task queue, no
// futures.

#ifndef ROCK_UTIL_THREAD_POOL_H_
#define ROCK_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace rock {

/// Resolves a thread-count request: 0 → hardware concurrency (min 1).
inline size_t ResolveThreads(size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Runs fn(worker_index) on `num_threads` threads and joins them all.
/// fn must be thread-safe across workers. With num_threads <= 1 the call
/// runs inline (no thread spawn), which keeps small inputs cheap and makes
/// single-threaded behavior exactly the serial code path.
inline void ParallelInvoke(size_t num_threads,
                           const std::function<void(size_t)>& fn) {
  num_threads = ResolveThreads(num_threads);
  if (num_threads <= 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> workers;
  workers.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    workers.emplace_back([&fn, t] { fn(t); });
  }
  for (auto& w : workers) w.join();
}

/// Dynamic chunked loop over [0, total): workers repeatedly claim
/// `chunk`-sized index ranges from a shared counter and pass them to
/// fn(begin, end). Self-balancing for skewed per-index costs.
inline void ParallelChunks(
    size_t num_threads, size_t total, size_t chunk,
    const std::function<void(size_t, size_t)>& fn) {
  num_threads = ResolveThreads(num_threads);
  if (chunk == 0) chunk = 1;
  if (num_threads <= 1 || total <= chunk) {
    if (total > 0) fn(0, total);
    return;
  }
  std::atomic<size_t> next{0};
  ParallelInvoke(num_threads, [&](size_t) {
    while (true) {
      const size_t begin = next.fetch_add(chunk);
      if (begin >= total) break;
      fn(begin, std::min(begin + chunk, total));
    }
  });
}

}  // namespace rock

#endif  // ROCK_UTIL_THREAD_POOL_H_
