#include "graph/parallel.h"

#include <algorithm>
#include <array>
#include <atomic>

#include "util/thread_pool.h"

namespace rock {

Result<NeighborGraph> ComputeNeighborsParallel(const PointSimilarity& sim,
                                               double theta,
                                               const ParallelOptions& options) {
  if (!(theta >= 0.0 && theta <= 1.0)) {
    return Status::InvalidArgument("theta must be in [0, 1]");
  }
  const size_t n = sim.size();
  const size_t num_threads = ResolveThreads(options.num_threads);

  // Per-worker edge buffers; (i, j) with i < j.
  std::vector<std::vector<std::pair<PointIndex, PointIndex>>> edges(
      std::max<size_t>(num_threads, 1));
  std::atomic<size_t> next{0};
  const size_t chunk = std::max<size_t>(1, options.row_chunk);
  ParallelInvoke(num_threads, [&](size_t worker) {
    auto& local = edges[worker];
    while (true) {
      const size_t begin = next.fetch_add(chunk);
      if (begin >= n) break;
      const size_t end = std::min(begin + chunk, n);
      for (size_t i = begin; i < end; ++i) {
        for (size_t j = i + 1; j < n; ++j) {
          if (sim.Similarity(i, j) >= theta) {
            local.emplace_back(static_cast<PointIndex>(i),
                               static_cast<PointIndex>(j));
          }
        }
      }
    }
  });

  // Scatter: count degrees, reserve, fill, sort rows.
  NeighborGraph graph;
  graph.nbrlist.resize(n);
  std::vector<size_t> degree(n, 0);
  for (const auto& local : edges) {
    for (const auto& [i, j] : local) {
      ++degree[i];
      ++degree[j];
    }
  }
  for (size_t i = 0; i < n; ++i) graph.nbrlist[i].reserve(degree[i]);
  for (const auto& local : edges) {
    for (const auto& [i, j] : local) {
      graph.nbrlist[i].push_back(j);
      graph.nbrlist[j].push_back(i);
    }
  }
  for (auto& l : graph.nbrlist) std::sort(l.begin(), l.end());
  return graph;
}

void SortUniqueParallel(std::vector<uint64_t>* keys, size_t num_threads) {
  num_threads = ResolveThreads(num_threads);
  const size_t n = keys->size();
  // Below ~64k keys the fork-join overhead beats the sort it would shard.
  if (num_threads <= 1 || n < (size_t{1} << 16)) {
    std::sort(keys->begin(), keys->end());
    keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
    return;
  }

  // Near-equal segments, sorted in parallel.
  std::vector<size_t> bounds(num_threads + 1);
  for (size_t t = 0; t <= num_threads; ++t) bounds[t] = n * t / num_threads;
  ParallelInvoke(num_threads, [&](size_t t) {
    std::sort(keys->begin() + static_cast<ptrdiff_t>(bounds[t]),
              keys->begin() + static_cast<ptrdiff_t>(bounds[t + 1]));
  });

  // Merge ladder: segment width doubles per round, each merge claimed by
  // one worker. The final sorted order is independent of scheduling.
  for (size_t width = 1; width < num_threads; width *= 2) {
    std::vector<std::array<size_t, 3>> merges;  // {lo, mid, hi}
    for (size_t t = 0; t + width < num_threads; t += 2 * width) {
      merges.push_back({bounds[t], bounds[t + width],
                        bounds[std::min(t + 2 * width, num_threads)]});
    }
    std::atomic<size_t> next{0};
    ParallelInvoke(std::min(num_threads, merges.size()), [&](size_t) {
      while (true) {
        const size_t m = next.fetch_add(1);
        if (m >= merges.size()) break;
        const auto [lo, mid, hi] = merges[m];
        std::inplace_merge(keys->begin() + static_cast<ptrdiff_t>(lo),
                           keys->begin() + static_cast<ptrdiff_t>(mid),
                           keys->begin() + static_cast<ptrdiff_t>(hi));
      }
    });
  }
  keys->erase(std::unique(keys->begin(), keys->end()), keys->end());
}

}  // namespace rock
