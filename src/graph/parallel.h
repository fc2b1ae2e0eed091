// librock — graph/parallel.h
//
// Multithreaded neighbor-graph construction (paper §4.5 / Fig. 5: n²/2
// similarity evaluations) for similarities without a batch kernel, plus
// the sharded sort the LSH candidate dedup uses. Results are bit-identical
// to the serial ComputeNeighbors.
//
// Workers claim dynamic chunks of rows i and evaluate sim(i, j) for j > i
// into per-worker edge buffers; buffers are scattered into the final
// adjacency lists single-threaded (cheap, O(edges)). The threaded link
// pass lives in the packed link engine (graph/link_engine.h).

#ifndef ROCK_GRAPH_PARALLEL_H_
#define ROCK_GRAPH_PARALLEL_H_

#include <cstdint>
#include <vector>

#include "graph/neighbors.h"
#include "similarity/similarity.h"

namespace rock {

/// Options for the parallel graph algorithms.
struct ParallelOptions {
  /// Worker threads; 0 = hardware concurrency.
  size_t num_threads = 0;
  /// Rows claimed per scheduling step in neighbor construction.
  size_t row_chunk = 16;
};

/// Parallel thresholded neighbor graph; equals ComputeNeighbors(sim, theta).
Result<NeighborGraph> ComputeNeighborsParallel(
    const PointSimilarity& sim, double theta,
    const ParallelOptions& options = {});

/// Sorts `keys` ascending and drops duplicates, sharded over `num_threads`
/// workers (segment sorts in parallel, then a serial merge ladder). The
/// result is the sorted unique multiset — identical at any thread count —
/// which is what the LSH candidate dedup in the packed neighbor engine
/// relies on for its determinism contract.
void SortUniqueParallel(std::vector<uint64_t>* keys, size_t num_threads);

}  // namespace rock

#endif  // ROCK_GRAPH_PARALLEL_H_
