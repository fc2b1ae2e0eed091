// librock — graph/neighbor_engine.h
//
// θ-thresholded neighbor-graph engine, the one RockClusterer runs. The
// scalar ComputeNeighbors in neighbors.h evaluates all n²/2 pairs through a
// virtual per-pair call; it is the reference. This engine consumes a
// similarity's BatchSimilarity (similarity/batch.h) through one of two
// exact passes, staying bit-identical to the reference at any thread count:
//
//   * dense sweep — for set-Jaccard batches (prune_sizes() non-null) at
//     θ > 0, every pair in id order: popcount(row_i AND row_j) over the
//     packed item plane, kept iff it reaches the integer threshold
//     m(|T_i|, |T_j|) = NeighborThreshold(θ, ·, ·) read from a table (the
//     double division disappears from the hot loop). Pairs with m = 0 are
//     the ones the §3.1 Jaccard length bound rules out. θ = 0 and
//     pairwise-missing batches take the same id-order walk through
//     SimilarityBatch instead.
//   * inverted-index candidates — for θ > 0, sim(i, j) > 0 requires a
//     shared item, so a ScanCount pass over per-item postings enumerates
//     exactly the pairs with nonzero intersection; for plain set-Jaccard
//     the intersection count already determines the similarity.
//
// A similarity with no batch kernel takes the same id-order walk through
// its per-pair Similarity().
//
// Every pass emits each row's partners j > i in ascending order into one
// buffer per row chunk, so the adjacency rows assemble already sorted and
// identical at any thread count. Work is reported through the metrics
// registry: neighbors.pairs_evaluated + neighbors.pairs_pruned == n(n−1)/2
// always.

#ifndef ROCK_GRAPH_NEIGHBOR_ENGINE_H_
#define ROCK_GRAPH_NEIGHBOR_ENGINE_H_

#include <cstddef>

#include "graph/neighbors.h"
#include "similarity/minhash.h"
#include "similarity/similarity.h"

namespace rock::diag {
class MetricsRegistry;
}  // namespace rock::diag

namespace rock {

/// Which pass the packed engine runs.
enum class PackedStrategy {
  /// Pick per dataset: candidates when the estimated postings-scan time
  /// undercuts the dense sweep's, the dense sweep otherwise.
  kAuto,
  /// Id-order sweep over every pair (always available): the dense
  /// AND-popcount sweep for set-Jaccard at θ > 0, SimilarityBatch
  /// otherwise.
  kWindow,
  /// Inverted-index ScanCount candidates (requires θ > 0 and an item view;
  /// silently degrades to kWindow otherwise).
  kCandidates,
};

/// Options for ComputeNeighborsPacked.
struct PackedNeighborOptions {
  /// Worker threads; 1 = serial, 0 = hardware concurrency. The graph is
  /// bit-identical at any value.
  size_t num_threads = 1;
  /// Rows a worker claims per scheduling step: smaller chunks balance
  /// better on skewed rows, larger ones cut scheduling overhead.
  size_t row_chunk = 16;
  /// Pruning pass selection; kAuto outside tests.
  PackedStrategy strategy = PackedStrategy::kAuto;
  /// Read by nothing in the library: the engine has no approximate pass.
  /// It stays so that callers which spell out the retired MinHash options
  /// (bench/e2e/bench_e2e.cc) still compile.
  LshOptions lsh;
  /// Metrics sink (may be null): neighbors.pairs_evaluated,
  /// neighbors.pairs_pruned, neighbors.candidate_pass,
  /// neighbors.fallback_scalar, graph.threads, the decision.neighbors.*
  /// inputs of a kAuto choice, and the timers stage.neighbors.pack,
  /// stage.neighbors.sweep and stage.neighbors.assemble.
  diag::MetricsRegistry* metrics = nullptr;
};

/// Builds the θ-thresholded neighbor graph; equals
/// ComputeNeighbors(sim, theta) bit for bit at any thread count. When the
/// similarity has no batch kernel (MakeBatch() == nullptr, e.g.
/// expert-supplied similarities or a packing over the memory budget), every
/// pair goes through Similarity() in the same row loop, and the run counts
/// neighbors.fallback_scalar.
Result<NeighborGraph> ComputeNeighborsPacked(
    const PointSimilarity& sim, double theta,
    const PackedNeighborOptions& options = {});

}  // namespace rock

#endif  // ROCK_GRAPH_NEIGHBOR_ENGINE_H_
