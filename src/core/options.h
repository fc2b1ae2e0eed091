// librock — core/options.h
//
// User-facing knobs for the ROCK clusterer, mirroring the paper's
// parameters: the similarity threshold θ (§3.1), the link-expectation
// exponent function f(θ) (§3.3), the desired cluster count k, and the two
// outlier-handling controls of §4.6 (isolated-point pruning and small-
// cluster weeding at a stop multiple of k). There is one engine per phase:
// RockClusterer always runs the packed neighbor engine, the packed link
// engine and the production merge engine. Thread counts apply to the
// neighbor + link phases (graph_threads) and to labeling (label_threads);
// the Fig. 3 merge loop is serial.

#ifndef ROCK_CORE_OPTIONS_H_
#define ROCK_CORE_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"

namespace rock {

/// The paper's market-basket estimate f(θ) = (1 − θ) / (1 + θ): each point
/// of a cluster C_i has ≈ n_i^{f(θ)} neighbors inside C_i. Satisfies the
/// paper's sanity checks f(1) = 0 (only identical points are neighbors) and
/// f(0) = 1 (everyone is everyone's neighbor).
double MarketBasketF(double theta);

/// Alternative reading of the paper's (typographically garbled) market-
/// basket formula: f(θ) = 1/(1+θ). Its larger exponent penalizes merges
/// into big clusters more aggressively; unlike MarketBasketF it recovers
/// the paper's Figure 1 example end-to-end (see EXPERIMENTS.md). Note it
/// fails the paper's own boundary check f(1) = 0, so MarketBasketF is the
/// canonical default.
double ConservativeMarketBasketF(double theta);

/// Observability and self-checking knobs (see docs/OBSERVABILITY.md).
struct DiagOptions {
  /// Collect per-stage timers and counters into RockResult::metrics /
  /// PipelineResult::metrics. Costs a few dozen registry writes per run.
  bool collect_metrics = true;

  /// When > 0, the merge engine re-derives its link/heap bookkeeping from
  /// first principles after every Nth merge (plus once before the first and
  /// once after the last) and records violations under diag.invariant_*.
  /// 0 defers to the ROCK_DIAG_CHECKS environment variable / build option
  /// (diag::InvariantCheckInterval), which default to disabled.
  size_t invariant_check_every = 0;
};

/// Parameters of a ROCK clustering run.
struct RockOptions {
  /// Similarity threshold θ ∈ [0, 1]: pairs with sim ≥ θ are neighbors.
  double theta = 0.5;

  /// Desired number of clusters k. The algorithm may stop with more
  /// clusters if all cross-links are exhausted first (paper §5.2: mushroom
  /// stopped at 21 with k = 20), or fewer after outlier weeding.
  size_t num_clusters = 2;

  /// Link-expectation exponent f(θ). Defaults to MarketBasketF.
  std::function<double(double)> f = MarketBasketF;

  /// Outlier pruning (§4.6 first stage): points with fewer neighbors than
  /// this never participate in clustering. 0 disables pruning; the paper's
  /// default is to discard points "with very few or no neighbors".
  size_t min_neighbors = 1;

  /// Outlier weeding (§4.6 second stage): when > 0, clustering pauses at
  /// ceil(outlier_stop_multiple × k) clusters and discards clusters with
  /// fewer than min_cluster_support points before continuing to k.
  /// 0 disables the pause.
  double outlier_stop_multiple = 0.0;

  /// Minimum size a cluster must have to survive weeding.
  size_t min_cluster_support = 2;

  /// Worker threads for the neighbor-graph and link-computation phases
  /// (the O(n²)-ish parts; the merge loop is inherently sequential).
  /// 1 = serial (default), 0 = hardware concurrency. Results are
  /// identical regardless of thread count.
  size_t graph_threads = 1;

  /// Rows claimed per scheduling step by the parallel graph phases
  /// (PackedNeighborOptions::row_chunk, PackedLinkOptions::row_chunk).
  /// Smaller chunks balance better on skewed rows, larger chunks cut
  /// scheduling overhead. The results do not depend on it.
  size_t row_chunk = 16;

  /// Seed of the retired MinHash LSH pass (similarity/minhash.h). Nothing
  /// in the library reads it: the neighbor engine is exact. It stays
  /// because the end-to-end benchmark (bench/e2e/bench_e2e.cc) still
  /// passes it to TuneLshOptions when it spells out the packed neighbor
  /// options.
  uint64_t lsh_seed = 0x5eed;

  /// Worker threads for the disk labeling phase (§4.6, the only stage that
  /// touches the whole database). The store is split into row shards that
  /// workers claim dynamically; assignments are bit-identical across all
  /// thread counts. 1 = serial (default), 0 = hardware concurrency.
  size_t label_threads = 1;

  /// Metrics collection and runtime invariant checking.
  DiagOptions diag;

  /// Deterministic fault-injection schedule (util/failpoint.h grammar,
  /// e.g. "store.read=fire_on_hit_100:error"). Empty = leave the process
  /// schedule untouched. Applied by RunRockPipeline before any I/O; in
  /// builds compiled with -DROCK_FAILPOINTS=OFF a non-empty schedule is
  /// rejected with FailedPrecondition instead of being silently ignored.
  std::string failpoints;

  /// Thread count the graph phases run with (graph_threads; kept as an
  /// accessor because bench/e2e/bench_e2e.cc calls it).
  size_t EffectiveGraphThreads() const { return graph_threads; }

  /// Checks parameter sanity.
  Status Validate() const;
};

}  // namespace rock

#endif  // ROCK_CORE_OPTIONS_H_
