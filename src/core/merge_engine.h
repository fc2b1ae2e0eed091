// librock — core/merge_engine.h (internal)
//
// The two implementations of the Fig. 3 agglomerative merge loop. Both
// consume a prebuilt neighbor graph, run the link phase, and return a
// complete RockResult:
//
//   * parallel — the production engine, the only one RockClusterer runs
//                (core/merge_parallel.cc, DESIGN.md §12). Links come from
//                the packed link engine (graph/link_engine.h) at
//                RockOptions::graph_threads; the merge loop itself uses
//                interleaved (AoS) partner rows, lazy best cleaning, a
//                memoized goodness table and elided no-op global-heap
//                fixups. It is serial; the name is kept for the perf
//                baselines.
//   * hashed   — the paper-literal reference (core/merge_hashed.cc):
//                serial Fig. 4 links (graph/links.h) and per-cluster
//                std::unordered_map link tables with local heaps. Called
//                directly by the differential tests' reference
//                composition (tests/reference_rock.h) and by the perf
//                gates' benches.
//
// Results are bit-identical: the merge sequence, clustering, stats, and
// invariant-check outcomes agree element for element (enforced by
// tests/diag_differential_test.cc). This header is not part of the public
// API.

#ifndef ROCK_CORE_MERGE_ENGINE_H_
#define ROCK_CORE_MERGE_ENGINE_H_

#include "core/rock.h"

namespace rock::internal {

/// Runs the paper-literal reference: Fig. 4 links, then the hash-table
/// merge engine.
RockResult RunHashedMergeEngine(const NeighborGraph& graph,
                                const RockOptions& options);

/// Runs the production engine: packed links, then the interleaved-row
/// merge loop with lazy best cleaning and elided heap fixups.
RockResult RunParallelMergeEngine(const NeighborGraph& graph,
                                  const RockOptions& options);

}  // namespace rock::internal

#endif  // ROCK_CORE_MERGE_ENGINE_H_
