// librock — core/merge_engine.h (internal)
//
// The two implementations of the Fig. 3 agglomerative merge loop. Both
// consume a prebuilt neighbor graph, run the link phase, and return a
// complete RockResult; they differ only in data layout:
//
//   * parallel — interleaved (AoS) partner rows, lazy best cleaning, a
//                memoized goodness table and elided no-op global-heap
//                fixups. The default and only production engine
//                (core/merge_parallel.cc, DESIGN.md §12); its merge loop
//                is serial, the name is kept for the CLI value and the
//                perf baselines.
//   * hashed   — per-cluster std::unordered_map link tables and local
//                heaps, the paper-literal layout. Kept behind the same
//                API as the reference oracle for differential tests and
//                the perf gate (core/merge_hashed.cc).
//
// Results are bit-identical: the merge sequence, clustering, stats, and
// invariant-check outcomes agree element for element (enforced by
// tests/diag_differential_test.cc). RockClusterer dispatches on
// RockOptions::merge_engine; this header is not part of the public API.

#ifndef ROCK_CORE_MERGE_ENGINE_H_
#define ROCK_CORE_MERGE_ENGINE_H_

#include "core/rock.h"

namespace rock::internal {

/// Runs the original hash-table merge engine (reference oracle).
RockResult RunHashedMergeEngine(const NeighborGraph& graph,
                                const RockOptions& options);

/// Runs the production merge engine (interleaved rows, lazy best
/// cleaning, elided heap fixups) — the default.
RockResult RunParallelMergeEngine(const NeighborGraph& graph,
                                  const RockOptions& options);

/// Link phase shared by both merge engines: dispatches on
/// RockOptions::link_engine (packed link engine vs the serial Fig. 4
/// hashed scatter, graph/link_engine.h vs graph/links.cc) with the run's
/// thread count and metrics sink threaded through. Either engine yields a
/// matrix with byte-identical CSR rows.
LinkMatrix ComputeLinkStage(const NeighborGraph& graph,
                            const RockOptions& options,
                            diag::MetricsRegistry* metrics);

}  // namespace rock::internal

#endif  // ROCK_CORE_MERGE_ENGINE_H_
