// The merge engines' shared link phase: RockOptions::link_engine decides
// whether Fig. 4 runs through the packed link engine or the serial hashed
// reference (see core/merge_engine.h).

#include "core/merge_engine.h"
#include "graph/link_engine.h"

namespace rock::internal {

LinkMatrix ComputeLinkStage(const NeighborGraph& graph,
                            const RockOptions& options,
                            diag::MetricsRegistry* metrics) {
  if (options.link_engine == LinkEngineKind::kHashed) {
    return ComputeLinks(graph);
  }
  PackedLinkOptions packed;
  packed.num_threads = options.EffectiveGraphThreads();
  packed.row_chunk = options.row_chunk;
  packed.metrics = metrics;
  return ComputeLinksPacked(graph, packed);
}

}  // namespace rock::internal
