#include "core/rock.h"

#include <utility>

#include "common/timer.h"
#include "core/merge_engine.h"
#include "diag/metrics.h"
#include "graph/neighbor_engine.h"

namespace rock {

Result<RockResult> RockClusterer::Cluster(const PointSimilarity& sim) const {
  ROCK_RETURN_IF_ERROR(options_.Validate());
  diag::MetricsRegistry nbr_metrics;
  Timer nbr_timer;
  PackedNeighborOptions nopts;
  nopts.num_threads = options_.graph_threads;
  nopts.row_chunk = options_.row_chunk;
  nopts.metrics = options_.diag.collect_metrics ? &nbr_metrics : nullptr;
  Result<NeighborGraph> graph =
      ComputeNeighborsPacked(sim, options_.theta, nopts);
  ROCK_RETURN_IF_ERROR(graph.status());
  const double nbr_seconds = nbr_timer.ElapsedSeconds();
  // The engine takes the graph over and frees its lists once the links
  // are counted.
  RockResult result =
      internal::RunParallelMergeEngine(std::move(*graph), options_);
  result.stats.neighbor_seconds = nbr_seconds;
  result.stats.total_seconds += nbr_seconds;
  if (options_.diag.collect_metrics) {
    result.metrics.Merge(nbr_metrics.Snapshot());
    result.metrics.RecordSeconds("stage.neighbors", nbr_seconds);
    // stage.total must cover the whole run including this phase; replace
    // the engine's graph-only figure.
    auto& total = result.metrics.timers["stage.total"];
    total = diag::TimerStats{};
    total.Record(result.stats.total_seconds);
  }
  return result;
}

Result<RockResult> RockClusterer::ClusterGraph(
    const NeighborGraph& graph) const {
  ROCK_RETURN_IF_ERROR(options_.Validate());
  return internal::RunParallelMergeEngine(graph, options_);
}

}  // namespace rock
