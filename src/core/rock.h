// librock — core/rock.h
//
// The ROCK agglomerative clusterer (paper §4, Fig. 3). Given a normalized
// similarity and θ it:
//   1. builds the neighbor graph (§3.1, the packed neighbor engine) and
//      prunes isolated outliers (§4.6),
//   2. computes pairwise links (§3.2, the packed link engine; the same
//      counts as the Fig. 4 algorithm),
//   3. greedily merges the cluster pair with maximal goodness g(C_i, C_j)
//      (§4.2) using one local heap per cluster plus a global heap,
//   4. optionally pauses at a small multiple of k to weed low-support
//      outlier clusters (§4.6),
//   5. stops at k clusters or when no cross-links remain (whichever first).
//
// Worst-case complexity O(n² + n·m_m·m_a + n² log n) — §4.5.

#ifndef ROCK_CORE_ROCK_H_
#define ROCK_CORE_ROCK_H_

#include <cstdint>
#include <vector>

#include "core/cluster.h"
#include "core/goodness.h"
#include "core/options.h"
#include "diag/metrics.h"
#include "graph/links.h"
#include "graph/neighbors.h"
#include "similarity/similarity.h"

namespace rock {

/// One merge step of the hierarchy (u, v → merged cluster of `new_size`).
struct MergeRecord {
  uint32_t left;      ///< internal id of the first merged cluster
  uint32_t right;     ///< internal id of the second merged cluster
  uint32_t merged;    ///< internal id assigned to the merged cluster
  double goodness;    ///< g(left, right) at merge time
  size_t new_size;    ///< point count of the merged cluster
};

/// Run statistics (drives Fig. 5 and the complexity-ablation benches).
struct RockStats {
  size_t num_points = 0;            ///< input size n
  size_t num_pruned_points = 0;     ///< isolated points dropped up front
  size_t num_weeded_clusters = 0;   ///< clusters removed at the weeding pause
  size_t num_weeded_points = 0;     ///< points inside weeded clusters
  size_t num_merges = 0;            ///< merge steps performed
  double average_degree = 0.0;      ///< m_a of the neighbor graph
  size_t max_degree = 0;            ///< m_m of the neighbor graph
  double neighbor_seconds = 0.0;    ///< time to build the neighbor graph
  double link_seconds = 0.0;        ///< time to compute links (Fig. 4)
  double merge_seconds = 0.0;       ///< time in the heap-driven merge loop
  double total_seconds = 0.0;       ///< end-to-end clustering time
  double criterion_value = 0.0;     ///< E_l of the final clustering (§3.3)
};

/// Result of a ROCK run: the flat clustering (outliers = kUnassigned),
/// the merge history, run statistics, and — unless disabled via
/// RockOptions::diag — the per-stage metrics report (timers, counters,
/// gauges; names cataloged in docs/OBSERVABILITY.md).
struct RockResult {
  Clustering clustering;
  std::vector<MergeRecord> merges;
  RockStats stats;
  diag::RunMetrics metrics;
};

/// The ROCK clustering algorithm.
class RockClusterer {
 public:
  /// Captures options; Cluster() validates them.
  explicit RockClusterer(RockOptions options) : options_(std::move(options)) {}

  /// Clusters all points of `sim` (paper Fig. 3 over the full point set).
  Result<RockResult> Cluster(const PointSimilarity& sim) const;

  /// Clusters a precomputed neighbor graph (θ is already baked into the
  /// graph; options_.theta only feeds f(θ) here). Entry point for callers
  /// that build graphs themselves (tests, ablations).
  Result<RockResult> ClusterGraph(const NeighborGraph& graph) const;

  const RockOptions& options() const { return options_; }

 private:
  RockOptions options_;
};

}  // namespace rock

#endif  // ROCK_CORE_ROCK_H_
