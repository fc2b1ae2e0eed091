#include "core/components.h"

#include <numeric>
#include <vector>

namespace rock {

namespace {

class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), PointIndex{0});
  }
  PointIndex Find(PointIndex x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(PointIndex a, PointIndex b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<PointIndex> parent_;
};

}  // namespace

LinkComponentsResult LinkComponents(const NeighborGraph& graph,
                                    const LinkMatrix& links,
                                    size_t min_neighbors) {
  const size_t n = graph.size();
  LinkComponentsResult out;

  std::vector<bool> pruned(n, false);
  for (size_t p = 0; p < n; ++p) {
    if (graph.Degree(p) < min_neighbors) {
      pruned[p] = true;
      ++out.num_pruned_points;
    }
  }

  UnionFind uf(n);
  for (size_t p = 0; p < n; ++p) {
    if (pruned[p]) continue;
    const LinkRowSpan row = links.FlatRow(static_cast<PointIndex>(p));
    for (size_t i = 0; i < row.size; ++i) {
      const PointIndex q = row.partners[i];
      if (row.counts[i] > 0 && !pruned[q]) {
        uf.Union(static_cast<PointIndex>(p), q);
      }
    }
  }

  std::vector<ClusterIndex> assignment(n, kUnassigned);
  std::vector<ClusterIndex> root_to_cluster(n, kUnassigned);
  ClusterIndex next = 0;
  for (size_t p = 0; p < n; ++p) {
    if (pruned[p]) continue;
    const PointIndex root = uf.Find(static_cast<PointIndex>(p));
    if (root_to_cluster[root] == kUnassigned) {
      root_to_cluster[root] = next++;
    }
    assignment[p] = root_to_cluster[root];
  }
  out.clustering = Clustering::FromAssignment(std::move(assignment));
  out.clustering.SortBySizeDescending();
  return out;
}

Result<LinkComponentsResult> ComputeLinkComponents(const PointSimilarity& sim,
                                                   double theta,
                                                   size_t min_neighbors) {
  auto graph = ComputeNeighbors(sim, theta);
  ROCK_RETURN_IF_ERROR(graph.status());
  LinkMatrix links = ComputeLinks(*graph);
  return LinkComponents(*graph, links, min_neighbors);
}

}  // namespace rock
