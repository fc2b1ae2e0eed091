#include "graph/neighbors.h"

#include <algorithm>

namespace rock {

bool NeighborGraph::AreNeighbors(PointIndex i, PointIndex j) const {
  const auto& list = nbrlist[i];
  return std::binary_search(list.begin(), list.end(), j);
}

double NeighborGraph::AverageDegree() const {
  if (nbrlist.empty()) return 0.0;
  size_t total = 0;
  for (const auto& l : nbrlist) total += l.size();
  return static_cast<double>(total) / static_cast<double>(nbrlist.size());
}

size_t NeighborGraph::MaxDegree() const {
  size_t best = 0;
  for (const auto& l : nbrlist) best = std::max(best, l.size());
  return best;
}

size_t NeighborGraph::NumEdges() const {
  size_t total = 0;
  for (const auto& l : nbrlist) total += l.size();
  return total / 2;
}

Result<NeighborGraph> ComputeNeighbors(const PointSimilarity& sim,
                                       double theta) {
  if (!(theta >= 0.0 && theta <= 1.0)) {
    return Status::InvalidArgument("theta must be in [0, 1]");
  }
  const size_t n = sim.size();
  NeighborGraph graph;
  graph.nbrlist.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (sim.Similarity(i, j) >= theta) {
        graph.nbrlist[i].push_back(static_cast<PointIndex>(j));
        graph.nbrlist[j].push_back(static_cast<PointIndex>(i));
      }
    }
  }
  // Rows i receive j > i in order, but j < i arrive out of order; sort for
  // the binary-search contract.
  for (auto& l : graph.nbrlist) std::sort(l.begin(), l.end());
  return graph;
}

}  // namespace rock
