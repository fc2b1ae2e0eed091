// librock — graph/neighbors.h
//
// Neighbor-graph construction (paper §3.1): points i, j are *neighbors* iff
// sim(i, j) >= θ. A point is NOT its own neighbor — the paper's worked link
// counts (Example 1.2 / §3.2: pairs {1,2,3},{1,2,4} share exactly 5 common
// neighbors) only hold when self and the two endpoints are excluded.

#ifndef ROCK_GRAPH_NEIGHBORS_H_
#define ROCK_GRAPH_NEIGHBORS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "similarity/similarity.h"

namespace rock {

/// Dense point index inside one clustering run.
using PointIndex = uint32_t;

/// Thresholded neighbor graph: nbrlist[i] is the sorted list of j != i with
/// sim(i, j) >= θ.
struct NeighborGraph {
  std::vector<std::vector<PointIndex>> nbrlist;

  /// Number of points n.
  size_t size() const { return nbrlist.size(); }

  /// Degree of point i (m_i in the paper's complexity analysis).
  size_t Degree(size_t i) const { return nbrlist[i].size(); }

  /// True iff i and j are neighbors (binary search; i != j expected).
  bool AreNeighbors(PointIndex i, PointIndex j) const;

  /// Average neighbor count m_a.
  double AverageDegree() const;

  /// Maximum neighbor count m_m.
  size_t MaxDegree() const;

  /// Number of (unordered) neighbor pairs, i.e. edges.
  size_t NumEdges() const;
};

/// Builds the neighbor graph by thresholding all pairwise similarities.
/// θ must be in [0, 1]. O(n²) similarity evaluations.
Result<NeighborGraph> ComputeNeighbors(const PointSimilarity& sim,
                                       double theta);

}  // namespace rock

#endif  // ROCK_GRAPH_NEIGHBORS_H_
