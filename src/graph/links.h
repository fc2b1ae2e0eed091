// librock — graph/links.h
//
// Link computation (paper §3.2 / Fig. 4): link(p_i, p_j) = number of common
// neighbors of p_i and p_j = number of length-2 neighbor paths between them.
// The sparse algorithm iterates each point's neighbor list and credits one
// link to every pair of its neighbors — O(Σ m_i²) time, far cheaper than
// squaring the n×n adjacency matrix when the graph is sparse (§4.4).
//
// A LinkMatrix is a read-only CSR value: one offset array, one partner
// array sorted ascending within each row, and one parallel count array.
// The counts are fixed once computed (§3.2) and the Fig. 3 merge and the
// criterion only read them, so there is no mutation API. The packed link
// engine (graph/link_engine.h) builds the arrays directly via FromCsr();
// the reference algorithms below accumulate into a LinkMatrixBuilder,
// whose Build() sorts each row into the same layout. Either construction
// yields byte-identical rows for the same counts.

#ifndef ROCK_GRAPH_LINKS_H_
#define ROCK_GRAPH_LINKS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/neighbors.h"

namespace rock {

/// Number of common neighbors between a pair of points/clusters.
using LinkCount = uint32_t;

/// One CSR row of a LinkMatrix: `size` partners in strictly ascending
/// order with their link counts in the parallel array.
struct LinkRowSpan {
  const PointIndex* partners = nullptr;
  const LinkCount* counts = nullptr;
  size_t size = 0;
};

/// Symmetric sparse matrix of link counts in CSR form. Rows store only
/// non-zero entries; both (i, j) and (j, i) are represented so that row
/// iteration sees every partner of a point.
class LinkMatrix {
 public:
  /// Creates an all-zero n×n link matrix.
  explicit LinkMatrix(size_t n) : csr_offsets_(n + 1, 0) {}

  /// Adopts a prebuilt CSR layout (row i spans [offsets[i], offsets[i+1])
  /// of the partner/count arrays; partners strictly ascending per row, both
  /// (i, j) and (j, i) present). Offsets must have n + 1 entries and the
  /// arrays equal lengths.
  static LinkMatrix FromCsr(size_t n, std::vector<size_t> offsets,
                            std::vector<PointIndex> partners,
                            std::vector<LinkCount> counts);

  /// Number of points n.
  size_t size() const { return csr_offsets_.size() - 1; }

  /// link(i, j); zero if no entry. i == j returns 0 by convention.
  LinkCount Count(PointIndex i, PointIndex j) const;

  /// Row i, partners strictly ascending.
  LinkRowSpan FlatRow(PointIndex i) const {
    const size_t begin = csr_offsets_[i];
    const size_t end = csr_offsets_[i + 1];
    return LinkRowSpan{csr_partners_.data() + begin,
                       csr_counts_.data() + begin, end - begin};
  }

  /// Number of stored non-zero unordered pairs.
  size_t NumNonZeroPairs() const { return csr_partners_.size() / 2; }

  /// Sum of link counts over all unordered pairs.
  uint64_t TotalLinks() const;

 private:
  // Row i spans [csr_offsets_[i], csr_offsets_[i+1]) of the partner/count
  // arrays.
  std::vector<size_t> csr_offsets_;
  std::vector<PointIndex> csr_partners_;
  std::vector<LinkCount> csr_counts_;
};

/// Write-only accumulator for the reference link algorithms: absorbs an
/// unordered stream of symmetric Add()s in per-row hash maps, then Build()
/// sorts each row into a LinkMatrix.
class LinkMatrixBuilder {
 public:
  /// Starts an all-zero n×n matrix.
  explicit LinkMatrixBuilder(size_t n) : rows_(n) {}

  /// Adds `delta` to link(i, j) and symmetrically link(j, i). Diagonal
  /// adds (i == j) are ignored: a point has no links to itself, and the
  /// symmetric double-write would otherwise corrupt the cell with 2·delta.
  void Add(PointIndex i, PointIndex j, LinkCount delta) {
    if (i == j) return;
    rows_[i][j] += delta;
    rows_[j][i] += delta;
  }

  /// Lays the rows out as CSR, partners sorted ascending.
  /// O(Σ rowᵢ log rowᵢ).
  LinkMatrix Build() const;

 private:
  std::vector<std::unordered_map<PointIndex, LinkCount>> rows_;
};

/// Computes all pairwise link counts from the neighbor graph using the
/// pair-counting algorithm of paper Fig. 4. The O(Σ m_i²) pair updates hit
/// either the per-row hash maps of a LinkMatrixBuilder (sparse, scales to
/// any n) or — when the triangular count array fits in
/// `dense_budget_bytes` — a flat dense accumulator that is ~10× faster per
/// update and hands its non-zero cells to the builder at the end. Results
/// are identical.
struct ComputeLinksOptions {
  /// Dense accumulation is used when n(n−1)/2 · 4 bytes fits this budget.
  size_t dense_budget_bytes = 256ull << 20;
};

LinkMatrix ComputeLinks(const NeighborGraph& graph,
                        const ComputeLinksOptions& options = {});

/// Reference O(n² · m) implementation that intersects neighbor lists for
/// every pair. Used as a test oracle for ComputeLinks and the dense path.
LinkMatrix ComputeLinksBruteForce(const NeighborGraph& graph);

}  // namespace rock

#endif  // ROCK_GRAPH_LINKS_H_
