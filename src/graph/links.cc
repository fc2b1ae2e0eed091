#include "graph/links.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace rock {

LinkMatrix LinkMatrix::FromCsr([[maybe_unused]] size_t n,
                               std::vector<size_t> offsets,
                               std::vector<PointIndex> partners,
                               std::vector<LinkCount> counts) {
  assert(offsets.size() == n + 1);
  assert(offsets.back() == partners.size());
  assert(partners.size() == counts.size());
  LinkMatrix m(0);
  m.csr_offsets_ = std::move(offsets);
  m.csr_partners_ = std::move(partners);
  m.csr_counts_ = std::move(counts);
  return m;
}

LinkCount LinkMatrix::Count(PointIndex i, PointIndex j) const {
  if (i == j) return 0;
  const LinkRowSpan row = FlatRow(i);
  const PointIndex* end = row.partners + row.size;
  const PointIndex* it = std::lower_bound(row.partners, end, j);
  if (it == end || *it != j) return 0;
  return row.counts[it - row.partners];
}

uint64_t LinkMatrix::TotalLinks() const {
  uint64_t total = 0;
  for (const LinkCount count : csr_counts_) total += count;
  return total / 2;
}

LinkMatrix LinkMatrixBuilder::Build() const {
  const size_t n = rows_.size();
  size_t total = 0;
  for (const auto& row : rows_) total += row.size();
  std::vector<size_t> offsets(n + 1, 0);
  std::vector<PointIndex> partners;
  partners.reserve(total);
  std::vector<LinkCount> counts;
  counts.reserve(total);
  std::vector<std::pair<PointIndex, LinkCount>> entries;
  for (size_t i = 0; i < n; ++i) {
    entries.assign(rows_[i].begin(), rows_[i].end());
    std::sort(entries.begin(), entries.end());
    for (const auto& [j, count] : entries) {
      partners.push_back(j);
      counts.push_back(count);
    }
    offsets[i + 1] = partners.size();
  }
  return LinkMatrix::FromCsr(n, std::move(offsets), std::move(partners),
                             std::move(counts));
}

namespace {

/// Fig. 4 with per-row hash maps — works at any scale.
LinkMatrix ComputeLinksSparse(const NeighborGraph& graph) {
  const size_t n = graph.size();
  LinkMatrixBuilder links(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& nbrs = graph.nbrlist[i];
    for (size_t j = 0; j + 1 < nbrs.size(); ++j) {
      for (size_t l = j + 1; l < nbrs.size(); ++l) {
        links.Add(nbrs[j], nbrs[l], 1);
      }
    }
  }
  return links.Build();
}

/// Fig. 4 with a flat upper-triangular count array. Neighbor lists are
/// sorted, so for a < b the cell index is a·n − a(a+1)/2 + (b − a − 1).
LinkMatrix ComputeLinksDenseAccumulate(const NeighborGraph& graph) {
  const size_t n = graph.size();
  LinkMatrixBuilder links(n);
  std::vector<LinkCount> tri(n * (n - 1) / 2, 0);
  // Cell (a, b), a < b, lives at offset(a) + b where offset(a) is computed
  // in modular size_t arithmetic (it is "base − a − 1", which underflows
  // for a = 0 but re-wraps correctly when b is added).
  auto row_offset = [n](size_t a) {
    return a * n - a * (a + 1) / 2 - a - 1;
  };
  for (size_t i = 0; i < n; ++i) {
    const auto& nbrs = graph.nbrlist[i];
    for (size_t j = 0; j + 1 < nbrs.size(); ++j) {
      // nbrs is sorted, so nbrs[j] < nbrs[l] for l > j.
      const size_t off = row_offset(nbrs[j]);
      for (size_t l = j + 1; l < nbrs.size(); ++l) {
        ++tri[off + nbrs[l]];
      }
    }
  }
  for (size_t a = 0; a + 1 < n; ++a) {
    const size_t off = row_offset(a);
    for (size_t b = a + 1; b < n; ++b) {
      if (tri[off + b] > 0) {
        links.Add(static_cast<PointIndex>(a), static_cast<PointIndex>(b),
                  tri[off + b]);
      }
    }
  }
  return links.Build();
}

}  // namespace

LinkMatrix ComputeLinks(const NeighborGraph& graph,
                        const ComputeLinksOptions& options) {
  const size_t n = graph.size();
  if (n >= 2 &&
      (n * (n - 1) / 2) * sizeof(LinkCount) <= options.dense_budget_bytes) {
    return ComputeLinksDenseAccumulate(graph);
  }
  return ComputeLinksSparse(graph);
}

LinkMatrix ComputeLinksBruteForce(const NeighborGraph& graph) {
  const size_t n = graph.size();
  LinkMatrixBuilder links(n);
  for (PointIndex i = 0; i < n; ++i) {
    for (PointIndex j = i + 1; j < n; ++j) {
      const auto& a = graph.nbrlist[i];
      const auto& b = graph.nbrlist[j];
      // Sorted-list intersection size = |N(i) ∩ N(j)| = link(i, j).
      size_t common = 0;
      auto ia = a.begin();
      auto ib = b.begin();
      while (ia != a.end() && ib != b.end()) {
        if (*ia < *ib) {
          ++ia;
        } else if (*ib < *ia) {
          ++ib;
        } else {
          ++common;
          ++ia;
          ++ib;
        }
      }
      if (common > 0) links.Add(i, j, static_cast<LinkCount>(common));
    }
  }
  return links.Build();
}

}  // namespace rock
