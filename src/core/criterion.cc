#include "core/criterion.h"

#include <algorithm>

namespace rock {

uint64_t IntraClusterLinks(const LinkMatrix& links,
                           const std::vector<PointIndex>& members) {
  uint64_t total = 0;
  if (links.frozen()) {
    // Binary searches over the sorted CSR rows; keeps a FromCsr-built
    // matrix from materializing its hash rows just to sum a clustering.
    // Integer sums, so the value matches the hash path exactly.
    for (size_t a = 0; a + 1 < members.size(); ++a) {
      const LinkRowSpan row = links.FlatRow(members[a]);
      const PointIndex* lo = row.partners;
      const PointIndex* hi = row.partners + row.size;
      for (size_t b = a + 1; b < members.size(); ++b) {
        const PointIndex* it = std::lower_bound(lo, hi, members[b]);
        if (it != hi && *it == members[b]) {
          total += row.counts[static_cast<size_t>(it - row.partners)];
        }
      }
    }
    return total;
  }
  for (size_t a = 0; a + 1 < members.size(); ++a) {
    const auto& row = links.Row(members[a]);
    for (size_t b = a + 1; b < members.size(); ++b) {
      auto it = row.find(members[b]);
      if (it != row.end()) total += it->second;
    }
  }
  return total;
}

double CriterionFunction(const Clustering& clustering, const LinkMatrix& links,
                         const GoodnessMeasure& goodness) {
  const auto& clusters = clustering.clusters;
  const auto& assignment = clustering.assignment;
  // On a frozen matrix: one pass over the CSR upper triangles, summing each
  // intra-cluster pair into its cluster through the assignment — O(Σ row
  // sizes) instead of a binary search per member pair. Integer sums, so
  // each cluster's total equals IntraClusterLinks exactly.
  const bool one_pass = links.frozen() && assignment.size() == links.size();
  std::vector<uint64_t> intra(one_pass ? clusters.size() : 0, 0);
  if (one_pass) {
    for (size_t p = 0; p < links.size(); ++p) {
      const ClusterIndex c = assignment[p];
      if (c == kUnassigned || static_cast<size_t>(c) >= intra.size()) {
        continue;
      }
      const LinkRowSpan row = links.FlatRow(static_cast<PointIndex>(p));
      const PointIndex* end = row.partners + row.size;
      for (const PointIndex* it =
               std::upper_bound(row.partners, end, static_cast<PointIndex>(p));
           it != end; ++it) {
        if (assignment[*it] == c) {
          intra[static_cast<size_t>(c)] +=
              row.counts[static_cast<size_t>(it - row.partners)];
        }
      }
    }
  }
  double total = 0.0;
  for (size_t c = 0; c < clusters.size(); ++c) {
    const auto& members = clusters[c];
    if (members.empty()) continue;
    const double n = static_cast<double>(members.size());
    const double sum = static_cast<double>(
        one_pass ? intra[c] : IntraClusterLinks(links, members));
    total += n * sum / goodness.ExpectedIntraLinks(members.size());
  }
  return total;
}

}  // namespace rock
