// librock — core/criterion.h
//
// The criterion function of paper §3.3:
//
//   E_l = Σ_i  n_i · ( Σ_{p,q ∈ C_i} link(p, q) ) / n_i^{1+2f(θ)}
//
// The best clustering maximizes E_l. ROCK's merge rule (goodness, §4.2) is a
// greedy heuristic toward this target; we expose E_l so experiments and
// ablations can score clusterings directly.

#ifndef ROCK_CORE_CRITERION_H_
#define ROCK_CORE_CRITERION_H_

#include "core/cluster.h"
#include "core/goodness.h"
#include "graph/links.h"

namespace rock {

/// Sum of link(p, q) over unordered point pairs inside cluster `c`.
uint64_t IntraClusterLinks(const LinkMatrix& links,
                           const std::vector<PointIndex>& members);

/// Evaluates E_l for a clustering against point-level link counts.
/// Outlier points contribute nothing. When the matrix size matches the
/// assignment, the intra-cluster sums come from one pass over the CSR
/// rows through `clustering.assignment`, which must be the inverse of
/// `clustering.clusters` (as Clustering::FromAssignment and the merge
/// engines build it); otherwise each cluster is summed by
/// IntraClusterLinks. Both give the same value bit for bit.
double CriterionFunction(const Clustering& clustering, const LinkMatrix& links,
                         const GoodnessMeasure& goodness);

}  // namespace rock

#endif  // ROCK_CORE_CRITERION_H_
