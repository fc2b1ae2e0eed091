// librock — similarity/jaccard.h
//
// Jaccard-coefficient similarities (paper §3.1.1–§3.1.2):
//   * transactions: sim(T1, T2) = |T1 ∩ T2| / |T1 ∪ T2|;
//   * categorical records via the A.v item view, missing values omitted;
//   * the pairwise-missing variant for time-series-style data, where only
//     attributes observed in *both* records participate.

#ifndef ROCK_SIMILARITY_JACCARD_H_
#define ROCK_SIMILARITY_JACCARD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "similarity/similarity.h"

namespace rock {

/// sim(T1, T2) = |T1 ∩ T2| / |T1 ∪ T2|; two empty transactions get 0.
double JaccardSimilarity(const Transaction& a, const Transaction& b);

/// Least intersection size i <= min(t, q) at which sets of sizes t and q
/// are θ-neighbors: the least i with `double(i) / double(t + q - i) >=
/// theta`, or 0 when none exists — exactly when the length bound
/// fl(min(t,q)/max(t,q)) < θ fires (or min(t,q) = 0). Requires θ > 0.
/// Sizes below 2^53 convert exactly, and IEEE division rounds
/// monotonically, so an intersection count c passes the Jaccard test iff
/// c >= NeighborThreshold(θ, t, q) > 0.
uint64_t NeighborThreshold(double theta, uint64_t t, uint64_t q);

/// NeighborThreshold(θ, t, q) for every 0 <= t, q <= max_size(), one 16-bit
/// entry per size pair, row-major. The side follows the largest set size
/// but stops at kMaxSize (a 512 KiB table), so callers must test a pair
/// with a larger size through NeighborThreshold or the double predicate.
class NeighborThresholdTable {
 public:
  static constexpr uint64_t kMaxSize = 511;

  /// Tabulates sizes 0 .. min(largest_size, kMaxSize). Requires θ > 0.
  NeighborThresholdTable(double theta, uint64_t largest_size);

  /// Largest tabulated size.
  uint64_t max_size() const { return side_ - 1; }
  /// Entries m(t, 0 .. max_size()); requires t <= max_size().
  const uint16_t* row(uint64_t t) const {
    return entries_.data() + t * side_;
  }

 private:
  size_t side_;
  std::vector<uint16_t> entries_;
};

/// Jaccard over a transaction dataset (market-basket data).
class TransactionJaccard final : public PointSimilarity {
 public:
  /// Binds to `dataset`, which must outlive this object.
  explicit TransactionJaccard(const TransactionDataset& dataset)
      : dataset_(dataset) {}

  size_t size() const override { return dataset_.size(); }
  double Similarity(size_t i, size_t j) const override {
    return JaccardSimilarity(dataset_.transaction(i),
                             dataset_.transaction(j));
  }

  /// Bit-packed batch kernel (similarity/packed.h); nullptr over budget.
  std::unique_ptr<BatchSimilarity> MakeBatch() const override;

 private:
  const TransactionDataset& dataset_;
};

/// Jaccard over categorical records through the static A.v item view
/// (§3.1.2): intersection counts attributes present-and-equal in both;
/// union counts every present (attribute, value) item of either record.
/// Missing values simply contribute no item.
class CategoricalJaccard final : public PointSimilarity {
 public:
  /// Binds to `dataset`, which must outlive this object and must already
  /// contain every record (per-record presence counts are taken here, once,
  /// instead of being recounted on all n²/2 pairs).
  explicit CategoricalJaccard(const CategoricalDataset& dataset);

  size_t size() const override { return dataset_.size(); }
  double Similarity(size_t i, size_t j) const override;

  /// Bit-packed batch kernel (similarity/packed.h); nullptr over budget.
  std::unique_ptr<BatchSimilarity> MakeBatch() const override;

 private:
  const CategoricalDataset& dataset_;
  std::vector<uint32_t> present_;  ///< NumPresent() per record
};

/// Pairwise-missing Jaccard (§3.1.2, time-series): for records r1, r2, form
/// each record's transaction only over attributes observed in *both*, then
/// take Jaccard. Two records identical on their common observed attributes
/// score 1 regardless of how much history either is missing.
class PairwiseMissingJaccard final : public PointSimilarity {
 public:
  /// Binds to `dataset`, which must outlive this object.
  explicit PairwiseMissingJaccard(const CategoricalDataset& dataset)
      : dataset_(dataset) {}

  size_t size() const override { return dataset_.size(); }
  double Similarity(size_t i, size_t j) const override;

  /// Bit-packed batch kernel (similarity/packed.h); nullptr over budget.
  std::unique_ptr<BatchSimilarity> MakeBatch() const override;

 private:
  const CategoricalDataset& dataset_;
};

}  // namespace rock

#endif  // ROCK_SIMILARITY_JACCARD_H_
