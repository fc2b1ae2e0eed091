#include "similarity/jaccard.h"

#include <algorithm>
#include <cmath>

#include "similarity/packed.h"

namespace rock {

double JaccardSimilarity(const Transaction& a, const Transaction& b) {
  const size_t uni = UnionSize(a, b);
  if (uni == 0) return 0.0;
  const size_t inter = a.size() + b.size() - uni;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

uint64_t NeighborThreshold(double theta, uint64_t t, uint64_t q) {
  const uint64_t lo = std::min(t, q);
  if (lo == 0) return 0;
  const auto passes = [&](uint64_t i) {
    return static_cast<double>(i) / static_cast<double>(t + q - i) >= theta;
  };
  // At i = min(t, q) the predicate is the length bound min/max >= θ; the
  // predicate only grows with i, so failing there means no i passes.
  if (!passes(lo)) return 0;
  // i/(t+q-i) >= θ  ⇔  i >= θ(t+q)/(1+θ): start from that closed form and
  // step to the exact least passing i under the same double predicate.
  const double guess = std::ceil(theta * static_cast<double>(t + q) /
                                 (1.0 + theta));
  uint64_t i = guess <= 1.0 ? 1
               : guess >= static_cast<double>(lo)
                   ? lo
                   : static_cast<uint64_t>(guess);
  if (passes(i)) {
    while (i > 1 && passes(i - 1)) --i;
  } else {
    while (!passes(i)) ++i;
  }
  return i;
}

NeighborThresholdTable::NeighborThresholdTable(double theta,
                                               uint64_t largest_size)
    : side_(static_cast<size_t>(std::min(largest_size, kMaxSize)) + 1),
      entries_(side_ * side_) {
  for (size_t t = 0; t < side_; ++t) {
    for (size_t q = t; q < side_; ++q) {
      const auto m = static_cast<uint16_t>(NeighborThreshold(theta, t, q));
      entries_[t * side_ + q] = m;
      entries_[q * side_ + t] = m;
    }
  }
}

std::unique_ptr<BatchSimilarity> TransactionJaccard::MakeBatch() const {
  return PackedJaccard::PackTransactions(dataset_);
}

CategoricalJaccard::CategoricalJaccard(const CategoricalDataset& dataset)
    : dataset_(dataset) {
  present_.reserve(dataset.size());
  for (const Record& r : dataset.records()) {
    present_.push_back(static_cast<uint32_t>(r.NumPresent()));
  }
}

double CategoricalJaccard::Similarity(size_t i, size_t j) const {
  const Record& r1 = dataset_.record(i);
  const Record& r2 = dataset_.record(j);
  size_t equal = 0;
  const size_t d = r1.size();
  for (size_t a = 0; a < d; ++a) {
    // A both-missing attribute would compare equal (kMissingValue on each
    // side), so the present check must come first.
    const ValueId v = r1.value(a);
    if (v != kMissingValue && v == r2.value(a)) ++equal;
  }
  const size_t uni = present_[i] + present_[j] - equal;
  if (uni == 0) return 0.0;
  return static_cast<double>(equal) / static_cast<double>(uni);
}

std::unique_ptr<BatchSimilarity> CategoricalJaccard::MakeBatch() const {
  return PackedJaccard::PackCategorical(dataset_);
}

double PairwiseMissingJaccard::Similarity(size_t i, size_t j) const {
  const Record& r1 = dataset_.record(i);
  const Record& r2 = dataset_.record(j);
  size_t both = 0;
  size_t equal = 0;
  const size_t d = r1.size();
  for (size_t a = 0; a < d; ++a) {
    if (r1.IsMissing(a) || r2.IsMissing(a)) continue;
    ++both;
    if (r1.value(a) == r2.value(a)) ++equal;
  }
  if (both == 0) return 0.0;
  // Each restricted transaction has `both` items; the union therefore has
  // 2·both − equal items.
  return static_cast<double>(equal) / static_cast<double>(2 * both - equal);
}

std::unique_ptr<BatchSimilarity> PairwiseMissingJaccard::MakeBatch() const {
  return PackedJaccard::PackPairwiseMissing(dataset_);
}

}  // namespace rock
