// librock — similarity/packed.h
//
// Bit-packed Jaccard kernels. Every row of a dataset becomes a plane of
// 64-bit words — one bit per item (transactions) or per (attribute, value)
// pair (categorical records) — so an intersection count is an AND + popcount
// sweep over `words_per_row` words instead of an element-wise scan. The
// sweep runs through a runtime-dispatched kernel (AVX2 nibble-LUT popcount
// when the CPU has it, std::popcount otherwise); both produce the same
// integer counts, so similarity values match the per-pair oracles in
// similarity/jaccard.h bit for bit.
//
// Packing is gated by a memory budget: the factories return nullptr instead
// of allocating an unreasonable plane (dense bitsets over a huge sparse
// universe), and callers fall back to the scalar path.

#ifndef ROCK_SIMILARITY_PACKED_H_
#define ROCK_SIMILARITY_PACKED_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "similarity/batch.h"

namespace rock {

/// Default cap on total packed-plane bytes (all rows, all planes).
inline constexpr size_t kDefaultPackedBytes = size_t{256} << 20;  // 256 MiB

/// |a ∩ b| over `words` 64-bit words. Runtime-dispatches to an AVX2 kernel
/// when available; exact (integer) either way. Exposed for tests/benches.
uint64_t IntersectPopcount(const uint64_t* a, const uint64_t* b, size_t words);

/// True iff the AVX2 intersection kernel is active on this machine.
bool PackedKernelUsesAvx2();

/// Bit-packed BatchSimilarity matching one of the three Jaccard oracles.
class PackedJaccard final : public BatchSimilarity {
 public:
  /// Packs a transaction dataset; values match TransactionJaccard bit for
  /// bit. Returns nullptr when the plane would exceed `max_bytes`.
  static std::unique_ptr<PackedJaccard> PackTransactions(
      const TransactionDataset& dataset, size_t max_bytes = kDefaultPackedBytes);

  /// Packs categorical records through the static A.v item view; values
  /// match CategoricalJaccard bit for bit. nullptr when over budget.
  static std::unique_ptr<PackedJaccard> PackCategorical(
      const CategoricalDataset& dataset, size_t max_bytes = kDefaultPackedBytes);

  /// Packs categorical records for pairwise-missing semantics (two planes:
  /// value items + presence); values match PairwiseMissingJaccard bit for
  /// bit. nullptr when over budget.
  static std::unique_ptr<PackedJaccard> PackPairwiseMissing(
      const CategoricalDataset& dataset, size_t max_bytes = kDefaultPackedBytes);

  size_t size() const override { return n_; }

  void SimilarityBatch(size_t i, const uint32_t* js, size_t count,
                       double* out) const override;

  /// Set sizes for the Jaccard length bound; null for pairwise-missing
  /// (records of very different sizes can still score 1 there).
  const std::vector<uint32_t>* prune_sizes() const override {
    return pairwise_missing_ ? nullptr : &sizes_;
  }

  /// Sorted per-row item ids (all kinds: sim == 0 without a shared item).
  const SparseItemView* items() const override { return &items_; }

  const uint64_t* item_plane() const override {
    return pairwise_missing_ ? nullptr : bits_.data();
  }
  size_t words_per_row() const override { return words_; }

 private:
  PackedJaccard() = default;

  /// Builds the plane + CSR view from per-row sorted item lists.
  static std::unique_ptr<PackedJaccard> FromRows(
      std::vector<std::vector<uint32_t>> rows, uint64_t universe,
      size_t max_bytes, size_t extra_bytes);

  bool pairwise_missing_ = false;
  size_t n_ = 0;
  size_t words_ = 0;       ///< item-plane words per row
  size_t pres_words_ = 0;  ///< presence-plane words per row (pairwise only)
  std::vector<uint64_t> bits_;      ///< n_ × words_ item plane
  std::vector<uint64_t> presence_;  ///< n_ × pres_words_ (pairwise only)
  std::vector<uint32_t> sizes_;     ///< |row| in items (item plane)
  SparseItemView items_;
};

}  // namespace rock

#endif  // ROCK_SIMILARITY_PACKED_H_
