// librock — similarity/batch.h
//
// Batched similarity evaluation. PointSimilarity's one-pair-per-virtual-call
// contract is what dominates neighbor-graph construction (n²/2 calls, paper
// §4.5); BatchSimilarity amortizes the dispatch to one call per row block
// and optionally exposes the two structural facts the θ-pruned neighbor
// engine (graph/neighbor_engine.h) exploits:
//
//   * per-row set sizes for the exact Jaccard length bound
//     fl(min(sᵢ,sⱼ)/max(sᵢ,sⱼ)) < θ  ⟹  fl(sim(i,j)) < θ, and
//   * a sparse item view for inverted-index candidate generation
//     (sim(i,j) > 0 only when rows i and j share an item), and
//   * for set-Jaccard, the packed item plane itself, so an exact sweep can
//     compare an AND-popcount count against an integer threshold
//     (NeighborThreshold in similarity/jaccard.h) instead of dividing.
//
// Both prunes are exact — monotone IEEE rounding means the double-valued
// bound can never discard a pair the double-valued similarity would keep —
// so engines built on this interface reproduce the per-pair oracle bit for
// bit.

#ifndef ROCK_SIMILARITY_BATCH_H_
#define ROCK_SIMILARITY_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rock {

/// Sorted item ids of every row in CSR form. Item ids are dense in
/// [0, universe); row r's items are items[row_offsets[r] … row_offsets[r+1])
/// in strictly ascending order.
struct SparseItemView {
  std::vector<uint64_t> row_offsets;  ///< size n + 1
  std::vector<uint32_t> items;        ///< concatenated sorted item ids
  uint32_t universe = 0;              ///< every item id is < universe

  size_t size() const {
    return row_offsets.empty() ? 0 : row_offsets.size() - 1;
  }
};

/// Block-filling similarity: semantically identical to a PointSimilarity
/// (same values, bit for bit), but evaluated a row block per call so the
/// per-pair virtual dispatch disappears from the hot loop.
class BatchSimilarity {
 public:
  virtual ~BatchSimilarity() = default;

  /// Number of points n in the indexed set.
  virtual size_t size() const = 0;

  /// out[t] = sim(i, js[t]) for t < count. Values must equal the per-pair
  /// PointSimilarity bit for bit. js entries must be < size(); they need
  /// not be sorted or distinct.
  virtual void SimilarityBatch(size_t i, const uint32_t* js, size_t count,
                               double* out) const = 0;

  /// Jaccard length-bound sizes, or nullptr when the similarity admits no
  /// such bound (e.g. pairwise-missing semantics, where records of very
  /// different sizes can still score 1). When non-null (size n), the
  /// similarity is exactly set-Jaccard over items():
  ///     sim(i, j) = |i ∩ j| / (s_i + s_j − |i ∩ j|)
  /// computed in double, so engines may derive it from an intersection
  /// count, and fl(min(s_i,s_j)/max(s_i,s_j)) < θ implies fl(sim) < θ.
  virtual const std::vector<uint32_t>* prune_sizes() const { return nullptr; }

  /// Row-major bit plane of items() (bit k of word w of row r is set iff
  /// item 64w + k is in row r), words_per_row() words per row. Valid
  /// whenever prune_sizes() is non-null, so set-Jaccard engines can count
  /// intersections with an AND + popcount; nullptr otherwise (and may be
  /// null for n = 0 or an empty universe).
  virtual const uint64_t* item_plane() const { return nullptr; }
  virtual size_t words_per_row() const { return 0; }

  /// Sparse item view for inverted-index candidate generation, or nullptr.
  /// Contract when non-null: sim(i, j) == 0 whenever rows i and j share no
  /// item, so for θ > 0 the candidate pass loses no neighbor.
  virtual const SparseItemView* items() const { return nullptr; }
};

}  // namespace rock

#endif  // ROCK_SIMILARITY_BATCH_H_
