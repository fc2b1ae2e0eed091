// librock — graph/link_engine.h
//
// Bit-plane link engine. The paper's Fig. 4 scatter pays one memory update
// per length-2 neighbor path — O(Σ mᵢ²) scalar increments. This engine
// instead packs every point's *neighbor row* N(p) into a plane of 64-bit
// words (one bit per point, the same plane layout as similarity/packed.h)
// and computes
//
//     link(p, q) = |N(p) ∩ N(q)| = popcount(row_p AND row_q)
//
// with the runtime-dispatched AVX2 nibble-LUT popcount kernel
// (similarity/packed.h IntersectPopcount).
//
// The plane is laid out in a locality order. Points are relabeled by a
// breadth-first order of the neighbor graph (components in ascending order
// of their smallest id, neighbors visited in ascending id), so a cluster's
// points take consecutive labels and each row's bits fall in a short run
// of words. Each row records that nonzero word span [lo, hi), and every
// sweep stays inside it:
//
//   * candidates for point p are enumerated as the bitwise OR of its
//     neighbors' rows, each over its own span — exactly the points sharing
//     at least one neighbor with p, i.e. exactly the pairs with link > 0,
//     so no popcount is ever wasted on a zero pair;
//   * each candidate pair is popcounted over [max(lo_p, lo_q),
//     min(hi_p, hi_q)) only;
//   * counts are collected by original id in a dense per-worker array and
//     emitted in ascending id by a first-touch bitmap sweep, so rows come
//     out sorted with no comparison sort.
//
// links.span_words reports Σ (hi − lo) over the rows: how much of the
// n·⌈n/64⌉-word plane the product actually touched.
//
// The plane still degrades quadratically: it is n·⌈n/64⌉ words whatever
// the counts, and when the graph has no cluster structure the spans stay
// wide and the OR-mask enumeration costs up to Σ mᵢ · ⌈n/64⌉ word reads.
// So the engine carries a second exact pass for scale:
//
//   * dense ScanCount scatter — per row p, walk each neighbor's adjacency
//     suffix beyond p and increment a dense per-worker count array, marking
//     first touches in a ⌈n/64⌉-word bitmap whose sweep then emits the
//     row's partners in ascending order. Total work is exactly Σᵢ C(mᵢ, 2)
//     increments (each witness i contributes its within-neighborhood pair
//     count) — the Fig. 4 op count with array writes instead of hash-map
//     updates, and O(n) scratch per worker instead of an O(n²/64) plane.
//
// kAuto picks the scatter exactly when its total increment count undercuts
// the plane's worst-case OR-mask word reads (Σᵢ C(mᵢ, 2) < Σᵢ mᵢ · ⌈n/64⌉,
// both sides exact and data-only), which in practice flips from plane to
// scatter once average degree falls below ~2·⌈n/64⌉. Both passes produce
// the same stream of upper rows in original ids.
//
// The BFS order, every row's candidate set and its counts depend only on
// the input graph, and the mirror/CSR assembly pass is serial and
// index-ordered, so the frozen CSR rows are byte-identical to
// LinkMatrix::Freeze() of the Fig. 4 hashed oracle at any thread count
// (enforced by tests/link_engine_test.cc).
//
// Packing is gated by a memory budget (kDefaultPackedBytes, shared with the
// neighbor engine): an n-point graph needs n·⌈n/64⌉ plane words, and when
// the plane is selected but exceeds the budget the engine falls back to
// the hashed scatter and says so via the links.fallback_hashed counter
// (the dense scatter needs no plane and ignores the budget).

#ifndef ROCK_GRAPH_LINK_ENGINE_H_
#define ROCK_GRAPH_LINK_ENGINE_H_

#include <cstddef>

#include "diag/metrics.h"
#include "graph/links.h"
#include "graph/neighbors.h"
#include "similarity/packed.h"

namespace rock {

/// Which counting pass ComputeLinksPacked runs. Both are exact and emit
/// byte-identical frozen rows; only speed and memory differ.
enum class PackedLinkStrategy {
  /// Cost-model choice between the two (see the header comment); the
  /// default outside tests and benches.
  kAuto,
  /// Bit-plane popcount sweep. Over the packing budget this degrades to
  /// the hashed Fig. 4 oracle (links.fallback_hashed), preserving the
  /// historical contract for callers that pinned the plane.
  kPlane,
  /// Dense ScanCount scatter; O(n) scratch per worker, no budget gate.
  kScatter,
};

/// Options for the packed link engine.
struct PackedLinkOptions {
  /// Worker threads for the per-row counting pass; 0 = hardware
  /// concurrency. Results are identical at any count.
  size_t num_threads = 1;

  /// Rows claimed per scheduling step by the parallel pass.
  size_t row_chunk = 16;

  /// Counting-pass selection; kAuto outside tests.
  PackedLinkStrategy strategy = PackedLinkStrategy::kAuto;

  /// Cap on total plane bytes (n · ⌈n/64⌉ words). Over budget the plane
  /// pass falls back to the hashed Fig. 4 scatter; the dense scatter pass
  /// is not affected.
  size_t pack_budget_bytes = kDefaultPackedBytes;

  /// Metrics sink (may be null): links.candidate_pairs (pairs sharing ≥ 1
  /// neighbor; candidate enumeration is exact on both passes, so this
  /// equals the stored non-zero pairs), links.pairs_counted (stored
  /// non-zero pairs), links.span_words (Σ of the plane rows' nonzero word
  /// spans after the BFS relabeling; plane pass only), links.scatter_pass
  /// (1 when the dense ScanCount pass ran), links.fallback_hashed (1 when
  /// the budget forced the hashed path) and the stage.links.pack timer.
  diag::MetricsRegistry* metrics = nullptr;
};

/// Computes all pairwise link counts with the bit-plane popcount engine.
/// Returns the matrix already frozen (CSR rows built directly, sorted
/// ascending); the hash rows materialize lazily on first Row()/Add().
/// Byte-identical frozen rows vs ComputeLinks(graph) + Freeze().
LinkMatrix ComputeLinksPacked(const NeighborGraph& graph,
                              const PackedLinkOptions& options = {});

}  // namespace rock

#endif  // ROCK_GRAPH_LINK_ENGINE_H_
