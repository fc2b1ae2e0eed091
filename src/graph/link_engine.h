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
// Both passes emit one compact upper buffer (UpperLinks): rows are claimed
// row_chunk at a time and each chunk's rows land in one exactly sized
// buffer, so the buffer holds every pair once, with no per-row allocation
// and no growth slack. One mirror pass (MirrorUpperLinks) then writes full
// symmetric rows into a caller's sink: row r gets its lower partners
// p < r, in ascending p, then its own upper partners. The mirror is split
// by destination range — each worker owns a block of rows and copies into
// them the run of every source row that falls in the block — so it has no
// serial step and no two workers write one row. The BFS order, every
// row's candidate set and its counts depend only on the input graph, so
// the rows are byte-identical to the Fig. 4 reference (ComputeLinks) at
// any thread count (enforced by tests/link_engine_test.cc). There are two
// sinks: ComputeLinksPacked fills LinkMatrix CSR arrays, and the
// production merge engine (core/merge_parallel.cc) seeds its cluster rows,
// so the merge never builds a point-level CSR.
//
// The plane is gated by a memory budget (kDefaultPackedBytes, shared with
// the neighbor engine): an n-point graph needs n·⌈n/64⌉ plane words, which
// crosses the default 256 MiB at n ≈ 46.3k. When the plane does not fit,
// the engine runs the scatter pass instead, whatever the strategy; the
// scatter needs no plane, so the engine has no budget failure mode.

#ifndef ROCK_GRAPH_LINK_ENGINE_H_
#define ROCK_GRAPH_LINK_ENGINE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "diag/metrics.h"
#include "graph/links.h"
#include "graph/neighbors.h"
#include "similarity/packed.h"
#include "util/thread_pool.h"

namespace rock {

/// Which counting pass ComputeLinksPacked runs. Both are exact and emit
/// byte-identical rows; only speed and memory differ.
enum class PackedLinkStrategy {
  /// Cost-model choice between the two (see the header comment); the
  /// default outside tests and benches.
  kAuto,
  /// Bit-plane popcount sweep, when the plane fits pack_budget_bytes;
  /// over the budget the scatter pass runs instead.
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

  /// Cap on total plane bytes (n · ⌈n/64⌉ words). Over budget the scatter
  /// pass runs in place of the plane; the scatter itself has no budget.
  size_t pack_budget_bytes = kDefaultPackedBytes;

  /// Metrics sink (may be null): links.candidate_pairs (pairs sharing ≥ 1
  /// neighbor; candidate enumeration is exact on both passes, so this
  /// equals the stored non-zero pairs), links.pairs_counted (stored
  /// non-zero pairs), links.span_words (Σ of the plane rows' nonzero word
  /// spans after the BFS relabeling; plane pass only), links.scatter_pass
  /// (1 when the dense ScanCount pass ran, chosen or forced by the budget),
  /// the kAuto cost model's inputs decision.links.scatter_ops (Σᵢ C(mᵢ, 2))
  /// and decision.links.plane_word_reads (Σᵢ mᵢ · ⌈n/64⌉), the gauge
  /// decision.links.pass (the pass that ran: 0 plane, 1 scatter) and the
  /// stage.links.pack timer.
  diag::MetricsRegistry* metrics = nullptr;
};

/// One entry of an upper link row: a partner q > p and link(p, q).
struct UpperLink {
  PointIndex partner;
  LinkCount count;
};

/// The upper triangle of the link matrix, as the counting pass emits it:
/// row p holds its partners q > p in ascending order. Rows are stored in
/// emission order, row_chunk rows per chunk, and each chunk is one exactly
/// sized buffer with the rows' end offsets beside it.
struct UpperLinks {
  struct Chunk {
    std::vector<uint32_t> ends;  // row i of the chunk ends at ends[i]
    std::vector<UpperLink> links;
  };

  size_t n = 0;
  size_t row_chunk = 1;
  /// rank[p] is the emission slot of row p; empty when rows were emitted
  /// in id order (the scatter pass).
  std::vector<PointIndex> rank;
  std::vector<Chunk> chunks;
  uint64_t pairs = 0;  // Σ row sizes: the non-zero unordered pairs
  uint64_t total = 0;  // Σ link counts over those pairs

  size_t size() const { return n; }

  /// Row p's upper partners, ascending.
  std::span<const UpperLink> Row(size_t p) const {
    const size_t slot = rank.empty() ? p : rank[p];
    const Chunk& c = chunks[slot / row_chunk];
    const size_t i = slot % row_chunk;
    const uint32_t begin = i == 0 ? 0 : c.ends[i - 1];
    return {c.links.data() + begin, c.links.data() + c.ends[i]};
  }

  /// Heap bytes of the buffer (mem.links.upper_bytes).
  uint64_t Bytes() const;
};

/// The counting pass alone: every non-zero pair once, with its link count.
/// Records the metrics listed on PackedLinkOptions::metrics.
UpperLinks CountUpperLinks(const NeighborGraph& graph,
                           const PackedLinkOptions& options = {});

/// The entries of an upper row whose partner falls in [a, b).
inline std::span<const UpperLink> PartnersIn(std::span<const UpperLink> row,
                                             size_t a, size_t b) {
  const auto below = [](const UpperLink& e, size_t v) {
    return e.partner < v;
  };
  const UpperLink* first = row.data();
  const UpperLink* last = first + row.size();
  if (first != last && first->partner < a) {
    first = std::lower_bound(first, last, a, below);
  }
  if (first != last && (last - 1)->partner >= b) {
    last = std::lower_bound(first, last, b, below);
  }
  return {first, last};
}

/// Mirrors the upper triangle into full symmetric rows. Calls
/// layout(sizes) once, serially, with every full row's size; then
/// put(r, partner, count) for each entry of row r in strictly ascending
/// partner order — the lower partners p < r first, then upper(r). Rows are
/// split into one contiguous block per worker, balanced by entry count,
/// and all puts of a row come from the worker that owns its block, so a
/// sink needs no locks; each worker reads every source row below its
/// block's end and copies the run that falls inside it. The puts each row
/// receives are the same at any thread count.
template <typename Layout, typename Put>
void MirrorUpperLinks(const UpperLinks& upper, size_t num_threads,
                      Layout&& layout, Put&& put) {
  const size_t n = upper.size();
  const size_t workers =
      std::max<size_t>(1, std::min(ResolveThreads(num_threads), n));
  std::vector<uint32_t> sizes(n, 0);
  ParallelInvoke(workers, [&](size_t w) {
    const size_t a = n * w / workers;
    const size_t b = n * (w + 1) / workers;
    std::vector<uint32_t> lower(b - a, 0);  // counted locally, stored once
    for (size_t p = 0; p < b; ++p) {
      for (const UpperLink& e : PartnersIn(upper.Row(p), a, b)) {
        ++lower[e.partner - a];
      }
    }
    for (size_t r = a; r < b; ++r) {
      sizes[r] = lower[r - a] + static_cast<uint32_t>(upper.Row(r).size());
    }
  });
  layout(sizes);
  std::vector<size_t> bound(workers + 1, n);  // block w is [bound[w], bound[w+1])
  bound[0] = 0;
  uint64_t seen = 0;
  for (size_t r = 0, w = 1; r < n && w < workers; ++r) {
    seen += sizes[r];
    while (w < workers && seen * workers >= 2 * upper.pairs * w) {
      bound[w++] = r + 1;
    }
  }
  ParallelInvoke(workers, [&](size_t w) {
    const size_t a = bound[w];
    const size_t b = bound[w + 1];
    for (size_t p = 0; p < b; ++p) {
      const std::span<const UpperLink> row = upper.Row(p);
      // Row p's lower partners all came from sources below p, so its own
      // upper partners go after them.
      if (p >= a) {
        for (const UpperLink& e : row) put(p, e.partner, e.count);
      }
      for (const UpperLink& e : PartnersIn(row, a, b)) {
        put(e.partner, static_cast<PointIndex>(p), e.count);
      }
    }
  });
}

/// Computes all pairwise link counts with the packed engine: the counting
/// pass, then the mirror into CSR arrays (sorted ascending). Byte-identical
/// rows vs ComputeLinks(graph).
LinkMatrix ComputeLinksPacked(const NeighborGraph& graph,
                              const PackedLinkOptions& options = {});

}  // namespace rock

#endif  // ROCK_GRAPH_LINK_ENGINE_H_
