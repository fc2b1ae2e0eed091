#include "graph/link_engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace rock {
namespace {

/// Sweeps a first-touch bitmap over original ids from word p/64 up,
/// appending (q, count[q]) for each touched q in ascending order — a
/// counting pass, so rows come out sorted without a sort — and leaves both
/// scratch arrays zeroed for the next row. Returns the row's link total.
uint64_t EmitTouched(size_t p, std::vector<uint64_t>* touched,
                     std::vector<LinkCount>* count,
                     std::vector<UpperLink>* out) {
  uint64_t total = 0;
  for (size_t w = p >> 6; w < touched->size(); ++w) {
    uint64_t bits = (*touched)[w];
    (*touched)[w] = 0;
    while (bits != 0) {
      const auto q = static_cast<PointIndex>(
          (w << 6) + static_cast<size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      out->push_back(UpperLink{q, (*count)[q]});
      total += (*count)[q];
      (*count)[q] = 0;
    }
  }
  return total;
}

/// Row loop shared by both counting passes. Workers claim row_chunk
/// emission slots at a time; make_row_fn() builds one worker's
/// row_fn(slot, count, touched), which scatters the upper counts of the
/// point emitted at `slot` into the dense count array and its first-touch
/// bitmap and returns that point's id. Each chunk's rows go to a
/// worker-local buffer and are then copied once into the chunk's exactly
/// sized buffer, and the pair and link totals are summed in locals, so no
/// worker writes a shared slot per row. Every chunk's bytes depend only on
/// the graph, so any schedule produces the same buffer. The counters
/// record here: both passes enumerate exactly the pairs sharing a
/// neighbor, so every candidate is a stored non-zero pair.
template <typename MakeRowFn>
UpperLinks EmitRows(size_t n, const PackedLinkOptions& options,
                    std::vector<PointIndex> rank, MakeRowFn&& make_row_fn) {
  UpperLinks upper;
  upper.n = n;
  upper.row_chunk = std::max<size_t>(1, options.row_chunk);
  upper.rank = std::move(rank);
  upper.chunks.resize((n + upper.row_chunk - 1) / upper.row_chunk);
  const size_t words = (n + 63) / 64;
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> pairs{0};
  std::atomic<uint64_t> total{0};
  ParallelInvoke(options.num_threads, [&](size_t) {
    auto row_fn = make_row_fn();
    std::vector<LinkCount> count(n, 0);
    std::vector<uint64_t> touched(words, 0);
    std::vector<UpperLink> links;
    std::vector<uint32_t> ends;
    uint64_t local_total = 0;
    uint64_t local_pairs = 0;
    while (true) {
      const size_t c = next.fetch_add(1);
      if (c >= upper.chunks.size()) break;
      links.clear();
      ends.clear();
      const size_t end = std::min(n, (c + 1) * upper.row_chunk);
      for (size_t slot = c * upper.row_chunk; slot < end; ++slot) {
        const size_t p = row_fn(slot, count.data(), touched.data());
        local_total += EmitTouched(p, &touched, &count, &links);
        ends.push_back(static_cast<uint32_t>(links.size()));
      }
      local_pairs += links.size();
      upper.chunks[c].links.assign(links.begin(), links.end());
      upper.chunks[c].ends.assign(ends.begin(), ends.end());
    }
    pairs.fetch_add(local_pairs);
    total.fetch_add(local_total);
  });
  upper.pairs = pairs.load();
  upper.total = total.load();
  diag::AddCounter(options.metrics, "links.candidate_pairs", upper.pairs);
  diag::AddCounter(options.metrics, "links.pairs_counted", upper.pairs);
  return upper;
}

/// Dense ScanCount pass: for each row p, every neighbor i's adjacency
/// suffix beyond p is scattered into a per-worker count array — count[q]
/// ends at |N(p) ∩ N(q)| because each shared neighbor contributes exactly
/// one increment — while a ⌈n/64⌉-word bitmap records first touches. The
/// bitmap sweep then emits the row's partners in ascending order and
/// resets both scratch structures. Rows are emitted in id order.
UpperLinks ScatterPass(const NeighborGraph& graph,
                       const PackedLinkOptions& options) {
  diag::AddCounter(options.metrics, "links.scatter_pass", 1);
  return EmitRows(graph.size(), options, {}, [&graph] {
    return [&graph](size_t p, LinkCount* count, uint64_t* touched) {
      const auto pi = static_cast<PointIndex>(p);
      for (const PointIndex i : graph.nbrlist[p]) {
        const auto& ni = graph.nbrlist[i];
        // Partners q > p form a suffix of the ascending adjacency list.
        for (auto it = std::upper_bound(ni.begin(), ni.end(), pi);
             it != ni.end(); ++it) {
          const size_t q = *it;
          ++count[q];
          touched[q >> 6] |= uint64_t{1} << (q & 63);
        }
      }
      return p;
    };
  });
}

/// Breadth-first visiting order of the neighbor graph: components in
/// ascending order of their smallest id, each component's points as BFS
/// visits them from that id, neighbors in ascending id (adjacency lists are
/// sorted). θ-neighbors mostly share a cluster, so a point's neighbors land
/// in a few consecutive plane words. O(n + E), graph-only, deterministic.
std::vector<PointIndex> BfsOrder(const NeighborGraph& graph) {
  const size_t n = graph.size();
  std::vector<PointIndex> order;  // doubles as the BFS queue
  order.reserve(n);
  std::vector<uint8_t> seen(n, 0);
  for (size_t root = 0; root < n; ++root) {
    if (seen[root] != 0) continue;
    seen[root] = 1;
    order.push_back(static_cast<PointIndex>(root));
    for (size_t head = order.size() - 1; head < order.size(); ++head) {
      for (const PointIndex q : graph.nbrlist[order[head]]) {
        if (seen[q] == 0) {
          seen[q] = 1;
          order.push_back(q);
        }
      }
    }
  }
  return order;
}

}  // namespace

uint64_t UpperLinks::Bytes() const {
  uint64_t bytes = chunks.capacity() * sizeof(Chunk) +
                   rank.capacity() * sizeof(PointIndex);
  for (const Chunk& c : chunks) {
    bytes += c.ends.capacity() * sizeof(uint32_t) +
             c.links.capacity() * sizeof(UpperLink);
  }
  return bytes;
}

UpperLinks CountUpperLinks(const NeighborGraph& graph,
                           const PackedLinkOptions& options) {
  const size_t n = graph.size();
  if (n < 2) {
    UpperLinks upper;
    upper.n = n;
    upper.chunks.resize(n);
    for (auto& c : upper.chunks) c.ends.assign(1, 0);
    diag::AddCounter(options.metrics, "links.candidate_pairs", 0);
    diag::AddCounter(options.metrics, "links.pairs_counted", 0);
    return upper;
  }
  const size_t words = (n + 63) / 64;

  // Scatter iff its exact total increment count undercuts the plane's
  // OR-mask word reads alone — a certain win, and a data-only choice, so
  // the decision (and every links.* metric) is identical at any thread
  // count.
  uint64_t scatter_ops = 0;
  uint64_t degree_sum = 0;
  for (const auto& nbrs : graph.nbrlist) {
    const auto m = static_cast<uint64_t>(nbrs.size());
    scatter_ops += m * (m - (m > 0 ? 1 : 0)) / 2;
    degree_sum += m;
  }
  diag::AddCounter(options.metrics, "decision.links.scatter_ops",
                   scatter_ops);
  diag::AddCounter(options.metrics, "decision.links.plane_word_reads",
                   degree_sum * words);
  PackedLinkStrategy strategy = options.strategy;
  if (strategy == PackedLinkStrategy::kAuto) {
    strategy = scatter_ops < degree_sum * words
                   ? PackedLinkStrategy::kScatter
                   : PackedLinkStrategy::kPlane;
  }
  // The plane runs only when it fits the budget; otherwise the scatter,
  // which is exact, needs no plane and emits the same rows.
  const bool scatter =
      strategy == PackedLinkStrategy::kScatter ||
      words > options.pack_budget_bytes / sizeof(uint64_t) / n;
  diag::SetGauge(options.metrics, "decision.links.pass", scatter ? 1.0 : 0.0);
  if (scatter) return ScatterPass(graph, options);

  // Plane in BFS order: plane row r holds N(order[r]) as an n-bit set over
  // the BFS labels, so popcount(row_r AND row_s) = |N(order[r]) ∩
  // N(order[s])| = link(order[r], order[s]); relabeling permutes the bits
  // and changes no count. Each row also records its nonzero word span
  // [lo, hi) — every word outside it is zero, so no sweep over a row needs
  // to leave its span. Rows write disjoint plane segments, so packing
  // shards cleanly.
  std::vector<PointIndex> order;
  std::vector<PointIndex> rank(n);
  std::vector<uint32_t> lo(n, 0);
  std::vector<uint32_t> hi(n, 0);
  std::vector<uint64_t> plane;
  {
    diag::ScopedTimer pack_timer(options.metrics, "stage.links.pack");
    order = BfsOrder(graph);
    for (size_t r = 0; r < n; ++r) rank[order[r]] = static_cast<PointIndex>(r);
    plane.assign(n * words, 0);
    ParallelChunks(options.num_threads, n,
                   std::max<size_t>(1, options.row_chunk),
                   [&](size_t begin, size_t end) {
                     for (size_t r = begin; r < end; ++r) {
                       const auto& nbrs = graph.nbrlist[order[r]];
                       if (nbrs.empty()) continue;
                       uint64_t* row = plane.data() + r * words;
                       size_t first = words;
                       size_t last = 0;
                       for (const PointIndex q : nbrs) {
                         const size_t s = rank[q];
                         row[s >> 6] |= uint64_t{1} << (s & 63);
                         first = std::min(first, s >> 6);
                         last = std::max(last, s >> 6);
                       }
                       lo[r] = static_cast<uint32_t>(first);
                       hi[r] = static_cast<uint32_t>(last + 1);
                     }
                   });
    uint64_t span_words = 0;
    for (size_t r = 0; r < n; ++r) span_words += hi[r] - lo[r];
    diag::AddCounter(options.metrics, "links.span_words", span_words);
  }

  // Per-row pass over the upper triangle, emitted in plane-row order: plane
  // row r yields point p = order[r]'s partners q > p, in original ids.
  // Candidates are the set bits of OR_{i ∈ N(p)} row_i, each neighbor row
  // ORed over its own span only — every such point shares the witness
  // neighbor i with p, so its link count is ≥ 1 and no popcount is wasted.
  // Each kept pair is popcounted over the overlap of the two rows' spans.
  UpperLinks upper = EmitRows(n, options, std::move(rank), [&] {
    return [&, mask = std::vector<uint64_t>(words, 0)](
               size_t r, LinkCount* count, uint64_t* touched) mutable {
      // The neighbors are the set bits of row r itself, in BFS labels.
      const uint64_t* row_r = plane.data() + r * words;
      size_t mask_lo = words;
      size_t mask_hi = 0;
      for (size_t w = lo[r]; w < hi[r]; ++w) {
        for (uint64_t nbr_bits = row_r[w]; nbr_bits != 0;
             nbr_bits &= nbr_bits - 1) {
          const size_t i =
              (w << 6) + static_cast<size_t>(std::countr_zero(nbr_bits));
          const uint64_t* row_i = plane.data() + i * words;
          for (size_t x = lo[i]; x < hi[i]; ++x) mask[x] |= row_i[x];
          mask_lo = std::min<size_t>(mask_lo, lo[i]);
          mask_hi = std::max<size_t>(mask_hi, hi[i]);
        }
      }
      const size_t p = order[r];
      for (size_t w = mask_lo; w < mask_hi; ++w) {
        uint64_t bits = mask[w];
        mask[w] = 0;  // leave the scratch mask clean for the next row
        while (bits != 0) {
          const size_t s =
              (w << 6) + static_cast<size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          const size_t q = order[s];
          if (q <= p) continue;  // lower triangle: emitted by row rank(q)
          // A shared witness puts one common word in both spans, so the
          // overlap is non-empty on any symmetric graph.
          const size_t from = std::max(lo[r], lo[s]);
          const size_t to = std::max<size_t>(from, std::min(hi[r], hi[s]));
          count[q] = static_cast<LinkCount>(IntersectPopcount(
              row_r + from, plane.data() + s * words + from, to - from));
          touched[q >> 6] |= uint64_t{1} << (q & 63);
        }
      }
      return p;
    };
  });
  plane.clear();
  plane.shrink_to_fit();
  return upper;
}

LinkMatrix ComputeLinksPacked(const NeighborGraph& graph,
                              const PackedLinkOptions& options) {
  const UpperLinks upper = CountUpperLinks(graph, options);
  const size_t n = upper.size();
  std::vector<size_t> offsets(n + 1, 0);
  std::vector<PointIndex> partners;
  std::vector<LinkCount> counts;
  std::vector<size_t> cursor;
  MirrorUpperLinks(
      upper, options.num_threads,
      [&](const std::vector<uint32_t>& sizes) {
        for (size_t r = 0; r < n; ++r) offsets[r + 1] = offsets[r] + sizes[r];
        partners.resize(offsets[n]);
        counts.resize(offsets[n]);
        cursor.assign(offsets.begin(), offsets.end() - 1);
      },
      [&](size_t r, PointIndex q, LinkCount c) {
        const size_t k = cursor[r]++;
        partners[k] = q;
        counts[k] = c;
      });
  return LinkMatrix::FromCsr(n, std::move(offsets), std::move(partners),
                             std::move(counts));
}

}  // namespace rock
