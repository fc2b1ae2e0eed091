#include "graph/link_engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/parallel.h"
#include "util/thread_pool.h"

namespace rock {
namespace {

/// Upper-triangular slice of one row: (partner q > p, link count) in
/// ascending partner order.
using UpperRow = std::vector<std::pair<PointIndex, LinkCount>>;

/// Budget miss: run the Fig. 4 hashed scatter (the oracle path) and freeze
/// it, so the caller still gets the frozen-CSR contract.
LinkMatrix FallbackHashed(const NeighborGraph& graph,
                          const PackedLinkOptions& options) {
  diag::AddCounter(options.metrics, "links.fallback_hashed", 1);
  LinkMatrix links =
      options.num_threads == 1
          ? ComputeLinks(graph)
          : ComputeLinksParallel(graph,
                                 {options.num_threads, options.row_chunk});
  links.Freeze();
  diag::AddCounter(options.metrics, "links.candidate_pairs", 0);
  diag::AddCounter(options.metrics, "links.pairs_counted",
                   links.NumNonZeroPairs());
  return links;
}

/// Serial mirror + CSR assembly shared by both counting passes. Row r
/// receives its mirrored partners p < r while the outer loop passes
/// p = 0..r−1 (ascending) and then its own upper partners q > r
/// (ascending), so every row comes out strictly ascending — the exact
/// layout LinkMatrix::Freeze() produces.
LinkMatrix AssembleFromUpper(size_t n, const std::vector<UpperRow>& upper) {
  std::vector<size_t> sizes(n, 0);
  for (size_t p = 0; p < n; ++p) {
    sizes[p] += upper[p].size();
    for (const auto& [q, c] : upper[p]) ++sizes[q];
  }
  std::vector<size_t> offsets(n + 1, 0);
  for (size_t p = 0; p < n; ++p) offsets[p + 1] = offsets[p] + sizes[p];
  std::vector<PointIndex> partners(offsets[n]);
  std::vector<LinkCount> counts(offsets[n]);
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t p = 0; p < n; ++p) {
    for (const auto& [q, c] : upper[p]) {
      partners[cursor[p]] = q;
      counts[cursor[p]] = c;
      ++cursor[p];
      partners[cursor[q]] = static_cast<PointIndex>(p);
      counts[cursor[q]] = c;
      ++cursor[q];
    }
  }
  return LinkMatrix::FromCsr(n, std::move(offsets), std::move(partners),
                             std::move(counts));
}

/// Sweeps a first-touch bitmap over original ids from word p/64 up,
/// appending (q, count[q]) for each touched q in ascending order — a
/// counting pass, so rows come out sorted without a sort — and leaves both
/// scratch arrays zeroed for the next row.
void EmitTouched(size_t p, std::vector<uint64_t>* touched,
                 std::vector<LinkCount>* count, UpperRow* out) {
  for (size_t w = p >> 6; w < touched->size(); ++w) {
    uint64_t bits = (*touched)[w];
    (*touched)[w] = 0;
    while (bits != 0) {
      const auto q = static_cast<PointIndex>(
          (w << 6) + static_cast<size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      out->emplace_back(q, (*count)[q]);
      (*count)[q] = 0;
    }
  }
}

/// Records the pair counters and assembles the CSR. Both counting passes
/// enumerate exactly the pairs sharing a neighbor, so every candidate is a
/// stored non-zero pair and the two counters agree; they differ only on the
/// hashed fallback.
LinkMatrix FinishUpper(const std::vector<UpperRow>& upper,
                       diag::MetricsRegistry* metrics) {
  uint64_t pairs = 0;
  for (const UpperRow& row : upper) pairs += row.size();
  diag::AddCounter(metrics, "links.candidate_pairs", pairs);
  diag::AddCounter(metrics, "links.pairs_counted", pairs);
  return AssembleFromUpper(upper.size(), upper);
}

/// Dense ScanCount pass: for each row p, every neighbor i's adjacency
/// suffix beyond p is scattered into a per-worker count array — count[q]
/// ends at |N(p) ∩ N(q)| because each shared neighbor contributes exactly
/// one increment — while a ⌈n/64⌉-word bitmap records first touches. The
/// bitmap sweep then emits the row's partners in ascending order and
/// resets both scratch structures. Row outputs depend only on the graph,
/// so any schedule produces the same upper rows.
LinkMatrix ScatterPass(const NeighborGraph& graph,
                       const PackedLinkOptions& options) {
  const size_t n = graph.size();
  const size_t words = (n + 63) / 64;
  diag::AddCounter(options.metrics, "links.scatter_pass", 1);
  std::vector<UpperRow> upper(n);
  std::atomic<size_t> next{0};
  const size_t chunk = std::max<size_t>(1, options.row_chunk);
  ParallelInvoke(options.num_threads, [&](size_t) {
    std::vector<LinkCount> count(n, 0);
    std::vector<uint64_t> touched(words, 0);
    while (true) {
      const size_t begin = next.fetch_add(chunk);
      if (begin >= n) break;
      const size_t end = std::min(begin + chunk, n);
      for (size_t p = begin; p < end; ++p) {
        const auto& nbrs = graph.nbrlist[p];
        if (nbrs.empty()) continue;
        const auto pi = static_cast<PointIndex>(p);
        for (const PointIndex i : nbrs) {
          const auto& ni = graph.nbrlist[i];
          // Partners q > p form a suffix of the ascending adjacency list.
          for (auto it = std::upper_bound(ni.begin(), ni.end(), pi);
               it != ni.end(); ++it) {
            const size_t q = *it;
            ++count[q];
            touched[q >> 6] |= uint64_t{1} << (q & 63);
          }
        }
        EmitTouched(p, &touched, &count, &upper[p]);
      }
    }
  });
  return FinishUpper(upper, options.metrics);
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

LinkMatrix ComputeLinksPacked(const NeighborGraph& graph,
                              const PackedLinkOptions& options) {
  const size_t n = graph.size();
  if (n < 2) {
    LinkMatrix links(n);
    links.Freeze();
    diag::AddCounter(options.metrics, "links.candidate_pairs", 0);
    diag::AddCounter(options.metrics, "links.pairs_counted", 0);
    return links;
  }
  const size_t words = (n + 63) / 64;

  PackedLinkStrategy strategy = options.strategy;
  if (strategy == PackedLinkStrategy::kAuto) {
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
    strategy = scatter_ops < degree_sum * words
                   ? PackedLinkStrategy::kScatter
                   : PackedLinkStrategy::kPlane;
  }
  if (strategy == PackedLinkStrategy::kScatter) {
    return ScatterPass(graph, options);
  }
  if (words > options.pack_budget_bytes / sizeof(uint64_t) / n) {
    return FallbackHashed(graph, options);
  }

  // Plane in BFS order: plane row r holds N(order[r]) as an n-bit set over
  // the BFS labels, so popcount(row_r AND row_s) = |N(order[r]) ∩
  // N(order[s])| = link(order[r], order[s]); relabeling permutes the bits
  // and changes no count. Each row also records its nonzero word span
  // [lo, hi) — every word outside it is zero, so no sweep over a row needs
  // to leave its span. Rows write disjoint plane segments, so packing
  // shards cleanly.
  std::vector<PointIndex> order;
  std::vector<uint32_t> lo(n, 0);
  std::vector<uint32_t> hi(n, 0);
  std::vector<uint64_t> plane;
  {
    diag::ScopedTimer pack_timer(options.metrics, "stage.links.pack");
    order = BfsOrder(graph);
    std::vector<PointIndex> rank(n);
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

  // Per-row pass over the upper triangle in original ids: plane row r
  // yields point p = order[r]'s partners q > p. Candidates are the set bits
  // of OR_{i ∈ N(p)} row_i, each neighbor row ORed over its own span only —
  // every such point shares the witness neighbor i with p, so its link
  // count is ≥ 1 and no popcount is wasted. Each kept pair is popcounted
  // over the overlap of the two rows' spans. Counts land in a dense
  // per-worker array indexed by original id, and a sweep of the matching
  // first-touch bitmap emits them in ascending id — a counting pass, so no
  // row is ever sorted. Each row's output depends only on the graph, so any
  // thread schedule produces the same upper rows.
  std::vector<UpperRow> upper(n);
  std::atomic<size_t> next{0};
  const size_t chunk = std::max<size_t>(1, options.row_chunk);
  ParallelInvoke(options.num_threads, [&](size_t) {
    std::vector<uint64_t> mask(words, 0);
    std::vector<LinkCount> count(n, 0);
    std::vector<uint64_t> touched(words, 0);
    while (true) {
      const size_t begin = next.fetch_add(chunk);
      if (begin >= n) break;
      const size_t end = std::min(begin + chunk, n);
      for (size_t r = begin; r < end; ++r) {
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
        EmitTouched(p, &touched, &count, &upper[p]);
      }
    }
  });
  plane.clear();
  plane.shrink_to_fit();
  return FinishUpper(upper, options.metrics);
}

}  // namespace rock
