#include "graph/neighbor_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "diag/metrics.h"
#include "graph/parallel.h"
#include "similarity/batch.h"
#include "similarity/jaccard.h"
#include "similarity/packed.h"
#include "util/thread_pool.h"

namespace rock {
namespace {

// kAuto's cost model in nanoseconds, fitted on a 4-core x86-64 host at one
// thread (DESIGN.md §7 has the timings): the dense sweep costs
// pairs × (kDenseNsPerPair + kDenseNsPerWord · words per row), ScanCount
// Σ_item C(df, 2) × kScanNsPerIncrement.
constexpr double kDenseNsPerPair = 1.7;
constexpr double kDenseNsPerWord = 0.5;
constexpr double kScanNsPerIncrement = 8.0;

// Upper bound on sim(i, j) from the two set sizes alone. Exact under IEEE
// round-to-nearest: inter ≤ s_min and uni ≥ s_max give inter/uni ≤
// s_min/s_max as rationals, and fl() is monotone, so fl(sim) ≤ fl(bound) —
// a pair with fl(bound) < θ can never satisfy fl(sim) ≥ θ. Two empty sets
// score 0 in every oracle, hence the s_max == 0 special case (which also
// keeps 0/0 NaN out of the comparison).
double SizeBound(uint64_t s_min, uint64_t s_max) {
  if (s_max == 0) return 0.0;
  return static_cast<double>(s_min) / static_cast<double>(s_max);
}

uint64_t TotalPairs(size_t n) {
  if (n < 2) return 0;
  return static_cast<uint64_t>(n) * static_cast<uint64_t>(n - 1) / 2;
}

// The kept partners j > i of every row, in id order: chunk c holds the
// partners of rows [c·row_chunk, (c+1)·row_chunk), row after row, each
// row's ascending; count[i] says how many belong to row i.
struct UpperRows {
  std::vector<uint32_t> count;
  std::vector<std::vector<PointIndex>> chunks;
  uint64_t evaluated = 0;
};

// Row loop shared by every pass: workers claim row_chunk rows at a time
// and row_fn(worker, i, out) appends row i's kept partners j > i to out in
// ascending order, returning the pairs it evaluated. Each chunk owns its
// buffer, so the buffers — and the graph AssembleRows builds from them —
// are the same at any thread count.
template <typename RowFn>
UpperRows SweepRows(size_t n, const PackedNeighborOptions& options,
                    size_t workers, RowFn&& row_fn) {
  const size_t chunk = std::max<size_t>(1, options.row_chunk);
  UpperRows upper;
  upper.count.assign(n, 0);
  upper.chunks.resize((n + chunk - 1) / chunk);
  std::vector<uint64_t> evaluated(workers, 0);
  std::atomic<size_t> next{0};
  ParallelInvoke(workers, [&](size_t worker) {
    while (true) {
      const size_t c = next.fetch_add(1);
      if (c >= upper.chunks.size()) break;
      std::vector<PointIndex>& out = upper.chunks[c];
      const size_t end = std::min(n, (c + 1) * chunk);
      for (size_t i = c * chunk; i < end; ++i) {
        const size_t before = out.size();
        evaluated[worker] += row_fn(worker, i, &out);
        upper.count[i] = static_cast<uint32_t>(out.size() - before);
      }
    }
  });
  for (const uint64_t e : evaluated) upper.evaluated += e;
  return upper;
}

// Adjacency rows from the upper triangle, with no sort. Row i holds its
// lower partners (the rows h < i with i in upper(h), ascending) followed
// by upper(i). The chunks are cut into one contiguous source block per
// worker, balanced by edge count; each block counts how many lower
// partners it gives every row, and a prefix over the blocks turns the
// counts into disjoint, ordered write positions. Every row is then sized
// exactly and filled in parallel, and the graph is the same at any
// thread count.
NeighborGraph AssembleRows(size_t n, const PackedNeighborOptions& options,
                           size_t workers, const UpperRows& upper) {
  const size_t chunk = std::max<size_t>(1, options.row_chunk);
  const size_t chunks = upper.chunks.size();
  uint64_t edges = 0;
  for (const auto& buffer : upper.chunks) edges += buffer.size();
  std::vector<size_t> bound(workers + 1, chunks);  // block → first chunk
  bound[0] = 0;
  uint64_t seen = 0;
  for (size_t c = 0, w = 1; c < chunks && w < workers; ++c) {
    seen += upper.chunks[c].size();
    while (w < workers && seen * workers >= edges * w) bound[w++] = c + 1;
  }
  // slot[w][j]: lower partners block w gives row j, then its write cursor.
  std::vector<std::vector<uint32_t>> slot(workers);
  ParallelInvoke(workers, [&](size_t w) {
    slot[w].assign(n, 0);
    for (size_t c = bound[w]; c < bound[w + 1]; ++c) {
      for (const PointIndex j : upper.chunks[c]) ++slot[w][j];
    }
  });
  NeighborGraph graph;
  graph.nbrlist.resize(n);
  ParallelInvoke(workers, [&](size_t w) {
    for (size_t j = n * w / workers; j < n * (w + 1) / workers; ++j) {
      uint32_t lower = 0;
      for (auto& s : slot) {
        const uint32_t k = s[j];
        s[j] = lower;
        lower += k;
      }
      graph.nbrlist[j].resize(lower + upper.count[j]);
    }
  });
  ParallelInvoke(workers, [&](size_t w) {
    std::vector<uint32_t>& cursor = slot[w];
    for (size_t c = bound[w]; c < bound[w + 1]; ++c) {
      const PointIndex* p = upper.chunks[c].data();
      for (size_t i = c * chunk; i < std::min(n, (c + 1) * chunk); ++i) {
        const uint32_t count = upper.count[i];
        std::vector<PointIndex>& row = graph.nbrlist[i];
        std::copy(p, p + count, row.end() - count);
        for (const PointIndex* e = p + count; p != e; ++p) {
          graph.nbrlist[*p][cursor[*p]++] = static_cast<PointIndex>(i);
        }
      }
    }
  });
  return graph;
}

// One run of a row of the dense set-Jaccard sweep: for every j in
// [begin, end), j is kept iff m = mrow[col[j]] > 0 and
// popcount(row_i AND row_j) >= m. Branch-free: every j is written to out
// and the cursor advances only for kept ones. kWords = 1..4 unrolls the
// AND-popcount; kWords = 0 loops over `words`.
template <size_t kWords>
[[gnu::always_inline]] inline size_t DenseRunBody(
    const uint64_t* plane, size_t words, const uint16_t* col,
    const uint16_t* mrow, size_t i, size_t begin, size_t end,
    PointIndex* out, uint64_t* evaluated) {
  const size_t stride = kWords == 0 ? words : kWords;
  const uint64_t* row_i = plane + i * stride;
  uint64_t a[kWords == 0 ? 1 : kWords];
  for (size_t k = 0; k < kWords; ++k) a[k] = row_i[k];
  size_t kept = 0;
  uint64_t eval = 0;
  const uint64_t* row_j = plane + begin * stride;
  for (size_t j = begin; j < end; ++j, row_j += stride) {
    uint64_t c = 0;
    if constexpr (kWords == 0) {
      for (size_t k = 0; k < stride; ++k) {
        c += static_cast<uint64_t>(__builtin_popcountll(row_i[k] & row_j[k]));
      }
    } else {
      for (size_t k = 0; k < kWords; ++k) {
        c += static_cast<uint64_t>(__builtin_popcountll(a[k] & row_j[k]));
      }
    }
    const uint64_t m = mrow[col[j]];
    out[kept] = static_cast<PointIndex>(j);
    kept += static_cast<size_t>((m != 0) & (c >= m));
    eval += static_cast<uint64_t>(m != 0);
  }
  *evaluated += eval;
  return kept;
}

using DenseRunFn = size_t (*)(const uint64_t*, size_t, const uint16_t*,
                              const uint16_t*, size_t, size_t, size_t,
                              PointIndex*, uint64_t*);

template <size_t kWords>
size_t DenseRunPortable(const uint64_t* plane, size_t words,
                        const uint16_t* col, const uint16_t* mrow, size_t i,
                        size_t begin, size_t end, PointIndex* out,
                        uint64_t* evaluated) {
  return DenseRunBody<kWords>(plane, words, col, mrow, i, begin, end, out,
                              evaluated);
}

#if defined(__x86_64__) || defined(__i386__)
// The same body with the popcnt instruction; without it every popcount is
// a library call.
template <size_t kWords>
__attribute__((target("popcnt"))) size_t DenseRunPopcnt(
    const uint64_t* plane, size_t words, const uint16_t* col,
    const uint16_t* mrow, size_t i, size_t begin, size_t end,
    PointIndex* out, uint64_t* evaluated) {
  return DenseRunBody<kWords>(plane, words, col, mrow, i, begin, end, out,
                              evaluated);
}
#endif

// Index w ≤ 4 serves rows of exactly w words; index 0 serves every width.
struct DenseKernels {
  DenseRunFn by_words[5];
};

DenseKernels ResolveDenseKernels() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("popcnt")) {
    return {{&DenseRunPopcnt<0>, &DenseRunPopcnt<1>, &DenseRunPopcnt<2>,
             &DenseRunPopcnt<3>, &DenseRunPopcnt<4>}};
  }
#endif
  return {{&DenseRunPortable<0>, &DenseRunPortable<1>, &DenseRunPortable<2>,
           &DenseRunPortable<3>, &DenseRunPortable<4>}};
}

const DenseKernels g_dense_kernels = ResolveDenseKernels();

// Exact set-Jaccard sweep in id order (θ > 0, prune_sizes() non-null): a
// pair is kept iff its AND-popcount count reaches m(|i|, |j|) from the
// NeighborThresholdTable, which is the oracle's double test exactly (see
// NeighborThreshold). Pairs with m > 0 are the ones the length bound lets
// through, so they are what pairs_evaluated counts. The kernel runs over
// the tabulated rows; a pair with a size past the table takes the length
// bound and the double predicate directly, in its place in id order.
UpperRows DensePass(const BatchSimilarity& batch, double theta,
                    const PackedNeighborOptions& options, size_t workers) {
  const size_t n = batch.size();
  const std::vector<uint32_t>& sizes = *batch.prune_sizes();
  const uint64_t* plane = batch.item_plane();
  const size_t words = batch.words_per_row();
  const uint32_t largest =
      n == 0 ? 0 : *std::max_element(sizes.begin(), sizes.end());
  const NeighborThresholdTable table(theta, largest);
  const uint64_t max_size = table.max_size();
  std::vector<uint16_t> col(n);
  std::vector<PointIndex> big;  // rows past the table, ascending
  for (size_t j = 0; j < n; ++j) {
    if (sizes[j] <= max_size) {
      col[j] = static_cast<uint16_t>(sizes[j]);
    } else {
      big.push_back(static_cast<PointIndex>(j));
    }
  }
  const DenseRunFn kernel = g_dense_kernels.by_words[words <= 4 ? words : 0];
  std::vector<std::vector<PointIndex>> scratch(workers);
  return SweepRows(
      n, options, workers,
      [&](size_t worker, size_t i, std::vector<PointIndex>* out) {
        uint64_t evaluated = 0;
        const auto test_exact = [&](size_t j) {
          const uint64_t si = sizes[i];
          const uint64_t sj = sizes[j];
          if (SizeBound(std::min(si, sj), std::max(si, sj)) < theta) return;
          ++evaluated;
          const uint64_t c =
              IntersectPopcount(plane + i * words, plane + j * words, words);
          if (static_cast<double>(c) / static_cast<double>(si + sj - c) >=
              theta) {
            out->push_back(static_cast<PointIndex>(j));
          }
        };
        if (sizes[i] > max_size) {
          for (size_t j = i + 1; j < n; ++j) test_exact(j);
          return evaluated;
        }
        std::vector<PointIndex>& buf = scratch[worker];
        if (buf.size() < n) buf.resize(n);
        const uint16_t* mrow = table.row(sizes[i]);
        size_t begin = i + 1;
        for (auto it = std::upper_bound(big.begin(), big.end(), i);; ++it) {
          const size_t end = it == big.end() ? n : *it;
          const size_t kept = kernel(plane, words, col.data(), mrow, i, begin,
                                     end, buf.data(), &evaluated);
          out->insert(out->end(), buf.data(), buf.data() + kept);
          if (it == big.end()) return evaluated;
          test_exact(end);
          begin = end + 1;
        }
      });
}

// Every pair through the batch kernel, in id order. Serves θ = 0 (the
// complete graph: nothing shares an item with an empty row, yet
// everything neighbors it) and batches with no length bound
// (pairwise-missing semantics).
UpperRows FullPass(const BatchSimilarity& batch, double theta,
                   const PackedNeighborOptions& options, size_t workers) {
  const size_t n = batch.size();
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), uint32_t{0});
  std::vector<std::vector<double>> vals(workers);
  return SweepRows(
      n, options, workers,
      [&](size_t worker, size_t i, std::vector<PointIndex>* out) {
        const size_t count = n - i - 1;
        std::vector<double>& v = vals[worker];
        v.resize(count);
        if (count > 0) {
          batch.SimilarityBatch(i, ids.data() + i + 1, count, v.data());
        }
        for (size_t t = 0; t < count; ++t) {
          if (v[t] >= theta) out->push_back(static_cast<PointIndex>(i + 1 + t));
        }
        return static_cast<uint64_t>(count);
      });
}

// Inverted-index ScanCount pass: per-item postings (rows ascending)
// enumerate exactly the pairs sharing an item — for θ > 0 every other pair
// has sim == 0 (batch.h items() contract) and is pruned without being
// touched. Under the set-Jaccard contract the intersection count already
// determines the exact similarity; otherwise survivors are batch-evaluated.
// Kept partners are sorted per row, since postings visit them out of order.
UpperRows CandidatePass(const BatchSimilarity& batch, double theta,
                        const PackedNeighborOptions& options,
                        size_t workers) {
  const size_t n = batch.size();
  const SparseItemView& view = *batch.items();
  const std::vector<uint32_t>* sizes = batch.prune_sizes();

  // Postings CSR; filling rows in ascending order keeps each list sorted.
  const size_t universe = view.universe;
  std::vector<uint64_t> post_off(universe + 1, 0);
  for (const uint32_t item : view.items) ++post_off[item + 1];
  for (size_t v = 0; v < universe; ++v) post_off[v + 1] += post_off[v];
  std::vector<uint32_t> post(view.items.size());
  std::vector<uint64_t> cursor(post_off.begin(), post_off.end() - 1);
  for (size_t r = 0; r < n; ++r) {
    for (uint64_t k = view.row_offsets[r]; k < view.row_offsets[r + 1]; ++k) {
      const uint32_t item = view.items[static_cast<size_t>(k)];
      post[static_cast<size_t>(cursor[item]++)] = static_cast<uint32_t>(r);
    }
  }

  struct Scratch {
    std::vector<uint32_t> count;
    std::vector<uint32_t> touched;
    std::vector<double> vals;
  };
  std::vector<Scratch> scratch(workers);
  return SweepRows(
      n, options, workers,
      [&](size_t worker, size_t r, std::vector<PointIndex>* out) {
        Scratch& s = scratch[worker];
        if (s.count.empty()) s.count.assign(n, 0);
        const auto i = static_cast<PointIndex>(r);
        const size_t begin = out->size();
        uint64_t evaluated = 0;
        s.touched.clear();
        for (uint64_t k = view.row_offsets[r]; k < view.row_offsets[r + 1];
             ++k) {
          const uint32_t item = view.items[static_cast<size_t>(k)];
          const uint32_t* plo = post.data() + post_off[item];
          const uint32_t* phi = post.data() + post_off[item + 1];
          // Rows > r form a suffix of the ascending posting list.
          for (const uint32_t* it = std::upper_bound(plo, phi, i); it != phi;
               ++it) {
            if (s.count[*it]++ == 0) s.touched.push_back(*it);
          }
        }
        if (sizes != nullptr) {
          const uint64_t si = (*sizes)[r];
          for (const uint32_t j : s.touched) {
            const uint64_t inter = s.count[j];
            s.count[j] = 0;
            const uint64_t sj = (*sizes)[j];
            if (SizeBound(std::min(si, sj), std::max(si, sj)) < theta) {
              continue;
            }
            ++evaluated;
            // Set-Jaccard contract (batch.h): this is the exact double the
            // per-pair oracle computes. uni ≥ 1 because an item is shared.
            const uint64_t uni = si + sj - inter;
            const double sim =
                static_cast<double>(inter) / static_cast<double>(uni);
            if (sim >= theta) out->push_back(j);
          }
        } else {
          s.vals.resize(s.touched.size());
          if (!s.touched.empty()) {
            batch.SimilarityBatch(r, s.touched.data(), s.touched.size(),
                                  s.vals.data());
          }
          evaluated += s.touched.size();
          for (size_t t = 0; t < s.touched.size(); ++t) {
            s.count[s.touched[t]] = 0;
            if (s.vals[t] >= theta) out->push_back(s.touched[t]);
          }
        }
        std::sort(out->begin() + static_cast<ptrdiff_t>(begin), out->end());
        return evaluated;
      });
}

// MinHash LSH banding pass: per-row signatures → per-band bucket keys →
// bucket co-membership candidates → sorted dedup → exact θ-verification of
// every candidate through the packed kernel, row by row. Precision is 1 by
// construction; recall follows LshCollisionProbability. Every stage is
// sharded over the thread pool, and every stage's output is a function of
// the data + seed alone (per-band buffers, a scheduling-independent sorted
// dedup, and the same row loop as the exact passes), so the graph is
// deterministic for a fixed seed at any thread count.
UpperRows LshPass(const BatchSimilarity& batch, double theta,
                  const PackedNeighborOptions& options, size_t workers,
                  uint64_t* candidates_out, uint64_t* skipped_empty) {
  const size_t n = batch.size();
  const SparseItemView& view = *batch.items();
  const std::vector<uint32_t>* sizes = batch.prune_sizes();
  const size_t bands = options.lsh.num_bands;
  const size_t rows_per_band = options.lsh.rows_per_band;
  const size_t sig_len = bands * rows_per_band;
  const size_t num_threads = ResolveThreads(options.num_threads);
  const auto row_empty = [&view](size_t r) {
    return view.row_offsets[r + 1] == view.row_offsets[r];
  };

  // Signatures, sharded by row into flat storage. Empty rows are skipped
  // outright: their all-max signatures would all collide with each other
  // in every band — a quadratic candidate blow-up in one bucket at scale —
  // yet their exact similarity is 0 < θ with everything, so for the θ > 0
  // this pass requires, skipping them loses no edge.
  std::vector<uint64_t> sigs(n * sig_len);
  const MinHasher hasher(sig_len, options.lsh.seed);
  size_t empty_rows = 0;
  for (size_t r = 0; r < n; ++r) {
    if (row_empty(r)) ++empty_rows;
  }
  *skipped_empty = empty_rows;
  ParallelChunks(num_threads, n, std::max<size_t>(1, options.row_chunk),
                 [&](size_t begin, size_t end) {
                   for (size_t r = begin; r < end; ++r) {
                     if (row_empty(r)) continue;
                     const uint64_t off = view.row_offsets[r];
                     hasher.SignatureInto(
                         view.items.data() + off,
                         static_cast<size_t>(view.row_offsets[r + 1] - off),
                         sigs.data() + r * sig_len);
                   }
                 });

  // Banding, sharded by band: rows sorted by bucket key, each equal-key run
  // emits its C(m, 2) member pairs as (lo << 32) | hi keys into that band's
  // buffer. Output is keyed by band — not by worker — so the concatenation
  // below is schedule-independent.
  std::vector<std::vector<uint64_t>> band_pairs(bands);
  ParallelChunks(num_threads, bands, 1, [&](size_t b0, size_t b1) {
    std::vector<std::pair<uint64_t, uint32_t>> keys;
    keys.reserve(n - empty_rows);
    for (size_t band = b0; band < b1; ++band) {
      keys.clear();
      for (size_t r = 0; r < n; ++r) {
        if (row_empty(r)) continue;
        keys.emplace_back(
            LshBandKey(sigs.data() + r * sig_len + band * rows_per_band,
                       rows_per_band, band),
            static_cast<uint32_t>(r));
      }
      std::sort(keys.begin(), keys.end());
      std::vector<uint64_t>& out = band_pairs[band];
      size_t lo = 0;
      while (lo < keys.size()) {
        size_t hi = lo + 1;
        while (hi < keys.size() && keys[hi].first == keys[lo].first) ++hi;
        // Members ascend within the run (ties sort by row), so a < b below.
        for (size_t a = lo; a < hi; ++a) {
          for (size_t b = a + 1; b < hi; ++b) {
            out.push_back((uint64_t{keys[a].second} << 32) | keys[b].second);
          }
        }
        lo = hi;
      }
    }
  });
  sigs.clear();
  sigs.shrink_to_fit();

  // Cross-band dedup: one sorted unique candidate list, so each row's
  // candidates form one ascending run.
  size_t raw = 0;
  for (const auto& bp : band_pairs) raw += bp.size();
  std::vector<uint64_t> candidates;
  candidates.reserve(raw);
  for (auto& bp : band_pairs) {
    candidates.insert(candidates.end(), bp.begin(), bp.end());
    bp.clear();
    bp.shrink_to_fit();
  }
  SortUniqueParallel(&candidates, num_threads);
  *candidates_out = candidates.size();
  std::vector<uint64_t> run_off(n + 1, 0);
  for (const uint64_t key : candidates) ++run_off[(key >> 32) + 1];
  for (size_t r = 0; r < n; ++r) run_off[r + 1] += run_off[r];

  // Exact verification, row by row. The θ length bound prunes a candidate
  // before it reaches the kernel (exact, see SizeBound).
  struct Scratch {
    std::vector<uint32_t> js;
    std::vector<double> vals;
  };
  std::vector<Scratch> scratch(workers);
  return SweepRows(
      n, options, workers,
      [&](size_t worker, size_t i, std::vector<PointIndex>* out) {
        Scratch& s = scratch[worker];
        s.js.clear();
        for (uint64_t k = run_off[i]; k < run_off[i + 1]; ++k) {
          const auto j = static_cast<uint32_t>(candidates[k] & 0xffffffffu);
          if (sizes == nullptr ||
              SizeBound(std::min((*sizes)[i], (*sizes)[j]),
                        std::max((*sizes)[i], (*sizes)[j])) >= theta) {
            s.js.push_back(j);
          }
        }
        if (s.js.empty()) return uint64_t{0};
        s.vals.resize(s.js.size());
        batch.SimilarityBatch(i, s.js.data(), s.js.size(), s.vals.data());
        for (size_t t = 0; t < s.js.size(); ++t) {
          if (s.vals[t] >= theta) out->push_back(s.js[t]);
        }
        return static_cast<uint64_t>(s.js.size());
      });
}

// ≈ upper-triangular ScanCount increments: Σ_item C(df, 2).
uint64_t CandidateScanOps(const SparseItemView& view) {
  std::vector<uint64_t> df(view.universe, 0);
  for (const uint32_t item : view.items) ++df[item];
  uint64_t ops = 0;
  for (const uint64_t d : df) {
    if (d > 1) ops += d * (d - 1) / 2;
  }
  return ops;
}

// Estimated LSH-pass op count, in rough one-memory-touch units (an exact
// pass costs min(pairs × words, Σ C(df, 2)) of them). The fixed part
// (signature build + per-band bucketing) follows from the shapes alone;
// the data-dependent part — raw bucket collisions to dedup and unique
// candidates to verify — is the banding curve integrated over the
// similarity distribution, estimated from a small deterministic sample of
// pairs (seeded by the LSH seed). This is how kAuto sees density and θ,
// not just n, and it is a function of data + seed alone, so the choice is
// identical at any thread count.
uint64_t LshOpsEstimate(const BatchSimilarity& batch, const LshOptions& lsh,
                        uint64_t nnz, uint64_t words) {
  const size_t n = batch.size();
  const auto b = static_cast<double>(lsh.num_bands);
  const auto r = static_cast<double>(lsh.rows_per_band);
  const uint64_t sig_len = lsh.num_bands * lsh.rows_per_band;
  double ops = static_cast<double>(nnz * sig_len) +
               static_cast<double>(n) * b;
  constexpr size_t kSamples = 256;
  if (n >= 2) {
    SplitMix64 sm(lsh.seed ^ (uint64_t{n} * 0x9e3779b97f4a7c15ULL));
    double raw = 0.0;
    double cand = 0.0;
    for (size_t s = 0; s < kSamples; ++s) {
      const auto i = static_cast<size_t>(sm.Next() % n);
      auto j = static_cast<uint32_t>(sm.Next() % (n - 1));
      if (j >= i) ++j;
      double v = 0.0;
      batch.SimilarityBatch(i, &j, 1, &v);
      const double per_band = std::pow(std::clamp(v, 0.0, 1.0), r);
      raw += b * per_band;                        // duplicate collisions
      cand += 1.0 - std::pow(1.0 - per_band, b);  // unique candidate?
    }
    const double scale = static_cast<double>(TotalPairs(n)) /
                         static_cast<double>(kSamples);
    // Dedup charges ~log₂(raw) comparisons per raw pair (call it 8); every
    // unique candidate pays one popcount sweep.
    ops += scale * (raw * 8.0 + cand * static_cast<double>(words));
  }
  return ops >= 1e19 ? std::numeric_limits<uint64_t>::max()
                     : static_cast<uint64_t>(ops);
}

}  // namespace

Result<NeighborGraph> ComputeNeighborsPacked(
    const PointSimilarity& sim, double theta,
    const PackedNeighborOptions& options) {
  if (!(theta >= 0.0 && theta <= 1.0)) {
    return Status::InvalidArgument("theta must be in [0, 1]");
  }
  diag::SetGauge(options.metrics, "graph.threads",
                 static_cast<double>(ResolveThreads(options.num_threads)));
  std::unique_ptr<BatchSimilarity> batch;
  {
    diag::ScopedTimer pack_timer(options.metrics, "stage.neighbors.pack");
    batch = sim.MakeBatch();
  }
  if (batch == nullptr) {
    // No batch kernel (expert similarity, or packing over budget): the
    // scalar engines are the answer, not an error.
    diag::AddCounter(options.metrics, "neighbors.fallback_scalar", 1);
    auto graph = options.num_threads == 1
                     ? ComputeNeighbors(sim, theta)
                     : ComputeNeighborsParallel(
                           sim, theta,
                           {options.num_threads, options.row_chunk});
    if (graph.ok()) {
      diag::AddCounter(options.metrics, "neighbors.pairs_evaluated",
                       TotalPairs(sim.size()));
      diag::AddCounter(options.metrics, "neighbors.pairs_pruned", 0);
    }
    return graph;
  }

  const size_t n = batch->size();
  const uint64_t total = TotalPairs(n);
  PackedStrategy strategy = options.strategy;
  const bool candidates_ok = theta > 0.0 && batch->items() != nullptr;
  if (candidates_ok && (strategy == PackedStrategy::kLsh ||
                        (strategy == PackedStrategy::kAuto &&
                         options.allow_lsh))) {
    ROCK_RETURN_IF_ERROR(options.lsh.Validate());
  }
  if (!candidates_ok) {
    // θ = 0 needs the complete graph (nothing shares an item with an empty
    // row, yet everything neighbors it), so only the full pass is exact.
    strategy = PackedStrategy::kWindow;
  } else if (strategy == PackedStrategy::kAuto) {
    // Dense sweep ≈ every pair at a per-pair plus per-word price, ScanCount
    // ≈ its postings increments (constants at the top of this file). Both
    // depend only on the data, so the choice — and with it every
    // neighbors.* metric — is identical at any thread count.
    const uint64_t words = std::max<uint64_t>(
        1, (uint64_t{batch->items()->universe} + 63) / 64);
    const uint64_t scan_ops = CandidateScanOps(*batch->items());
    const double dense_s =
        static_cast<double>(total) *
        (kDenseNsPerPair + kDenseNsPerWord * static_cast<double>(words)) *
        1e-9;
    const double scan_s =
        static_cast<double>(scan_ops) * kScanNsPerIncrement * 1e-9;
    strategy = scan_s < dense_s ? PackedStrategy::kCandidates
                                : PackedStrategy::kWindow;
    if (options.allow_lsh) {
      const uint64_t lsh_ops = LshOpsEstimate(
          *batch, options.lsh, batch->items()->items.size(), words);
      const uint64_t dense_ops =
          total > std::numeric_limits<uint64_t>::max() / words
              ? std::numeric_limits<uint64_t>::max()
              : total * words;
      const uint64_t exact_ops = std::min(dense_ops, scan_ops);
      if (lsh_ops <
              std::numeric_limits<uint64_t>::max() / kLshAutoFactor &&
          exact_ops > kLshAutoFactor * lsh_ops) {
        strategy = PackedStrategy::kLsh;
      }
    }
    diag::SetGauge(options.metrics, "decision.neighbors.n",
                   static_cast<double>(n));
    diag::SetGauge(options.metrics, "decision.neighbors.words_per_row",
                   static_cast<double>(words));
    diag::SetGauge(options.metrics, "decision.neighbors.dense_cost_s",
                   dense_s);
    diag::SetGauge(options.metrics, "decision.neighbors.scan_cost_s",
                   scan_s);
    diag::SetGauge(options.metrics, "decision.neighbors.pass",
                   strategy == PackedStrategy::kWindow       ? 0.0
                   : strategy == PackedStrategy::kCandidates ? 1.0
                                                             : 2.0);
  }

  const size_t workers =
      std::max<size_t>(1, ResolveThreads(options.num_threads));
  uint64_t lsh_candidates = 0;
  uint64_t skipped_empty = 0;
  UpperRows upper;
  {
    diag::ScopedTimer sweep_timer(options.metrics, "stage.neighbors.sweep");
    if (strategy == PackedStrategy::kLsh) {
      upper = LshPass(*batch, theta, options, workers, &lsh_candidates,
                      &skipped_empty);
    } else if (strategy == PackedStrategy::kCandidates) {
      upper = CandidatePass(*batch, theta, options, workers);
    } else if (batch->prune_sizes() != nullptr && theta > 0.0) {
      upper = DensePass(*batch, theta, options, workers);
    } else {
      upper = FullPass(*batch, theta, options, workers);
    }
  }
  NeighborGraph graph;
  {
    diag::ScopedTimer assemble_timer(options.metrics,
                                     "stage.neighbors.assemble");
    graph = AssembleRows(n, options, workers, upper);
  }
  if (strategy == PackedStrategy::kLsh) {
    diag::AddCounter(options.metrics, "neighbors.lsh_pass", 1);
    diag::AddCounter(options.metrics, "neighbors.lsh_candidates",
                     lsh_candidates);
    diag::AddCounter(options.metrics, "neighbors.lsh_skipped_empty",
                     skipped_empty);
  } else if (strategy == PackedStrategy::kCandidates) {
    diag::AddCounter(options.metrics, "neighbors.candidate_pass", 1);
  }
  diag::AddCounter(options.metrics, "neighbors.pairs_evaluated",
                   upper.evaluated);
  diag::AddCounter(options.metrics, "neighbors.pairs_pruned",
                   total - upper.evaluated);
  return graph;
}

}  // namespace rock
