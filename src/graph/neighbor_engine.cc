#include "graph/neighbor_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "common/status.h"
#include "diag/metrics.h"
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
// are the same at any thread count. A worker sums its evaluated pairs in a
// local and adds it once, so workers share no counter per row.
template <typename RowFn>
UpperRows SweepRows(size_t n, const PackedNeighborOptions& options,
                    size_t workers, RowFn&& row_fn) {
  const size_t chunk = std::max<size_t>(1, options.row_chunk);
  UpperRows upper;
  upper.count.assign(n, 0);
  upper.chunks.resize((n + chunk - 1) / chunk);
  std::atomic<uint64_t> evaluated{0};
  std::atomic<size_t> next{0};
  ParallelInvoke(workers, [&](size_t worker) {
    uint64_t local = 0;
    while (true) {
      const size_t c = next.fetch_add(1);
      if (c >= upper.chunks.size()) break;
      std::vector<PointIndex>& out = upper.chunks[c];
      const size_t end = std::min(n, (c + 1) * chunk);
      for (size_t i = c * chunk; i < end; ++i) {
        const size_t before = out.size();
        local += row_fn(worker, i, &out);
        upper.count[i] = static_cast<uint32_t>(out.size() - before);
      }
    }
    evaluated.fetch_add(local);
  });
  upper.evaluated = evaluated.load();
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

// Every pair through the per-pair Similarity(), in id order: the pass for
// a similarity with no batch kernel. Similarity() is const and called from
// every worker, as on the other passes' batches.
UpperRows ScalarPass(const PointSimilarity& sim, double theta,
                     const PackedNeighborOptions& options, size_t workers) {
  const size_t n = sim.size();
  return SweepRows(
      n, options, workers,
      [&](size_t, size_t i, std::vector<PointIndex>* out) {
        for (size_t j = i + 1; j < n; ++j) {
          if (sim.Similarity(i, j) >= theta) {
            out->push_back(static_cast<PointIndex>(j));
          }
        }
        return static_cast<uint64_t>(n - i - 1);
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

// kAuto's choice for a batch with an item view at θ > 0: the dense sweep
// costs ≈ every pair at a per-pair plus per-word price, ScanCount ≈ its
// postings increments (constants at the top of this file). Both depend
// only on the data, so the choice — and with it every neighbors.* metric —
// is identical at any thread count. The inputs are recorded as the
// decision.neighbors.* gauges.
PackedStrategy ChooseAuto(const BatchSimilarity& batch,
                          diag::MetricsRegistry* metrics) {
  const size_t n = batch.size();
  const uint64_t words =
      std::max<uint64_t>(1, (uint64_t{batch.items()->universe} + 63) / 64);
  const double dense_s =
      static_cast<double>(TotalPairs(n)) *
      (kDenseNsPerPair + kDenseNsPerWord * static_cast<double>(words)) * 1e-9;
  const double scan_s = static_cast<double>(CandidateScanOps(*batch.items())) *
                        kScanNsPerIncrement * 1e-9;
  const PackedStrategy strategy = scan_s < dense_s
                                      ? PackedStrategy::kCandidates
                                      : PackedStrategy::kWindow;
  diag::SetGauge(metrics, "decision.neighbors.n", static_cast<double>(n));
  diag::SetGauge(metrics, "decision.neighbors.words_per_row",
                 static_cast<double>(words));
  diag::SetGauge(metrics, "decision.neighbors.dense_cost_s", dense_s);
  diag::SetGauge(metrics, "decision.neighbors.scan_cost_s", scan_s);
  diag::SetGauge(metrics, "decision.neighbors.pass",
                 strategy == PackedStrategy::kCandidates ? 1.0 : 0.0);
  return strategy;
}

}  // namespace

Result<NeighborGraph> ComputeNeighborsPacked(
    const PointSimilarity& sim, double theta,
    const PackedNeighborOptions& options) {
  if (!(theta >= 0.0 && theta <= 1.0)) {
    return Status::InvalidArgument("theta must be in [0, 1]");
  }
  const size_t workers =
      std::max<size_t>(1, ResolveThreads(options.num_threads));
  diag::SetGauge(options.metrics, "graph.threads",
                 static_cast<double>(workers));
  std::unique_ptr<BatchSimilarity> batch;
  {
    diag::ScopedTimer pack_timer(options.metrics, "stage.neighbors.pack");
    batch = sim.MakeBatch();
  }
  // θ = 0 needs the complete graph (nothing shares an item with an empty
  // row, yet everything neighbors it), and a batch without an item view
  // has no postings to scan: both take an id-order walk over every pair.
  PackedStrategy strategy = PackedStrategy::kWindow;
  if (batch == nullptr) {
    // No batch kernel (expert similarity, or packing over budget): the
    // per-pair walk is the answer, not an error.
    diag::AddCounter(options.metrics, "neighbors.fallback_scalar", 1);
  } else if (theta > 0.0 && batch->items() != nullptr) {
    strategy = options.strategy == PackedStrategy::kAuto
                   ? ChooseAuto(*batch, options.metrics)
                   : options.strategy;
  }

  const size_t n = sim.size();
  UpperRows upper;
  {
    diag::ScopedTimer sweep_timer(options.metrics, "stage.neighbors.sweep");
    if (batch == nullptr) {
      upper = ScalarPass(sim, theta, options, workers);
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
  if (strategy == PackedStrategy::kCandidates) {
    diag::AddCounter(options.metrics, "neighbors.candidate_pass", 1);
  }
  diag::AddCounter(options.metrics, "neighbors.pairs_evaluated",
                   upper.evaluated);
  diag::AddCounter(options.metrics, "neighbors.pairs_pruned",
                   TotalPairs(n) - upper.evaluated);
  return graph;
}

}  // namespace rock
