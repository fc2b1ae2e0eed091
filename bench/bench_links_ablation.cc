// bench_links_ablation — google-benchmark microbenchmarks for §4.4/§4.5:
// the three link-computation strategies (sparse Fig. 4 pair counting with
// hash rows, the same with the dense triangular accumulator, and adjacency
// matrix squaring — naive and Strassen) across graph sizes and densities.
//
// Paper claim to verify: the sparse algorithm's O(Σ m_i²) beats matrix
// squaring on the sparse graphs that realistic θ values produce, while
// dense squaring wins only as density → 1.
//
// Default mode runs the google-benchmark suite below. With
// --compare-engines it instead measures the bit-plane packed link engine
// against the Fig. 4 hashed-scatter oracle on the Fig. 5 configuration
// (shared samples, θ sweep), verifies the CSR rows are identical,
// and appends packed-vs-hashed rows to the machine-readable perf
// trajectory (BENCH_rock.json / $ROCK_BENCH_JSON) for CI's perf-smoke
// stage.links ratio gate.
//
// Usage: bench_links_ablation [--compare-engines] [--scale=X]
//                             [--max-n=N] [--reps=R] [gbench flags]
//   --scale=X  — multiplies the generated database size (default 1.0)
//   --max-n=N  — largest sample size to run (default 5000)
//   --reps=R   — timing repetitions per cell, best-of-R (default 1)

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/sampling.h"
#include "diag/metrics.h"
#include "graph/dense_matrix.h"
#include "graph/link_engine.h"
#include "graph/links.h"
#include "graph/neighbors.h"
#include "graph/strassen.h"
#include "similarity/jaccard.h"
#include "synth/basket_generator.h"

namespace rock {
namespace {

/// Random graph with the requested edge density.
NeighborGraph MakeGraph(size_t n, double density, uint64_t seed) {
  Rng rng(seed);
  NeighborGraph g;
  g.nbrlist.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(density)) {
        g.nbrlist[i].push_back(static_cast<PointIndex>(j));
        g.nbrlist[j].push_back(static_cast<PointIndex>(i));
      }
    }
  }
  for (auto& l : g.nbrlist) std::sort(l.begin(), l.end());
  return g;
}

double DensityArg(int64_t permille) {
  return static_cast<double>(permille) / 1000.0;
}

void BM_LinksSparseHash(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const double density = DensityArg(state.range(1));
  NeighborGraph g = MakeGraph(n, density, 42);
  ComputeLinksOptions opt;
  opt.dense_budget_bytes = 0;  // force hash rows
  for (auto _ : state) {
    LinkMatrix links = ComputeLinks(g, opt);
    benchmark::DoNotOptimize(links.size());
  }
}
BENCHMARK(BM_LinksSparseHash)
    ->ArgsProduct({{256, 512, 1024}, {20, 100, 300}})
    ->Unit(benchmark::kMillisecond);

void BM_LinksDenseAccumulator(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const double density = DensityArg(state.range(1));
  NeighborGraph g = MakeGraph(n, density, 42);
  for (auto _ : state) {
    LinkMatrix links = ComputeLinks(g);  // default budget → dense path
    benchmark::DoNotOptimize(links.size());
  }
}
BENCHMARK(BM_LinksDenseAccumulator)
    ->ArgsProduct({{256, 512, 1024}, {20, 100, 300}})
    ->Unit(benchmark::kMillisecond);

void BM_LinksMatrixSquaringNaive(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const double density = DensityArg(state.range(1));
  NeighborGraph g = MakeGraph(n, density, 42);
  for (auto _ : state) {
    LinkMatrix links = ComputeLinksDense(g);
    benchmark::DoNotOptimize(links.size());
  }
}
BENCHMARK(BM_LinksMatrixSquaringNaive)
    ->ArgsProduct({{256, 512, 1024}, {20, 300}})
    ->Unit(benchmark::kMillisecond);

void BM_LinksMatrixSquaringStrassen(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const double density = DensityArg(state.range(1));
  NeighborGraph g = MakeGraph(n, density, 42);
  for (auto _ : state) {
    LinkMatrix links = ComputeLinksStrassen(g);
    benchmark::DoNotOptimize(links.size());
  }
}
BENCHMARK(BM_LinksMatrixSquaringStrassen)
    ->ArgsProduct({{256, 512, 1024}, {20, 300}})
    ->Unit(benchmark::kMillisecond);

void BM_StrassenVsNaiveSquare(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  DenseMatrix a(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) a.At(r, c) = rng.UniformInt(0, 1);
  }
  const bool strassen = state.range(1) != 0;
  for (auto _ : state) {
    if (strassen) {
      auto p = StrassenMultiply(a, a);
      benchmark::DoNotOptimize(p->At(0, 0));
    } else {
      auto p = a.Multiply(a);
      benchmark::DoNotOptimize(p->At(0, 0));
    }
  }
}
BENCHMARK(BM_StrassenVsNaiveSquare)
    ->ArgsProduct({{128, 256, 512, 1024}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------- --compare-engines harness --

/// CSR rows byte-equal: same row sizes, partners and counts.
bool RowsEqual(const LinkMatrix& a, const LinkMatrix& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    const LinkRowSpan x = a.FlatRow(static_cast<PointIndex>(i));
    const LinkRowSpan y = b.FlatRow(static_cast<PointIndex>(i));
    if (x.size != y.size) return false;
    for (size_t e = 0; e < x.size; ++e) {
      if (x.partners[e] != y.partners[e] || x.counts[e] != y.counts[e]) {
        return false;
      }
    }
  }
  return true;
}

// Packed vs hashed link computation on the Fig. 5 configuration: one shared
// sample and neighbor graph per (n, θ), CSR rows cross-checked for
// byte equality, timings appended to the perf trajectory. Returns nonzero
// on any mismatch so CI fails loudly rather than gating on wrong rows.
int RunEngineComparison(double scale, size_t max_n, size_t reps) {
  bench::Banner(
      "link engines — packed (bit-plane popcount) vs hashed scatter oracle");

  BasketGeneratorOptions gen;
  if (scale != 1.0) {
    for (auto& s : gen.cluster_sizes) {
      s = static_cast<size_t>(static_cast<double>(s) * scale);
    }
    gen.num_outliers =
        static_cast<size_t>(static_cast<double>(gen.num_outliers) * scale);
  }
  auto ds = GenerateBasketData(gen);
  if (!ds.ok()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 ds.status().ToString().c_str());
    return 1;
  }
  std::printf("database: %zu transactions, reps=%zu (best-of)\n", ds->size(),
              reps);

  const double thetas[] = {0.5, 0.6, 0.7, 0.8};
  const size_t samples[] = {1000, 2000, 3000, 4000, 5000};
  bench::PerfJsonWriter perf("bench_links_ablation");
  std::printf("\n%-16s %10s %10s %9s %14s\n", "cell", "packed", "hashed",
              "speedup", "link-pairs");

  Rng rng(7);
  for (const size_t n : samples) {
    if (n > max_n || n > ds->size()) break;
    const std::vector<size_t> rows = SampleIndices(ds->size(), n, &rng);
    TransactionDataset sample;
    for (const size_t r : rows) sample.AddTransaction(ds->transaction(r));
    const TransactionJaccard sim(sample);

    for (const double theta : thetas) {
      auto graph = ComputeNeighbors(sim, theta);
      if (!graph.ok()) {
        std::fprintf(stderr, "neighbor graph failed: %s\n",
                     graph.status().ToString().c_str());
        return 1;
      }

      diag::MetricsRegistry metrics;
      double packed_s = 0.0;
      LinkMatrix packed_links(0);
      for (size_t rep = 0; rep < reps; ++rep) {
        diag::MetricsRegistry rep_metrics;
        PackedLinkOptions lopts;
        lopts.metrics = &rep_metrics;
        Timer timer;
        LinkMatrix links = ComputeLinksPacked(*graph, lopts);
        const double s = timer.ElapsedSeconds();
        if (rep == 0 || s < packed_s) {
          packed_s = s;
          metrics = std::move(rep_metrics);
          packed_links = std::move(links);
        }
      }
      double hashed_s = 0.0;
      LinkMatrix hashed_links(0);
      for (size_t rep = 0; rep < reps; ++rep) {
        Timer timer;
        LinkMatrix links = ComputeLinks(*graph);
        const double s = timer.ElapsedSeconds();
        if (rep == 0 || s < hashed_s) {
          hashed_s = s;
          hashed_links = std::move(links);
        }
      }
      if (!RowsEqual(packed_links, hashed_links)) {
        std::fprintf(stderr,
                     "ENGINE MISMATCH at n=%zu θ=%.1f — link rows differ\n", n,
                     theta);
        return 1;
      }

      const diag::RunMetrics snap = metrics.Snapshot();
      char label[64];
      char theta_str[16];
      std::snprintf(theta_str, sizeof(theta_str), "%.1f", theta);
      for (const char* engine : {"packed", "hashed"}) {
        std::snprintf(label, sizeof(label), "n=%zu θ=%s %s", n, theta_str,
                      engine);
        perf.BeginEntry(label);
        perf.Param("n", std::to_string(n));
        perf.Param("theta", theta_str);
        perf.Param("engine", engine);
        if (std::strcmp(engine, "packed") == 0) {
          perf.Timer("stage.links", packed_s);
          perf.AddRunMetrics(snap);
        } else {
          perf.Timer("stage.links", hashed_s);
        }
      }
      std::snprintf(label, sizeof(label), "n=%zu θ=%s", n, theta_str);
      std::printf("%-16s %9.4fs %9.4fs %8.2fx %14llu\n", label, packed_s,
                  hashed_s, packed_s > 0.0 ? hashed_s / packed_s : 0.0,
                  static_cast<unsigned long long>(
                      packed_links.NumNonZeroPairs()));
    }
  }
  perf.Write();
  return 0;
}

}  // namespace
}  // namespace rock

int main(int argc, char** argv) {
  bool compare_engines = false;
  double scale = 1.0;
  size_t max_n = 5000;
  size_t reps = 1;
  int kept = 1;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--compare-engines") == 0) {
      compare_engines = true;
    } else if (std::strncmp(argv[a], "--scale=", 8) == 0) {
      scale = std::atof(argv[a] + 8);
    } else if (std::strncmp(argv[a], "--max-n=", 8) == 0) {
      max_n = static_cast<size_t>(std::atoll(argv[a] + 8));
    } else if (std::strncmp(argv[a], "--reps=", 7) == 0) {
      reps = static_cast<size_t>(std::atoll(argv[a] + 7));
    } else {
      argv[kept++] = argv[a];  // leave for google-benchmark
    }
  }
  argc = kept;
  if (compare_engines) {
    return rock::RunEngineComparison(scale, max_n, reps < 1 ? 1 : reps);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
