// bench_micro — google-benchmark microbenchmarks for librock's hot paths:
// Jaccard similarity, neighbor-graph construction, the updatable heap, the
// goodness measure, reservoir sampling, the synthetic generators, and the
// diag metrics overhead (collection on vs off on a full clustering run —
// must stay within noise).

#include <benchmark/benchmark.h>

#include <cmath>
#include <utility>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/goodness.h"
#include "core/merge_engine.h"
#include "core/rock.h"
#include "core/sampling.h"
#include "data/dataset.h"
#include "graph/neighbors.h"
#include "similarity/jaccard.h"
#include "synth/basket_generator.h"
#include "synth/mushroom_generator.h"
#include "util/updatable_heap.h"

namespace rock {
namespace {

TransactionDataset MakeBaskets(size_t n) {
  BasketGeneratorOptions opt;
  opt.cluster_sizes = {n / 2, n - n / 2};
  opt.items_per_cluster = {20, 20};
  opt.num_outliers = 0;
  opt.seed = 99;
  return std::move(GenerateBasketData(opt)).value();
}

void BM_JaccardSimilarity(benchmark::State& state) {
  TransactionDataset ds = MakeBaskets(1024);
  size_t i = 0;
  for (auto _ : state) {
    const double s = JaccardSimilarity(ds.transaction(i % ds.size()),
                                       ds.transaction((i * 7 + 1) % ds.size()));
    benchmark::DoNotOptimize(s);
    ++i;
  }
}
BENCHMARK(BM_JaccardSimilarity);

void BM_NeighborGraph(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  TransactionDataset ds = MakeBaskets(n);
  TransactionJaccard sim(ds);
  for (auto _ : state) {
    auto g = ComputeNeighbors(sim, 0.5);
    benchmark::DoNotOptimize(g->NumEdges());
  }
}
BENCHMARK(BM_NeighborGraph)->Arg(256)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_HeapInsertEraseMixed(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    UpdatableHeap<uint32_t, double> heap;
    for (int op = 0; op < 10000; ++op) {
      const auto key = static_cast<uint32_t>(rng.UniformUint64(2000));
      if (rng.Bernoulli(0.7)) {
        heap.InsertOrUpdate(key, rng.UniformDouble());
      } else {
        heap.Erase(key);
      }
    }
    benchmark::DoNotOptimize(heap.size());
  }
}
BENCHMARK(BM_HeapInsertEraseMixed)->Unit(benchmark::kMillisecond);

void BM_HeapExtractAll(benchmark::State& state) {
  Rng rng(2);
  const auto n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    UpdatableHeap<uint32_t, double> heap;
    for (size_t i = 0; i < n; ++i) {
      heap.InsertOrUpdate(static_cast<uint32_t>(i), rng.UniformDouble());
    }
    state.ResumeTiming();
    while (!heap.empty()) {
      benchmark::DoNotOptimize(heap.ExtractTop().key);
    }
  }
}
BENCHMARK(BM_HeapExtractAll)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_GoodnessMeasure(benchmark::State& state) {
  RockOptions opt;
  opt.theta = 0.5;
  GoodnessMeasure g(opt);
  uint64_t links = 1;
  for (auto _ : state) {
    const double v = g.Goodness(links, (links % 100) + 1, 50);
    benchmark::DoNotOptimize(v);
    ++links;
  }
}
BENCHMARK(BM_GoodnessMeasure);

// The memoized size^{1+2f(θ)} table against the raw std::pow call it
// replaces. The merge loop asks for these powers once per relinked row
// entry — millions of times with sizes bounded by n — so a table hit must
// cost a single L1 read. The memo arm is bit-identical to the pow arm by
// construction (pinned in tests/rock_test.cc).
void BM_ExpectedIntraLinks(benchmark::State& state) {
  const bool memo = state.range(0) != 0;
  RockOptions opt;
  opt.theta = 0.5;
  GoodnessMeasure g(opt);
  g.ExpectedIntraLinks(4096);  // grow the memo once, outside the timed loop
  const double e = g.exponent();
  size_t i = 1;
  for (auto _ : state) {
    const size_t size = (i % 4096) + 1;
    const double v = memo ? g.ExpectedIntraLinks(size)
                          : std::pow(static_cast<double>(size), e);
    benchmark::DoNotOptimize(v);
    ++i;
  }
}
BENCHMARK(BM_ExpectedIntraLinks)->Arg(0)->Arg(1)->ArgName("memo");

void BM_ReservoirSampling(benchmark::State& state) {
  const auto stream = static_cast<size_t>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    ReservoirSampler<size_t> sampler(1000, &rng);
    for (size_t i = 0; i < stream; ++i) sampler.Offer(i);
    benchmark::DoNotOptimize(sampler.sample().size());
  }
}
BENCHMARK(BM_ReservoirSampling)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_BasketGenerator(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    BasketGeneratorOptions opt;
    opt.cluster_sizes = {n};
    opt.items_per_cluster = {20};
    opt.num_outliers = n / 20;
    TransactionDataset ds = std::move(GenerateBasketData(opt)).value();
    benchmark::DoNotOptimize(ds.size());
  }
}
BENCHMARK(BM_BasketGenerator)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

// Full ROCK run with metrics collection toggled by the benchmark argument;
// compare the two rows to bound the diag subsystem's enabled/disabled cost.
void BM_RockClusterMetrics(benchmark::State& state) {
  TransactionDataset ds = MakeBaskets(512);
  TransactionJaccard sim(ds);
  RockOptions opt;
  opt.theta = 0.5;
  opt.num_clusters = 2;
  opt.diag.collect_metrics = state.range(0) != 0;
  RockClusterer clusterer(opt);
  for (auto _ : state) {
    auto result = clusterer.Cluster(sim);
    benchmark::DoNotOptimize(result->stats.num_merges);
  }
}
BENCHMARK(BM_RockClusterMetrics)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("collect_metrics")
    ->Unit(benchmark::kMillisecond);

// The two merge engines over an identical precomputed neighbor graph:
// hashed (the reference: Fig. 4 links, unordered_map rows) and parallel
// (the production engine: packed links, AoS rows + lazy best-cleaning +
// elided heap fixups). Same merge sequence, different memory traffic and
// rescan counts.
RockResult RunMergeEngine(bool hashed, const NeighborGraph& graph,
                          const RockOptions& opt) {
  return hashed ? internal::RunHashedMergeEngine(graph, opt)
                : internal::RunParallelMergeEngine(graph, opt);
}

void BM_RockMergeEngine(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  TransactionDataset local = MakeBaskets(n);
  TransactionJaccard local_sim(local);
  auto graph = ComputeNeighbors(local_sim, 0.5);
  RockOptions opt;
  opt.theta = 0.5;
  opt.num_clusters = 4;
  const bool hashed = state.range(1) == 0;
  for (auto _ : state) {
    auto result = RunMergeEngine(hashed, *graph, opt);
    benchmark::DoNotOptimize(result.stats.num_merges);
  }
}
BENCHMARK(BM_RockMergeEngine)
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({2048, 0})
    ->Args({2048, 1})
    ->ArgNames({"n", "engine"})
    ->Unit(benchmark::kMillisecond);

// The merge loop's new heap primitives: rename-in-place vs the
// erase + insert pair it replaces, and bulk Assign vs repeated inserts.
void BM_HeapReplaceKey(benchmark::State& state) {
  Rng rng(4);
  const bool use_replace = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    UpdatableHeap<uint32_t, double> heap;
    for (uint32_t i = 0; i < 4096; ++i) {
      heap.InsertOrUpdate(i, rng.UniformDouble());
    }
    state.ResumeTiming();
    for (uint32_t i = 0; i < 4096; ++i) {
      const double priority = rng.UniformDouble();
      if (use_replace) {
        heap.ReplaceKey(i, i + 100000, priority);
      } else {
        heap.Erase(i);
        heap.InsertOrUpdate(i + 100000, priority);
      }
    }
    benchmark::DoNotOptimize(heap.size());
  }
}
BENCHMARK(BM_HeapReplaceKey)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("replace_key")
    ->Unit(benchmark::kMicrosecond);

void BM_HeapAssign(benchmark::State& state) {
  Rng rng(5);
  const bool use_assign = state.range(0) != 0;
  std::vector<UpdatableHeap<uint32_t, double>::Entry> entries;
  for (uint32_t i = 0; i < 4096; ++i) {
    entries.push_back({i, rng.UniformDouble()});
  }
  for (auto _ : state) {
    UpdatableHeap<uint32_t, double> heap;
    if (use_assign) {
      heap.Assign(entries);
    } else {
      for (const auto& e : entries) heap.InsertOrUpdate(e.key, e.priority);
    }
    benchmark::DoNotOptimize(heap.size());
  }
}
BENCHMARK(BM_HeapAssign)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("assign")
    ->Unit(benchmark::kMicrosecond);

void BM_MushroomGenerator(benchmark::State& state) {
  for (auto _ : state) {
    MushroomGeneratorOptions opt;
    opt.size_scale = 0.25;
    auto ds = GenerateMushroomData(opt);
    benchmark::DoNotOptimize(ds->size());
  }
}
BENCHMARK(BM_MushroomGenerator)->Unit(benchmark::kMillisecond);

// Direct engine measurement for the perf trajectory: one timed
// ClusterGraph per engine at each size, full diag metrics captured, written
// to BENCH_rock.json ($ROCK_BENCH_JSON). Runs after the google-benchmark
// suite so the JSON exists even when benchmarks are filtered out.
void WritePerfTrajectory() {
  bench::PerfJsonWriter perf("bench_micro");
  const std::pair<bool, const char*> kEngines[] = {
      {false, "parallel"},
      {true, "hashed"},
  };
  for (size_t n : {size_t{512}, size_t{2048}}) {
    TransactionDataset ds = MakeBaskets(n);
    TransactionJaccard sim(ds);
    auto graph = ComputeNeighbors(sim, 0.5);
    for (const auto& [hashed, engine] : kEngines) {
      RockOptions opt;
      opt.theta = 0.5;
      opt.num_clusters = 4;
      Timer timer;
      const RockResult result = RunMergeEngine(hashed, *graph, opt);
      const double seconds = timer.ElapsedSeconds();
      perf.BeginEntry("merge_engine n=" + std::to_string(n) + " " + engine);
      perf.Param("n", std::to_string(n));
      perf.Param("engine", engine);
      perf.Timer("wall", seconds);
      perf.AddRunMetrics(result.metrics);
    }
  }
  perf.Write();
}

}  // namespace
}  // namespace rock

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  rock::WritePerfTrajectory();
  return 0;
}
