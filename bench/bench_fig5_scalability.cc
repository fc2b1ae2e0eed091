// bench_fig5_scalability — reproduces paper Figure 5: ROCK execution time
// on the synthetic database as a function of the random-sample size, for
// four θ settings. As in the paper, the final labeling phase is excluded;
// time covers neighbor computation, link computation and the merge loop.
//
// Expected shape (paper): roughly quadratic growth in sample size; larger
// θ is faster because each transaction has fewer neighbors, making link
// computation cheaper.
//
// Usage: bench_fig5_scalability [scale] [--compare-engines] [--threads=N]
//                               [--reps=R]
//   scale             — multiplies the generated database size (default 1.0)
//   --compare-engines — also run every cell through the hashed reference
//                       merge engine (internal::RunHashedMergeEngine over
//                       the same neighbor graph) and report the
//                       hashed/parallel stage.merge speedup
//   --threads=N       — worker threads for the graph phases (neighbor +
//                       link engines). Used by EXPERIMENTS.md's multi-core
//                       stage table.
//   --reps=R          — runs per cell and engine; each keeps the run with
//                       the smallest stage.merge (default 1)
//
// The headline table times RockClusterer::Cluster (the `parallel` merge
// engine, the only production path).
//
// Every run appends to the machine-readable perf trajectory
// (BENCH_rock.json, or $ROCK_BENCH_JSON; schema in docs/OBSERVABILITY.md).
// CI's perf-smoke job runs this binary at a small scale with
// --compare-engines and gates on the hashed/parallel stage.merge ratio.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/merge_engine.h"
#include "core/rock.h"
#include "core/sampling.h"
#include "graph/neighbor_engine.h"
#include "similarity/jaccard.h"
#include "synth/basket_generator.h"

namespace {

enum class Engine { kParallel, kHashed };

const char* EngineName(Engine engine) {
  return engine == Engine::kParallel ? "parallel" : "hashed";
}

/// One clustering of `sim`: RockClusterer::Cluster for the production
/// engine; for the hashed reference, the same packed neighbor graph fed to
/// internal::RunHashedMergeEngine, whose metrics then gain the same
/// stage.neighbors timer.
rock::Result<rock::RockResult> RunCell(const rock::PointSimilarity& sim,
                                       const rock::RockOptions& opt,
                                       Engine engine) {
  using namespace rock;
  if (engine == Engine::kParallel) return RockClusterer(opt).Cluster(sim);
  Timer nbr_timer;
  PackedNeighborOptions nopts;
  nopts.num_threads = opt.graph_threads;
  nopts.row_chunk = opt.row_chunk;
  auto graph = ComputeNeighborsPacked(sim, opt.theta, nopts);
  if (!graph.ok()) return graph.status();
  const double nbr_seconds = nbr_timer.ElapsedSeconds();
  RockResult result = internal::RunHashedMergeEngine(*graph, opt);
  result.metrics.RecordSeconds("stage.neighbors", nbr_seconds);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rock;
  bench::Banner("Figure 5 — scalability: time vs random-sample size");

  double scale = 1.0;
  bool compare_engines = false;
  size_t threads = 1;
  size_t reps = 1;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--compare-engines") == 0) {
      compare_engines = true;
    } else if (std::strncmp(argv[a], "--threads=", 10) == 0) {
      threads = static_cast<size_t>(std::atoll(argv[a] + 10));
    } else if (std::strncmp(argv[a], "--reps=", 7) == 0) {
      reps = std::max<size_t>(
          1, static_cast<size_t>(std::atoll(argv[a] + 7)));
    } else {
      scale = std::atof(argv[a]);
    }
  }

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
  std::printf("database: %zu transactions\n", ds->size());

  const double thetas[] = {0.5, 0.6, 0.7, 0.8};
  const size_t samples[] = {1000, 2000, 3000, 4000, 5000};
  std::vector<Engine> engines = {Engine::kParallel};
  if (compare_engines) engines.push_back(Engine::kHashed);

  std::printf("\nexecution time in seconds (excludes labeling, as in the "
              "paper)%s\n",
              compare_engines ? "; parallel engine" : "");
  std::printf("%-12s", "sample");
  for (double theta : thetas) std::printf("   θ=%.1f", theta);
  std::printf("\n");

  // Per-run diag metrics, kept for the stage breakdown table below.
  std::vector<std::pair<std::string, diag::RunMetrics>> breakdowns;
  bench::PerfJsonWriter perf("bench_fig5_scalability");

  Rng rng(7);
  for (size_t n : samples) {
    if (n > ds->size()) break;
    // One shared sample per row so θ is the only variable per column.
    std::vector<size_t> rows = SampleIndices(ds->size(), n, &rng);
    TransactionDataset sample;
    for (size_t r : rows) sample.AddTransaction(ds->transaction(r));

    std::printf("%-12zu", n);
    for (double theta : thetas) {
      TransactionJaccard sim(sample);
      for (Engine engine : engines) {
        RockOptions opt;
        opt.theta = theta;
        opt.num_clusters = 10;
        opt.outlier_stop_multiple = 3.0;
        opt.min_cluster_support = 5;
        opt.graph_threads = threads;
        // Best of `reps` by stage.merge, the gated figure.
        std::optional<RockResult> result;
        double seconds = 0.0;
        for (size_t rep = 0; rep < reps; ++rep) {
          Timer timer;
          auto run = RunCell(sim, opt, engine);
          const double s = timer.ElapsedSeconds();
          if (!run.ok()) {
            std::fprintf(stderr, "ROCK failed: %s\n",
                         run.status().ToString().c_str());
            return 1;
          }
          if (!result || bench::StageSeconds(run->metrics, "merge") <
                             bench::StageSeconds(result->metrics, "merge")) {
            result = std::move(*run);
            seconds = s;
          }
        }
        if (engine == engines.front()) {
          std::printf("%8.2f", seconds);
          std::fflush(stdout);
        }
        char label[64];
        std::snprintf(label, sizeof(label), "n=%zu θ=%.1f %s", n, theta,
                      EngineName(engine));
        perf.BeginEntry(label);
        perf.Param("n", std::to_string(n));
        char theta_str[16];
        std::snprintf(theta_str, sizeof(theta_str), "%.1f", theta);
        perf.Param("theta", theta_str);
        perf.Param("engine", EngineName(engine));
        perf.Param("threads", std::to_string(threads));
        perf.AddRunMetrics(result->metrics);
        breakdowns.emplace_back(label, std::move(result->metrics));
      }
    }
    std::printf("\n");
  }

  bench::Section("per-stage breakdown (diag metrics)");
  for (const auto& [label, metrics] : breakdowns) {
    bench::PrintStageBreakdown(label, metrics);
  }

  if (compare_engines) {
    bench::Section("merge-engine comparison (stage.merge seconds)");
    std::printf("%-24s %10s %10s %13s\n", "cell", "parallel", "hashed",
                "hashed/par");
    for (size_t i = 0; i + 1 < breakdowns.size(); i += 2) {
      const double par_s =
          bench::StageSeconds(breakdowns[i].second, "merge");
      const double hashed_s =
          bench::StageSeconds(breakdowns[i + 1].second, "merge");
      std::printf("%-24s %10.4f %10.4f %12.2fx\n",
                  breakdowns[i].first.c_str(), par_s, hashed_s,
                  par_s > 0.0 ? hashed_s / par_s : 0.0);
    }
  }

  perf.Write();
  std::printf("\nshape checks (paper): each column grows ~quadratically in "
              "sample size; rows decrease left→right (larger θ → fewer "
              "neighbors → cheaper links); within a row, link time should "
              "shrink with θ faster than neighbor time.\n");
  return 0;
}
