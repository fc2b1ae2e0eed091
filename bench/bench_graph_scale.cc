// bench_graph_scale — graph-build scaling harness for the neighbor + link
// engines (the two phases the paper's §4.5 cost model calls O(n²) and
// O(Σ mᵢ²)). Measures stage.neighbors + stage.links on Fig. 5 synthetic
// baskets at n ∈ {5k, 20k, 50k} under two engine configurations:
//
//   baseline — kAuto neighbors on a single thread, with the bit-plane link
//              pass (which over the packing budget at large n runs the
//              exact scatter pass instead).
//   auto     — kAuto neighbors (dense sweep vs ScanCount from the data) +
//              kAuto links (plane vs dense ScanCount scatter),
//              multi-threaded.
//
// The auto run is differentially checked against the baseline run: it
// must reproduce the graph and the link aggregates bit-identically.
//
// Usage: bench_graph_scale [--theta=0.73] [--ns=5000,20000,50000]
//                          [--threads=8] [--seed=7]
//
// Appends to the machine-readable perf trajectory (BENCH_rock.json or
// $ROCK_BENCH_JSON): one entry per (n, engine) with stage.neighbors,
// stage.links and their sum stage.graph. The entries are report-only; no
// CI gate reads them.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "core/sampling.h"
#include "graph/link_engine.h"
#include "graph/neighbor_engine.h"
#include "similarity/jaccard.h"
#include "synth/basket_generator.h"

namespace {

using namespace rock;

struct Cell {
  NeighborGraph graph;
  uint64_t nonzero_pairs = 0;
  uint64_t total_links = 0;
  double nbr_seconds = 0;
  double link_seconds = 0;
};

uint64_t EdgeCount(const NeighborGraph& graph) {
  uint64_t twice = 0;
  for (const auto& row : graph.nbrlist) twice += row.size();
  return twice / 2;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Banner("graph scale — neighbor + link engines vs n");

  double theta = 0.73;
  size_t threads = 8;
  uint64_t seed = 7;
  std::vector<size_t> ns = {5000, 20000, 50000};
  for (int a = 1; a < argc; ++a) {
    if (std::strncmp(argv[a], "--theta=", 8) == 0) {
      theta = std::atof(argv[a] + 8);
    } else if (std::strncmp(argv[a], "--threads=", 10) == 0) {
      threads = static_cast<size_t>(std::atoll(argv[a] + 10));
    } else if (std::strncmp(argv[a], "--seed=", 7) == 0) {
      seed = static_cast<uint64_t>(std::atoll(argv[a] + 7));
    } else if (std::strncmp(argv[a], "--ns=", 5) == 0) {
      ns.clear();
      for (const char* p = argv[a] + 5; *p != '\0';) {
        ns.push_back(static_cast<size_t>(std::atoll(p)));
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[a]);
      return 2;
    }
  }

  size_t max_n = 0;
  for (const size_t n : ns) max_n = n > max_n ? n : max_n;
  BasketGeneratorOptions gen;
  {
    // Scale the Fig. 5 database so the largest requested n fits.
    size_t base = gen.num_outliers;
    for (const size_t s : gen.cluster_sizes) base += s;
    const double scale =
        base < max_n ? static_cast<double>(max_n) / static_cast<double>(base)
                     : 1.0;
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
  std::printf("database: %zu transactions, θ = %.2f, threads = %zu\n",
              ds->size(), theta, threads);

  bench::PerfJsonWriter perf("bench_graph_scale");

  std::printf("\n%-8s %-10s %12s %12s %12s %10s\n", "n", "engine",
              "neighbors", "links", "graph", "edges");

  Rng rng(seed);
  for (const size_t n : ns) {
    if (n > ds->size()) {
      std::fprintf(stderr, "skipping n=%zu (database has %zu)\n", n,
                   ds->size());
      continue;
    }
    const std::vector<size_t> rows = SampleIndices(ds->size(), n, &rng);
    TransactionDataset sample;
    for (const size_t r : rows) sample.AddTransaction(ds->transaction(r));
    const TransactionJaccard sim(sample);

    Cell baseline;
    double auto_graph_seconds = 0;
    const struct {
      const char* name;
      size_t threads;
      PackedLinkStrategy links;
    } engines[] = {
        {"baseline", 1, PackedLinkStrategy::kPlane},
        {"auto", threads, PackedLinkStrategy::kAuto},
    };
    for (const auto& engine : engines) {
      diag::MetricsRegistry registry;
      PackedNeighborOptions nopts;
      nopts.num_threads = engine.threads;
      nopts.metrics = &registry;
      Timer nbr_timer;
      auto graph = ComputeNeighborsPacked(sim, theta, nopts);
      const double nbr_seconds = nbr_timer.ElapsedSeconds();
      if (!graph.ok()) {
        std::fprintf(stderr, "neighbors failed: %s\n",
                     graph.status().ToString().c_str());
        return 1;
      }

      PackedLinkOptions lopts;
      lopts.num_threads = engine.threads;
      lopts.strategy = engine.links;
      lopts.metrics = &registry;
      Timer link_timer;
      const LinkMatrix links = ComputeLinksPacked(*graph, lopts);
      const double link_seconds = link_timer.ElapsedSeconds();

      const diag::RunMetrics m = registry.Snapshot();
      if (std::strcmp(engine.name, "baseline") == 0) {
        baseline.graph = std::move(*graph);
        baseline.nonzero_pairs = links.NumNonZeroPairs();
        baseline.total_links = links.TotalLinks();
        baseline.nbr_seconds = nbr_seconds;
        baseline.link_seconds = link_seconds;
      } else {
        // The auto configuration must reproduce the baseline graph (and
        // with it the link matrix aggregates) bit-identically.
        if (graph->nbrlist != baseline.graph.nbrlist) {
          std::fprintf(stderr, "FAIL: %s n=%zu exact graph differs\n",
                       engine.name, n);
          return 1;
        }
        if (links.NumNonZeroPairs() != baseline.nonzero_pairs ||
            links.TotalLinks() != baseline.total_links) {
          std::fprintf(stderr, "FAIL: %s n=%zu link aggregates differ\n",
                       engine.name, n);
          return 1;
        }
      }

      const double graph_seconds = nbr_seconds + link_seconds;
      if (std::strcmp(engine.name, "auto") == 0) {
        auto_graph_seconds = graph_seconds;
      }
      std::printf("%-8zu %-10s %11.3fs %11.3fs %11.3fs %10llu\n", n,
                  engine.name, nbr_seconds, link_seconds, graph_seconds,
                  static_cast<unsigned long long>(EdgeCount(baseline.graph)));
      std::fflush(stdout);

      char label[64];
      std::snprintf(label, sizeof(label), "n=%zu θ=%.2f %s", n, theta,
                    engine.name);
      perf.BeginEntry(label);
      perf.Param("n", std::to_string(n));
      char theta_str[16];
      std::snprintf(theta_str, sizeof(theta_str), "%.2f", theta);
      perf.Param("theta", theta_str);
      perf.Param("engine", engine.name);
      perf.Timer("stage.neighbors", nbr_seconds);
      perf.Timer("stage.links", link_seconds);
      perf.Timer("stage.graph", graph_seconds);
      perf.Counter("graph.edges", EdgeCount(baseline.graph));
      perf.AddRunMetrics(m);
    }
    const double base_graph = baseline.nbr_seconds + baseline.link_seconds;
    std::printf("%-8s auto speedup over baseline: %.2fx\n", "",
                auto_graph_seconds > 0 ? base_graph / auto_graph_seconds : 0);
  }

  perf.Write();
  return 0;
}
