// bench_table6_misclassification — reproduces paper Table 6: number of
// misclassified transactions on the 114,586-row synthetic database as a
// function of the random-sample size (1000 … 5000) for θ = 0.5 and θ = 0.6,
// using the full Fig. 2 pipeline (reservoir sample from disk → cluster →
// label the whole store from disk).
//
// Paper values:  sample   θ=0.5   θ=0.6
//                 1000      37     8123
//                 2000       0     1051
//                 3000       0      384
//                 4000       0      104
//                 5000       0        8

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "core/sampling.h"
#include "data/disk_store.h"
#include "diag/metrics.h"
#include "eval/contingency.h"
#include "eval/metrics.h"
#include "similarity/jaccard.h"
#include "synth/basket_generator.h"

int main(int argc, char** argv) {
  using namespace rock;
  bench::Banner("Table 6 — misclassified transactions vs sample size");

  // Smaller scale via argv[1] (fraction of the paper's database) for quick
  // runs; default = full 114,586 rows.
  const double scale = argc > 1 ? std::atof(argv[1]) : 1.0;
  BasketGeneratorOptions gen;
  if (scale != 1.0) {
    for (auto& s : gen.cluster_sizes) {
      s = static_cast<size_t>(static_cast<double>(s) * scale);
    }
    gen.num_outliers =
        static_cast<size_t>(static_cast<double>(gen.num_outliers) * scale);
  }

  Timer gen_timer;
  auto ds = GenerateBasketData(gen);
  if (!ds.ok()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 ds.status().ToString().c_str());
    return 1;
  }
  const auto store_path =
      std::filesystem::temp_directory_path() / "rock_table6_store.bin";
  if (Status s = WriteDatasetToStore(*ds, store_path.string()); !s.ok()) {
    std::fprintf(stderr, "store write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("database: %zu transactions on disk (%.1fs to generate+write)\n",
              ds->size(), gen_timer.ElapsedSeconds());

  // Ground-truth outlier label id for the misclassification rule.
  LabelId outlier_label = kNoLabel;
  for (LabelId l = 0; l < ds->labels().num_classes(); ++l) {
    if (ds->labels().Name(l) == gen.outlier_label) outlier_label = l;
  }

  std::printf("\n%-12s %14s %14s %14s %14s\n", "sample size",
              "miscl θ=0.5", "paper θ=0.5", "miscl θ=0.6", "paper θ=0.6");
  const size_t paper_05[] = {37, 0, 0, 0, 0};
  const size_t paper_06[] = {8123, 1051, 384, 104, 8};
  const size_t samples[] = {1000, 2000, 3000, 4000, 5000};
  for (size_t i = 0; i < 5; ++i) {
    const size_t sample_size = static_cast<size_t>(
        static_cast<double>(samples[i]) * (scale == 1.0 ? 1.0 : scale));
    uint64_t misclassified[2] = {0, 0};
    int slot = 0;
    for (double theta : {0.5, 0.6}) {
      PipelineOptions opt;
      opt.rock.theta = theta;
      opt.rock.num_clusters = 10;
      opt.rock.outlier_stop_multiple = 3.0;
      opt.rock.min_cluster_support = 5;
      opt.sample_size = sample_size;
      opt.labeling.fraction = 0.25;
      opt.seed = 42 + i;
      auto result = RunRockPipeline(store_path.string(), opt);
      if (!result.ok()) {
        std::fprintf(stderr, "pipeline failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      auto table = ContingencyTable::Build(
          result->labeling.assignments, result->labeling.ground_truth,
          result->sample_result.clustering.num_clusters(),
          ds->labels().num_classes());
      if (!table.ok()) {
        std::fprintf(stderr, "contingency failed: %s\n",
                     table.status().ToString().c_str());
        return 1;
      }
      MisclassificationOptions mopt;
      mopt.outlier_label = outlier_label;
      misclassified[slot++] = MisclassificationCount(*table, mopt);
    }
    std::printf("%-12zu %14llu %14zu %14llu %14zu\n", sample_size,
                static_cast<unsigned long long>(misclassified[0]),
                paper_05[i],
                static_cast<unsigned long long>(misclassified[1]),
                paper_06[i]);
  }
  std::printf("\npaper's reading: θ=0.5 is near-perfect from 2000 samples; "
              "θ=0.6 needs larger samples because cluster items overlap "
              "40%% and transactions can be as small as 11 — a lower θ "
              "makes more same-cluster pairs neighbors (§5.4).\n");

  // ------------------------------------------------------ labeling engine --
  // §4.6 labeling throughput over the full store: the pre-index brute-force
  // scan (AssignUnpruned per row, the seed engine) vs the sharded LabelStore
  // engine with the bit-sliced kernel, serial and at 4 threads. All three
  // must produce identical assignments.
  bench::Banner(
      "labeling engine — brute force vs bit-sliced, serial vs sharded");
  {
    const double theta = 0.5;
    const size_t sample_size = static_cast<size_t>(
        2000.0 * (scale == 1.0 ? 1.0 : scale));
    RockOptions rock;
    rock.theta = theta;
    rock.num_clusters = 10;
    rock.outlier_stop_multiple = 3.0;
    rock.min_cluster_support = 5;

    // Mirror the Fig. 2 pipeline up to the labeler: reservoir-sample the
    // store, cluster the sample, build the labeler.
    Rng rng(42);
    auto reader = TransactionStoreReader::Open(store_path.string());
    if (!reader.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   reader.status().ToString().c_str());
      return 1;
    }
    ReservoirSampler<Transaction> sampler(sample_size, &rng);
    while (reader->Next()) sampler.Offer(reader->transaction());
    std::vector<size_t> order(sampler.sample().size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return sampler.sample_indices()[a] < sampler.sample_indices()[b];
    });
    TransactionDataset sample;
    for (size_t idx : order) sample.AddTransaction(sampler.sample()[idx]);
    TransactionJaccard sim(sample);
    RockClusterer clusterer(rock);
    auto clustered = clusterer.Cluster(sim);
    if (!clustered.ok()) {
      std::fprintf(stderr, "clustering failed: %s\n",
                   clustered.status().ToString().c_str());
      return 1;
    }
    LabelingOptions lopt;
    lopt.fraction = 0.25;
    auto labeler = TransactionLabeler::Build(sample, clustered->clustering,
                                             rock, lopt);
    if (!labeler.ok()) {
      std::fprintf(stderr, "labeler build failed: %s\n",
                   labeler.status().ToString().c_str());
      return 1;
    }

    // Baseline: serial brute-force scan, exactly the pre-index engine.
    Timer brute_timer;
    std::vector<ClusterIndex> brute;
    brute.reserve(ds->size());
    if (Status s = reader->Rewind(); !s.ok()) {
      std::fprintf(stderr, "rewind failed: %s\n", s.ToString().c_str());
      return 1;
    }
    while (reader->Next()) {
      brute.push_back(labeler->AssignUnpruned(reader->transaction()));
    }
    const double brute_s = brute_timer.ElapsedSeconds();
    const double rows = static_cast<double>(brute.size());

    diag::MetricsRegistry metrics;
    LabelStoreOptions serial_opt;
    serial_opt.num_threads = 1;
    serial_opt.metrics = &metrics;
    auto serial = LabelStore(store_path.string(), *labeler, serial_opt);
    LabelStoreOptions wide_opt;
    wide_opt.num_threads = 4;
    auto wide = LabelStore(store_path.string(), *labeler, wide_opt);
    if (!serial.ok() || !wide.ok()) {
      std::fprintf(stderr, "label scan failed\n");
      return 1;
    }
    if (serial->assignments != brute || wide->assignments != brute) {
      std::fprintf(stderr, "ENGINE MISMATCH: bit-sliced/sharded assignments "
                           "differ from brute force\n");
      return 1;
    }
    const diag::RunMetrics snap = metrics.Snapshot();
    std::printf("%zu rows, %zu clusters, θ=%.1f — all engines identical\n",
                brute.size(), labeler->num_clusters(), theta);
    std::printf("%-28s %10s %14s %9s\n", "engine", "seconds", "tx/sec",
                "speedup");
    std::printf("%-28s %10.3f %14.0f %9s\n", "brute force (seed engine)",
                brute_s, rows / brute_s, "1.0x");
    std::printf("%-28s %10.3f %14.0f %8.1fx\n", "bit-sliced, 1 thread",
                serial->seconds, rows / serial->seconds,
                brute_s / serial->seconds);
    std::printf("%-28s %10.3f %14.0f %8.1fx  (%zu shards)\n",
                "bit-sliced, 4 threads", wide->seconds, rows / wide->seconds,
                brute_s / wide->seconds, wide->shards);
    size_t labeling_points = 0;
    for (size_t c = 0; c < labeler->num_clusters(); ++c) {
      labeling_points += labeler->labeling_set_size(c);
    }
    std::printf("prune hit rate %.3f, length-bound skips %llu, "
                "similarities computed %llu (of %llu brute-force)\n",
                snap.GaugeOr("label.prune_hit_rate"),
                static_cast<unsigned long long>(
                    serial->stats.points_skipped_length),
                static_cast<unsigned long long>(
                    serial->stats.similarities_computed),
                static_cast<unsigned long long>(brute.size() *
                                                labeling_points));
  }

  std::filesystem::remove(store_path);
  return 0;
}
