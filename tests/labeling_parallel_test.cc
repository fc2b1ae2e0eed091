// Tests for the sharded labeling engine: store shard planning / range
// readers (data/disk_store.h), the pruned Assign path vs its brute-force
// oracle, and the serial-vs-parallel LabelStore differential across thread
// counts × θ — the parallel path must be bit-identical to the serial one,
// including on an empty store and a store smaller than the shard count.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/labeling.h"
#include "data/disk_store.h"
#include "diag/metrics.h"
#include "synth/basket_generator.h"
#include "test_support.h"

namespace rock {
namespace {

class ShardedStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rock_shard_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             ".bin");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path() const { return path_.string(); }

  /// Writes `n` small transactions with varying sizes and a label per row.
  TransactionDataset WriteStore(size_t n, uint64_t seed) {
    ROCK_SEEDED_RNG(rng, seed);
    TransactionDataset ds;
    for (size_t i = 0; i < n; ++i) {
      const size_t len = 1 + static_cast<size_t>(rng.UniformUint64(6));
      std::vector<std::string> items;
      for (size_t k = 0; k < len; ++k) {
        items.push_back("item" + std::to_string(rng.UniformUint64(40)));
      }
      ds.AddTransaction(items);
      ds.labels().Append("class" + std::to_string(i % 3));
    }
    EXPECT_TRUE(WriteDatasetToStore(ds, path()).ok());
    return ds;
  }

 private:
  std::filesystem::path path_;
};

TEST_F(ShardedStoreTest, PlanShardsPartitionsEveryRowExactlyOnce) {
  WriteStore(97, 11);
  for (uint64_t max_shards : {1u, 2u, 3u, 7u, 16u, 97u, 200u}) {
    auto shards = TransactionStoreReader::PlanShards(path(), max_shards);
    ASSERT_TRUE(shards.ok()) << shards.status().ToString();
    ASSERT_FALSE(shards->empty());
    EXPECT_LE(shards->size(), std::min<uint64_t>(max_shards, 97));
    uint64_t row = 0;
    for (const StoreShardRange& range : *shards) {
      EXPECT_EQ(range.first_row, row) << "max_shards=" << max_shards;
      EXPECT_GT(range.num_rows, 0u);
      row += range.num_rows;
    }
    EXPECT_EQ(row, 97u) << "max_shards=" << max_shards;
  }
}

TEST_F(ShardedStoreTest, PlanShardsEmptyStoreYieldsNoShards) {
  WriteStore(0, 12);
  auto shards = TransactionStoreReader::PlanShards(path(), 8);
  ASSERT_TRUE(shards.ok());
  EXPECT_TRUE(shards->empty());
}

TEST_F(ShardedStoreTest, PlanShardsRejectsZeroAndMissingFile) {
  WriteStore(3, 13);
  EXPECT_TRUE(TransactionStoreReader::PlanShards(path(), 0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(TransactionStoreReader::PlanShards("/no/such/store.bin", 4)
                  .status()
                  .IsIOError());
}

TEST_F(ShardedStoreTest, RangeReadersReproduceTheSerialScan) {
  TransactionDataset ds = WriteStore(41, 14);
  auto shards = TransactionStoreReader::PlanShards(path(), 5);
  ASSERT_TRUE(shards.ok());

  std::vector<Transaction> rows;
  std::vector<LabelId> labels;
  for (const StoreShardRange& range : *shards) {
    auto reader = TransactionStoreReader::OpenRange(path(), range);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader->count(), range.num_rows);
    size_t got = 0;
    while (reader->Next()) {
      rows.push_back(reader->transaction());
      labels.push_back(reader->label());
      ++got;
    }
    ASSERT_TRUE(reader->status().ok()) << reader->status().ToString();
    EXPECT_EQ(got, range.num_rows);
  }
  ASSERT_EQ(rows.size(), ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(rows[i], ds.transaction(i)) << "row " << i;
    EXPECT_EQ(labels[i], ds.labels().label(i)) << "row " << i;
  }
}

TEST_F(ShardedStoreTest, RangeReaderRewindReturnsToRangeStart) {
  WriteStore(20, 15);
  auto shards = TransactionStoreReader::PlanShards(path(), 4);
  ASSERT_TRUE(shards.ok());
  ASSERT_GT(shards->size(), 1u);
  const StoreShardRange& range = (*shards)[1];
  auto reader = TransactionStoreReader::OpenRange(path(), range);
  ASSERT_TRUE(reader.ok());
  std::vector<Transaction> first_pass;
  while (reader->Next()) first_pass.push_back(reader->transaction());
  ASSERT_TRUE(reader->Rewind().ok());
  std::vector<Transaction> second_pass;
  while (reader->Next()) second_pass.push_back(reader->transaction());
  EXPECT_EQ(first_pass, second_pass);
  EXPECT_EQ(first_pass.size(), range.num_rows);
}

TEST_F(ShardedStoreTest, OpenRangeRejectsIllFittingRanges) {
  WriteStore(10, 16);
  StoreShardRange bad;
  bad.byte_offset = 0;  // inside the header
  bad.first_row = 0;
  bad.num_rows = 1;
  EXPECT_TRUE(TransactionStoreReader::OpenRange(path(), bad)
                  .status()
                  .IsInvalidArgument());
  StoreShardRange beyond;
  beyond.byte_offset = 20;
  beyond.first_row = 8;
  beyond.num_rows = 5;  // 8 + 5 > 10 rows
  EXPECT_TRUE(TransactionStoreReader::OpenRange(path(), beyond)
                  .status()
                  .IsInvalidArgument());
}

// ------------------------------------------------ pruned Assign vs oracle --

/// Clustered sample + labeler over basket-style data.
Result<TransactionLabeler> MakeLabeler(double theta, uint64_t seed,
                                       TransactionDataset* sample_out) {
  BasketGeneratorOptions gen;
  gen.cluster_sizes = {50, 35, 25};
  gen.items_per_cluster = {14, 12, 10};
  gen.num_outliers = 8;
  gen.seed = seed;
  TransactionDataset sample = std::move(GenerateBasketData(gen)).value();
  // Ground-truth-shaped clustering is fine here: the labeler only needs
  // *some* partition of the sample.
  std::vector<ClusterIndex> assignment(sample.size());
  for (size_t i = 0; i < sample.size(); ++i) {
    assignment[i] = static_cast<ClusterIndex>(i % 3);
  }
  RockOptions rock;
  rock.theta = theta;
  rock.num_clusters = 3;
  LabelingOptions opt;
  opt.fraction = 0.5;
  if (sample_out != nullptr) *sample_out = sample;
  return TransactionLabeler::Build(
      sample, Clustering::FromAssignment(std::move(assignment)), rock, opt);
}

TEST(PrunedAssignTest, MatchesBruteForceOracleAcrossThetas) {
  for (double theta : {0.0, 0.2, 0.5, 0.73, 0.95}) {
    ROCK_TRACE_SEED(21);
    TransactionDataset sample;
    auto labeler = MakeLabeler(theta, 21, &sample);
    ASSERT_TRUE(labeler.ok()) << labeler.status().ToString();

    TransactionLabeler::Scratch scratch;
    TransactionLabeler::AssignStats stats;
    ROCK_SEEDED_RNG(rng, 22);
    for (int trial = 0; trial < 300; ++trial) {
      // Probes drawn from the sample's own id space plus alien ids.
      const size_t len = static_cast<size_t>(rng.UniformUint64(9));
      std::vector<ItemId> items;
      for (size_t k = 0; k < len; ++k) {
        items.push_back(static_cast<ItemId>(rng.UniformUint64(80)));
      }
      const Transaction probe(std::move(items));
      EXPECT_EQ(labeler->Assign(probe, &scratch, &stats),
                labeler->AssignUnpruned(probe))
          << "theta=" << theta << " trial=" << trial;
    }
    // Edge probes: empty, all-alien, and a full sample transaction.
    EXPECT_EQ(labeler->Assign(Transaction{}, &scratch, nullptr),
              labeler->AssignUnpruned(Transaction{}));
    const Transaction alien({5000, 5001, 5002});
    EXPECT_EQ(labeler->Assign(alien, &scratch, nullptr),
              labeler->AssignUnpruned(alien));
    EXPECT_EQ(labeler->Assign(sample.transaction(0), &scratch, nullptr),
              labeler->AssignUnpruned(sample.transaction(0)));
  }
}

TEST(PrunedAssignTest, PruningActuallyFiresAtPositiveTheta) {
  TransactionDataset sample;
  auto labeler = MakeLabeler(0.5, 31, &sample);
  ASSERT_TRUE(labeler.ok());
  TransactionLabeler::AssignStats stats;
  TransactionLabeler::Scratch scratch;
  // An alien probe shares no items: every cluster must be pruned and no
  // similarity computed.
  labeler->Assign(Transaction({9000, 9001}), &scratch, &stats);
  EXPECT_EQ(stats.clusters_pruned, labeler->num_clusters());
  EXPECT_EQ(stats.clusters_scored, 0u);
  EXPECT_EQ(stats.similarities_computed, 0u);
  // A tiny probe against 15-ish-item labeling points at θ=0.5: everything
  // the item index lets through must then fail the length bound.
  TransactionLabeler::AssignStats small;
  labeler->Assign(sample.transaction(0).empty()
                      ? Transaction({0})
                      : Transaction({sample.transaction(0).items()[0]}),
                  &scratch, &small);
  EXPECT_EQ(small.similarities_computed, 0u);
  EXPECT_GT(small.points_skipped_length + small.clusters_pruned, 0u);
}

// --------------------------------------- serial vs parallel differential --

class ParallelLabelStoreTest : public ShardedStoreTest {};

TEST_F(ParallelLabelStoreTest, BitIdenticalAcrossThreadCountsAndThetas) {
  BasketGeneratorOptions gen;
  gen.cluster_sizes = {120, 90, 60};
  gen.items_per_cluster = {14, 12, 10};
  gen.num_outliers = 20;
  gen.seed = 41;
  TransactionDataset store_data = std::move(GenerateBasketData(gen)).value();
  ASSERT_TRUE(WriteDatasetToStore(store_data, path()).ok());

  for (double theta : {0.3, 0.5, 0.73}) {
    ROCK_TRACE_SEED(42);
    auto labeler = MakeLabeler(theta, 42, nullptr);
    ASSERT_TRUE(labeler.ok()) << labeler.status().ToString();

    LabelStoreOptions serial;
    serial.num_threads = 1;
    auto reference = LabelStore(path(), *labeler, serial);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_EQ(reference->assignments.size(), store_data.size());

    for (size_t threads : {2u, 3u, 5u, 8u}) {
      LabelStoreOptions parallel;
      parallel.num_threads = threads;
      auto result = LabelStore(path(), *labeler, parallel);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->assignments, reference->assignments)
          << "theta=" << theta << " threads=" << threads;
      EXPECT_EQ(result->ground_truth, reference->ground_truth);
      EXPECT_EQ(result->num_outliers, reference->num_outliers);
      // Pruning counters are per-row sums, so they are thread-invariant.
      EXPECT_EQ(result->stats.clusters_pruned,
                reference->stats.clusters_pruned);
      EXPECT_EQ(result->stats.clusters_scored,
                reference->stats.clusters_scored);
      EXPECT_EQ(result->stats.points_skipped_length,
                reference->stats.points_skipped_length);
      EXPECT_EQ(result->stats.similarities_computed,
                reference->stats.similarities_computed);
      EXPECT_EQ(result->threads_used, threads);
      EXPECT_GT(result->shards, 1u);
    }

    // And the whole engine agrees with the brute-force oracle per row.
    auto reader = TransactionStoreReader::Open(path());
    ASSERT_TRUE(reader.ok());
    size_t row = 0;
    while (reader->Next()) {
      ASSERT_EQ(reference->assignments[row],
                labeler->AssignUnpruned(reader->transaction()))
          << "row " << row << " theta=" << theta;
      ++row;
    }
  }
}

TEST_F(ParallelLabelStoreTest, EmptyStoreWorksAtAnyThreadCount) {
  WriteStore(0, 51);
  auto labeler = MakeLabeler(0.5, 51, nullptr);
  ASSERT_TRUE(labeler.ok());
  for (size_t threads : {1u, 4u, 8u}) {
    LabelStoreOptions opt;
    opt.num_threads = threads;
    auto result = LabelStore(path(), *labeler, opt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->assignments.empty());
    EXPECT_TRUE(result->ground_truth.empty());
    EXPECT_EQ(result->num_outliers, 0u);
    EXPECT_EQ(result->shards, 0u);
  }
}

TEST_F(ParallelLabelStoreTest, StoreSmallerThanShardCount) {
  TransactionDataset tiny = WriteStore(3, 52);
  auto labeler = MakeLabeler(0.5, 52, nullptr);
  ASSERT_TRUE(labeler.ok());
  LabelStoreOptions serial;
  serial.num_threads = 1;
  auto reference = LabelStore(path(), *labeler, serial);
  ASSERT_TRUE(reference.ok());
  LabelStoreOptions wide;
  wide.num_threads = 16;  // 16 workers, 4×16 wanted shards, only 3 rows
  auto result = LabelStore(path(), *labeler, wide);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->assignments, reference->assignments);
  EXPECT_EQ(result->ground_truth, reference->ground_truth);
  EXPECT_LE(result->shards, 3u);
}

TEST_F(ParallelLabelStoreTest, RecordsLabelingMetrics) {
  WriteStore(30, 53);
  auto labeler = MakeLabeler(0.5, 53, nullptr);
  ASSERT_TRUE(labeler.ok());
  diag::MetricsRegistry registry;
  LabelStoreOptions opt;
  opt.num_threads = 2;
  opt.metrics = &registry;
  auto result = LabelStore(path(), *labeler, opt);
  ASSERT_TRUE(result.ok());
  const diag::RunMetrics m = registry.Snapshot();
  EXPECT_EQ(m.CounterOr("label.threads"), 2u);
  EXPECT_GT(m.CounterOr("label.shards"), 0u);
  EXPECT_EQ(m.CounterOr("label.clusters_scored") +
                m.CounterOr("label.clusters_pruned"),
            result->stats.clusters_scored + result->stats.clusters_pruned);
  EXPECT_NE(m.FindTimer("stage.label_scan"), nullptr);
  const double rate = m.GaugeOr("label.prune_hit_rate", -1.0);
  EXPECT_GE(rate, 0.0);
  EXPECT_LE(rate, 1.0);
}

// One stage.label.shard observation per shard scanned in the call — none
// for shards restored from a resume state — and the same rows at 1 and 4
// threads.
TEST_F(ParallelLabelStoreTest, RecordsOneShardTimerPerScannedShard) {
  WriteStore(60, 55);
  auto labeler = MakeLabeler(0.5, 55, nullptr);
  ASSERT_TRUE(labeler.ok());
  LabelStoreOptions serial;
  serial.num_shards = 6;
  auto reference = LabelStore(path(), *labeler, serial);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->shards, 6u);

  // Every other shard restored from the reference run's own rows.
  std::vector<uint8_t> done(6, 0);
  for (size_t s = 0; s < done.size(); s += 2) done[s] = 1;
  const std::vector<TransactionLabeler::AssignStats> stats(6);
  const std::vector<uint64_t> outliers(6, 0);
  LabelResumeState resume;
  resume.num_shards = 6;
  resume.shard_done = &done;
  resume.assignments = &reference->assignments;
  resume.ground_truth = &reference->ground_truth;
  resume.shard_stats = &stats;
  resume.shard_outliers = &outliers;

  const LabelResumeState* const resumes[] = {nullptr, &resume};
  for (size_t threads : {1u, 4u}) {
    for (const LabelResumeState* from : resumes) {
      diag::MetricsRegistry registry;
      LabelStoreOptions opt;
      opt.num_threads = threads;
      opt.num_shards = 6;
      opt.resume = from;
      opt.metrics = &registry;
      auto result = LabelStore(path(), *labeler, opt);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->assignments, reference->assignments)
          << "threads=" << threads;
      EXPECT_EQ(result->ground_truth, reference->ground_truth);
      EXPECT_EQ(result->shards_skipped, from == nullptr ? 0u : 3u);

      const diag::RunMetrics m = registry.Snapshot();
      const diag::TimerStats* shard = m.FindTimer("stage.label.shard");
      ASSERT_NE(shard, nullptr) << "threads=" << threads;
      EXPECT_EQ(shard->count, result->shards - result->shards_skipped)
          << "threads=" << threads;
      const diag::TimerStats* plan = m.FindTimer("stage.label.plan");
      ASSERT_NE(plan, nullptr);
      EXPECT_EQ(plan->count, 1u);
      const double busy_max = m.GaugeOr("label.worker_busy_max_s", -1.0);
      const double busy_min = m.GaugeOr("label.worker_busy_min_s", -1.0);
      EXPECT_GE(busy_min, 0.0);
      EXPECT_GE(busy_max, busy_min);
      EXPECT_LE(busy_max, shard->total_seconds);
    }
  }
}

TEST_F(ParallelLabelStoreTest, MissingStoreFailsCleanly) {
  auto labeler = MakeLabeler(0.5, 54, nullptr);
  ASSERT_TRUE(labeler.ok());
  LabelStoreOptions opt;
  opt.num_threads = 4;
  EXPECT_TRUE(
      LabelStore("/no/such/store.bin", *labeler, opt).status().IsIOError());
}

}  // namespace
}  // namespace rock
