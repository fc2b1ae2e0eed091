// tests/pipeline_resume_test.cc — crash-safe resumable pipeline.
//
// The differential harness this PR exists for: run the disk pipeline
// uninterrupted, run it again with a deterministic fault schedule that
// kills it mid-flight, resume from the checkpoint, and require the resumed
// output to be bit-identical to the uninterrupted run — across shard
// plans, label-thread counts and θ. Plus checkpoint format round-trip and
// corruption handling (a torn or bit-rotted checkpoint must cause a clean
// restart, never wrong labels), and the end-to-end golden-determinism
// check across thread counts against the paper-literal reference.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "data/dataset.h"
#include "data/disk_store.h"
#include "data/transaction.h"
#include "reference_rock.h"
#include "similarity/jaccard.h"
#include "test_support.h"
#include "util/failpoint.h"

namespace rock {
namespace {

namespace fs = std::filesystem;

constexpr size_t kStoreRows = 120;

std::string TempPath(const std::string& stem) {
  return (fs::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid()) + ".bin"))
      .string();
}

/// Three well-separated transaction groups (disjoint item ranges), so the
/// sample clusters cleanly and every θ in the grid labels deterministically.
TransactionDataset MakeGroupedDataset(size_t rows, uint64_t seed) {
  Rng rng(seed);
  TransactionDataset data;
  for (size_t i = 0; i < rows; ++i) {
    const uint32_t group = static_cast<uint32_t>(i % 3);
    std::vector<ItemId> items;
    const size_t k = 4 + static_cast<size_t>(rng.UniformUint64(4));
    for (size_t j = 0; j < k; ++j) {
      items.push_back(group * 100 +
                      static_cast<ItemId>(rng.UniformUint64(20)));
    }
    data.AddTransaction(Transaction(std::move(items)));
    data.labels().Append("g" + std::to_string(group));
  }
  return data;
}

void ExpectAssignStatsEq(const TransactionLabeler::AssignStats& a,
                         const TransactionLabeler::AssignStats& b) {
  EXPECT_EQ(a.clusters_pruned, b.clusters_pruned);
  EXPECT_EQ(a.clusters_scored, b.clusters_scored);
  EXPECT_EQ(a.points_skipped_length, b.points_skipped_length);
  EXPECT_EQ(a.similarities_computed, b.similarities_computed);
}

void ExpectMergesEq(const std::vector<MergeRecord>& a,
                    const std::vector<MergeRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].left, b[i].left) << "merge " << i;
    EXPECT_EQ(a[i].right, b[i].right) << "merge " << i;
    EXPECT_EQ(a[i].merged, b[i].merged) << "merge " << i;
    EXPECT_EQ(a[i].goodness, b[i].goodness) << "merge " << i;
    EXPECT_EQ(a[i].new_size, b[i].new_size) << "merge " << i;
  }
}

/// The differential oracle: everything a user can observe from a pipeline
/// run must be bit-identical between `got` and the uninterrupted `want`.
void ExpectSameOutputs(const PipelineResult& got, const PipelineResult& want) {
  EXPECT_EQ(got.sample_rows, want.sample_rows);
  EXPECT_EQ(got.sample_result.clustering.assignment,
            want.sample_result.clustering.assignment);
  EXPECT_EQ(got.sample_result.clustering.clusters,
            want.sample_result.clustering.clusters);
  ExpectMergesEq(got.sample_result.merges, want.sample_result.merges);
  EXPECT_EQ(got.labeling.assignments, want.labeling.assignments);
  EXPECT_EQ(got.labeling.ground_truth, want.labeling.ground_truth);
  EXPECT_EQ(got.labeling.num_outliers, want.labeling.num_outliers);
  ExpectAssignStatsEq(got.labeling.stats, want.labeling.stats);
}

class PipelineResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::Clear();
    store_path_ = TempPath("rock_resume_store");
    ckpt_path_ = TempPath("rock_resume_ckpt");
    ASSERT_TRUE(
        WriteDatasetToStore(MakeGroupedDataset(kStoreRows, 0x90c4), store_path_)
            .ok());
  }

  void TearDown() override {
    fail::Clear();
    std::remove(store_path_.c_str());
    std::remove(ckpt_path_.c_str());
    std::remove((ckpt_path_ + ".tmp").c_str());
  }

  PipelineOptions BaseOptions(double theta, size_t label_threads) const {
    PipelineOptions opt;
    opt.rock.theta = theta;
    opt.rock.num_clusters = 3;
    opt.rock.label_threads = label_threads;
    opt.sample_size = 60;
    opt.seed = 2026;
    opt.labeling.seed = 11;
    return opt;
  }

  std::string store_path_;
  std::string ckpt_path_;
};

// ---------------------------------------------------------------------------
// Checkpoint format.

TEST_F(PipelineResumeTest, CheckpointRoundTripsEveryField) {
  PipelineCheckpoint cp;
  cp.fingerprint.store_count = 5;
  cp.fingerprint.theta = 0.62;
  cp.fingerprint.num_clusters = 3;
  cp.fingerprint.min_neighbors = 1;
  cp.fingerprint.outlier_stop_multiple = 1.5;
  cp.fingerprint.min_cluster_support = 2;
  cp.fingerprint.sample_size = 4;
  cp.fingerprint.sample_seed = 99;
  cp.fingerprint.labeling_fraction = 0.25;
  cp.fingerprint.min_labeling_points = 8;
  cp.fingerprint.labeling_seed = 7;
  cp.sample_rows = {0, 1, 3, 4};
  cp.sample = {Transaction({1, 2, 3}), Transaction({2, 3}), Transaction({7}),
               Transaction(std::vector<ItemId>{})};
  cp.clustering = Clustering::FromAssignment({0, 0, 1, kUnassigned});
  cp.merges = {MergeRecord{1, 2, 4, 0.75, 3}};
  cp.stats.num_points = 4;
  cp.num_shards = 2;
  cp.shard_done = {1, 0};
  cp.shard_stats.resize(2);
  cp.shard_stats[0].clusters_scored = 6;
  cp.shard_stats[0].similarities_computed = 9;
  cp.shard_outliers = {1, 0};
  cp.assignments = {0, 0, 1, kUnassigned, kUnassigned};
  cp.ground_truth = {0, 0, 1, 1, kNoLabel};

  ASSERT_TRUE(SaveCheckpoint(cp, ckpt_path_).ok());
  auto loaded = LoadCheckpoint(ckpt_path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_TRUE(loaded->fingerprint == cp.fingerprint);
  EXPECT_EQ(loaded->sample_rows, cp.sample_rows);
  ASSERT_EQ(loaded->sample.size(), cp.sample.size());
  for (size_t i = 0; i < cp.sample.size(); ++i) {
    EXPECT_EQ(loaded->sample[i].items(), cp.sample[i].items()) << i;
  }
  EXPECT_EQ(loaded->clustering.assignment, cp.clustering.assignment);
  EXPECT_EQ(loaded->clustering.clusters, cp.clustering.clusters);
  ExpectMergesEq(loaded->merges, cp.merges);
  EXPECT_EQ(loaded->stats.num_points, cp.stats.num_points);
  EXPECT_EQ(loaded->num_shards, cp.num_shards);
  EXPECT_EQ(loaded->shard_done, cp.shard_done);
  ExpectAssignStatsEq(loaded->shard_stats[0], cp.shard_stats[0]);
  ExpectAssignStatsEq(loaded->shard_stats[1], cp.shard_stats[1]);
  EXPECT_EQ(loaded->shard_outliers, cp.shard_outliers);
  EXPECT_EQ(loaded->assignments, cp.assignments);
  EXPECT_EQ(loaded->ground_truth, cp.ground_truth);
}

TEST_F(PipelineResumeTest, LoadCheckpointRejectsEveryCorruptionShape) {
  PipelineCheckpoint cp;
  cp.fingerprint.store_count = 3;
  cp.fingerprint.sample_size = 2;
  cp.sample_rows = {0, 2};
  cp.sample = {Transaction({1, 2}), Transaction({3, 4})};
  cp.clustering = Clustering::FromAssignment({0, 1});
  cp.num_shards = 1;
  cp.shard_done = {0};
  cp.shard_stats.resize(1);
  cp.shard_outliers = {0};
  cp.assignments = {kUnassigned, kUnassigned, kUnassigned};
  cp.ground_truth = {kNoLabel, kNoLabel, kNoLabel};
  ASSERT_TRUE(SaveCheckpoint(cp, ckpt_path_).ok());

  std::FILE* f = std::fopen(ckpt_path_.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<unsigned char> bytes;
  unsigned char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  ASSERT_GT(bytes.size(), 24u);

  auto write_bytes = [&](const std::vector<unsigned char>& b) {
    std::FILE* out = std::fopen(ckpt_path_.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    if (!b.empty()) {
      ASSERT_EQ(std::fwrite(b.data(), 1, b.size(), out), b.size());
    }
    std::fclose(out);
  };

  ROCK_SEEDED_RNG(rng, 0xc4c4ULL);
  // Random truncations and single-bit flips over the whole file.
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    std::vector<unsigned char> mutated = bytes;
    if (trial % 2 == 0) {
      mutated.resize(static_cast<size_t>(rng.UniformUint64(bytes.size())));
    } else {
      const size_t i = static_cast<size_t>(rng.UniformUint64(bytes.size()));
      mutated[i] =
          static_cast<unsigned char>(mutated[i] ^ (1u << rng.UniformUint64(8)));
    }
    write_bytes(mutated);
    auto r = LoadCheckpoint(ckpt_path_);
    ASSERT_FALSE(r.ok()) << "corrupt checkpoint loaded silently";
    EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  }

  // Trailing garbage (payload size mismatch — the torn-write shape).
  std::vector<unsigned char> longer = bytes;
  longer.push_back(0xab);
  write_bytes(longer);
  EXPECT_TRUE(LoadCheckpoint(ckpt_path_).status().IsCorruption());

  // Version bump.
  std::vector<unsigned char> bumped = bytes;
  bumped[8] = static_cast<unsigned char>(bumped[8] + 1);
  write_bytes(bumped);
  EXPECT_TRUE(LoadCheckpoint(ckpt_path_).status().IsCorruption());

  // Missing file.
  std::remove(ckpt_path_.c_str());
  EXPECT_TRUE(LoadCheckpoint(ckpt_path_).status().IsIOError());
}

// ---------------------------------------------------------------------------
// Golden determinism (satellite): same seed → identical labels and merge
// history across label-thread counts, and the sample's merge history and
// clustering equal to the paper-literal reference on that sample. The
// test keeps the name it had while the pipeline could switch merge
// engines.

TEST_F(PipelineResumeTest, GoldenDeterminismAcrossEnginesAndThreads) {
  auto golden = RunRockPipeline(store_path_, BaseOptions(0.5, 1));
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();

  auto sample = ReadStoreRows(store_path_, golden->sample_rows);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  const TransactionJaccard sim(*sample);
  auto reference = ReferenceCluster(sim, BaseOptions(0.5, 1).rock);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ExpectMergesEq(reference->merges, golden->sample_result.merges);
  EXPECT_EQ(reference->clustering.assignment,
            golden->sample_result.clustering.assignment);
  EXPECT_EQ(reference->clustering.clusters,
            golden->sample_result.clustering.clusters);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "label_threads=" << threads);
    auto got = RunRockPipeline(store_path_, BaseOptions(0.5, threads));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameOutputs(*got, *golden);
  }
}

// ---------------------------------------------------------------------------
// The tentpole: deterministic crash → resume → bit-identical output, over a
// grid of fault schedules × shard plans × thread counts × θ.

struct CrashCase {
  double theta;
  size_t label_threads;    ///< shard plan: 1 thread → 1 shard, t → 4t shards
  uint64_t crash_hit;      ///< which "pipeline.checkpoint" hit crashes
  size_t min_skipped;      ///< shards the resumed run must at least skip
  bool expect_resumed;     ///< false when the crash precedes any checkpoint
};

class PipelineCrashGridTest : public PipelineResumeTest,
                              public ::testing::WithParamInterface<CrashCase> {
};

TEST_P(PipelineCrashGridTest, ResumeMatchesUninterruptedRunBitForBit) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  const CrashCase& c = GetParam();

  auto baseline = RunRockPipeline(store_path_, BaseOptions(c.theta, 1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Crash the run at the scheduled checkpoint write.
  auto crashed_opt = BaseOptions(c.theta, c.label_threads);
  crashed_opt.checkpoint_path = ckpt_path_;
  crashed_opt.rock.failpoints = "pipeline.checkpoint=fire_on_hit_" +
                                std::to_string(c.crash_hit) + ":crash";
  auto crashed = RunRockPipeline(store_path_, crashed_opt);
  ASSERT_FALSE(crashed.ok()) << "the injected crash must abort the run";
  EXPECT_TRUE(fail::IsInjectedCrash(crashed.status()))
      << crashed.status().ToString();

  // "Restart the process" and resume.
  fail::Clear();
  auto resumed_opt = BaseOptions(c.theta, c.label_threads);
  resumed_opt.checkpoint_path = ckpt_path_;
  resumed_opt.resume = true;
  auto resumed = RunRockPipeline(store_path_, resumed_opt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  EXPECT_EQ(resumed->resumed, c.expect_resumed);
  if (c.expect_resumed) {
    EXPECT_EQ(resumed->metrics.CounterOr("pipeline.resumed"), 1u);
    EXPECT_GE(resumed->shards_skipped, c.min_skipped);
  } else {
    EXPECT_EQ(resumed->metrics.CounterOr("checkpoint.missing"), 1u);
  }
  ExpectSameOutputs(*resumed, *baseline);
  EXPECT_FALSE(fs::exists(ckpt_path_))
      << "a completed run must delete its checkpoint";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PipelineCrashGridTest,
    ::testing::Values(
        // Crash before the very first checkpoint lands: nothing on disk,
        // resume falls back to a clean fresh run.
        CrashCase{0.5, 1, 1, 0, false},
        // Serial plan (one shard): the only shard's checkpoint crashes, so
        // resume restores the clustering but rescans the shard.
        CrashCase{0.5, 1, 2, 0, true},
        // 8 threads / 32 shards, die on the 4th shard checkpoint: at least
        // the three checkpointed shards are skipped on resume.
        CrashCase{0.5, 8, 5, 3, true},
        // Same crash schedule at a different θ and a mid-size plan.
        CrashCase{0.7, 2, 4, 2, true},
        CrashCase{0.4, 8, 3, 1, true}));

TEST_F(PipelineResumeTest, ResumeWithDifferentThreadCountIsIdentical) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  auto baseline = RunRockPipeline(store_path_, BaseOptions(0.5, 1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto crashed_opt = BaseOptions(0.5, 8);
  crashed_opt.checkpoint_path = ckpt_path_;
  crashed_opt.rock.failpoints = "pipeline.checkpoint=fire_on_hit_6:crash";
  auto crashed = RunRockPipeline(store_path_, crashed_opt);
  ASSERT_FALSE(crashed.ok());
  ASSERT_TRUE(fail::IsInjectedCrash(crashed.status()));

  // The checkpoint pinned the 8-thread shard plan; resuming serial must
  // replan the same boundaries and produce the same bytes.
  fail::Clear();
  auto resumed_opt = BaseOptions(0.5, 1);
  resumed_opt.checkpoint_path = ckpt_path_;
  resumed_opt.resume = true;
  auto resumed = RunRockPipeline(store_path_, resumed_opt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_GE(resumed->shards_skipped, 4u);
  ExpectSameOutputs(*resumed, *baseline);
}

TEST_F(PipelineResumeTest, CrashDuringLabelScanResumesIdentically) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    auto baseline = RunRockPipeline(store_path_, BaseOptions(0.5, 1));
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

    // The sampling pass consumes kStoreRows "store.read" hits; hit 150
    // lands 30 rows into the labeling scan.
    auto crashed_opt = BaseOptions(0.5, threads);
    crashed_opt.checkpoint_path = ckpt_path_;
    crashed_opt.rock.failpoints = "store.read=fire_on_hit_150:crash";
    auto crashed = RunRockPipeline(store_path_, crashed_opt);
    ASSERT_FALSE(crashed.ok());
    EXPECT_TRUE(fail::IsInjectedCrash(crashed.status()))
        << crashed.status().ToString();

    fail::Clear();
    auto resumed_opt = BaseOptions(0.5, threads);
    resumed_opt.checkpoint_path = ckpt_path_;
    resumed_opt.resume = true;
    auto resumed = RunRockPipeline(store_path_, resumed_opt);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(resumed->resumed);
    ExpectSameOutputs(*resumed, *baseline);
    std::remove(ckpt_path_.c_str());
  }
}

TEST_F(PipelineResumeTest, ResumeFromBuildCheckpointReusesTheClustering) {
  // A model build that dies before its bundle lands leaves a shard-free
  // checkpoint (num_shards = 0) with a matching fingerprint. The batch
  // pipeline must resume from it: restore the sample phase and plan its
  // label shards fresh.
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  auto baseline = RunRockPipeline(store_path_, BaseOptions(0.5, 1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  const std::string model_path = ckpt_path_ + ".model";
  ModelBuildOptions build;
  build.pipeline = BaseOptions(0.5, 1);
  build.pipeline.checkpoint_path = ckpt_path_;
  build.pipeline.rock.failpoints = "model.save=fire_on_hit_1:crash";
  build.model_path = model_path;
  auto crashed = BuildModel(store_path_, build);
  ASSERT_FALSE(crashed.ok());
  EXPECT_TRUE(fail::IsInjectedCrash(crashed.status()))
      << crashed.status().ToString();
  std::remove((model_path + ".tmp").c_str());
  fail::Clear();
  auto left = LoadCheckpoint(ckpt_path_);
  ASSERT_TRUE(left.ok()) << left.status().ToString();
  ASSERT_EQ(left->num_shards, 0u);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    ASSERT_TRUE(SaveCheckpoint(*left, ckpt_path_).ok());
    auto opt = BaseOptions(0.5, threads);
    opt.checkpoint_path = ckpt_path_;
    opt.resume = true;
    auto resumed = RunRockPipeline(store_path_, opt);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_TRUE(resumed->resumed);
    EXPECT_EQ(resumed->metrics.CounterOr("pipeline.resumed"), 1u);
    EXPECT_EQ(resumed->shards_skipped, 0u);
    ExpectSameOutputs(*resumed, *baseline);
    EXPECT_FALSE(fs::exists(ckpt_path_));
  }
}

// ---------------------------------------------------------------------------
// Corrupt / torn / mismatched checkpoints: always a clean restart with
// bit-identical output — never wrong labels.

TEST_F(PipelineResumeTest, CorruptCheckpointFallsBackToCleanRun) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  auto baseline = RunRockPipeline(store_path_, BaseOptions(0.5, 1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto crashed_opt = BaseOptions(0.5, 1);
  crashed_opt.checkpoint_path = ckpt_path_;
  crashed_opt.rock.failpoints = "pipeline.checkpoint=fire_on_hit_2:crash";
  ASSERT_FALSE(RunRockPipeline(store_path_, crashed_opt).ok());
  fail::Clear();
  ASSERT_TRUE(fs::exists(ckpt_path_));

  // Flip one byte in the middle of the checkpoint.
  {
    std::FILE* f = std::fopen(ckpt_path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, 40, SEEK_SET), 0);
    std::fputc(c ^ 0x10, f);
    std::fclose(f);
  }

  auto resumed_opt = BaseOptions(0.5, 1);
  resumed_opt.checkpoint_path = ckpt_path_;
  resumed_opt.resume = true;
  auto resumed = RunRockPipeline(store_path_, resumed_opt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(resumed->resumed);
  EXPECT_EQ(resumed->metrics.CounterOr("checkpoint.invalid"), 1u);
  ExpectSameOutputs(*resumed, *baseline);
}

TEST_F(PipelineResumeTest, MismatchedFingerprintFallsBackToCleanRun) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  // Leave a valid checkpoint from a θ = 0.5 run behind.
  auto crashed_opt = BaseOptions(0.5, 1);
  crashed_opt.checkpoint_path = ckpt_path_;
  crashed_opt.rock.failpoints = "pipeline.checkpoint=fire_on_hit_2:crash";
  ASSERT_FALSE(RunRockPipeline(store_path_, crashed_opt).ok());
  fail::Clear();
  ASSERT_TRUE(fs::exists(ckpt_path_));

  // Resuming a θ = 0.45 run must refuse to mix in the θ = 0.5 clustering.
  auto baseline = RunRockPipeline(store_path_, BaseOptions(0.45, 1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  auto resumed_opt = BaseOptions(0.45, 1);
  resumed_opt.checkpoint_path = ckpt_path_;
  resumed_opt.resume = true;
  auto resumed = RunRockPipeline(store_path_, resumed_opt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(resumed->resumed);
  EXPECT_EQ(resumed->metrics.CounterOr("checkpoint.mismatch"), 1u);
  ExpectSameOutputs(*resumed, *baseline);
}

TEST_F(PipelineResumeTest, TornCheckpointOnDiskIsDetectedOnResume) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  auto baseline = RunRockPipeline(store_path_, BaseOptions(0.5, 1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Every checkpoint write tears: the save retries, exhausts its budget,
  // and the run dies leaving a truncated file at the *final* path.
  auto torn_opt = BaseOptions(0.5, 1);
  torn_opt.checkpoint_path = ckpt_path_;
  torn_opt.rock.failpoints = "pipeline.checkpoint=fire_every_1:torn_write";
  torn_opt.retry_sleeper = [](double) {};
  auto torn = RunRockPipeline(store_path_, torn_opt);
  ASSERT_FALSE(torn.ok());
  EXPECT_TRUE(torn.status().IsIOError()) << torn.status().ToString();
  ASSERT_TRUE(fs::exists(ckpt_path_));

  fail::Clear();
  auto resumed_opt = BaseOptions(0.5, 1);
  resumed_opt.checkpoint_path = ckpt_path_;
  resumed_opt.resume = true;
  auto resumed = RunRockPipeline(store_path_, resumed_opt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(resumed->resumed) << "a torn checkpoint must not resume";
  EXPECT_EQ(resumed->metrics.CounterOr("checkpoint.invalid"), 1u);
  ExpectSameOutputs(*resumed, *baseline);
}

// ---------------------------------------------------------------------------
// Transient faults that retry instead of killing the run.

TEST_F(PipelineResumeTest, TransientCheckpointTearIsRetriedTransparently) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  auto baseline = RunRockPipeline(store_path_, BaseOptions(0.5, 1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::atomic<int> sleeps{0};
  auto opt = BaseOptions(0.5, 1);
  opt.checkpoint_path = ckpt_path_;
  opt.rock.failpoints = "pipeline.checkpoint=fire_on_hit_1:torn_write";
  opt.retry_sleeper = [&](double) { sleeps.fetch_add(1); };
  auto got = RunRockPipeline(store_path_, opt);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GE(sleeps.load(), 1);
  EXPECT_GE(got->metrics.CounterOr("retry.retries"), 1u);
  EXPECT_EQ(got->metrics.CounterOr("fault.fired.pipeline.checkpoint"), 1u);
  ExpectSameOutputs(*got, *baseline);
  EXPECT_FALSE(fs::exists(ckpt_path_));
}

TEST_F(PipelineResumeTest, TransientReadBlipDuringLabelingIsInvisible) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  auto baseline = RunRockPipeline(store_path_, BaseOptions(0.5, 1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  std::atomic<int> sleeps{0};
  auto opt = BaseOptions(0.5, 1);
  opt.rock.failpoints = "store.read=fire_on_hit_150:error";
  opt.retry_sleeper = [&](double) { sleeps.fetch_add(1); };
  auto got = RunRockPipeline(store_path_, opt);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GE(sleeps.load(), 1);
  EXPECT_GE(got->metrics.CounterOr("retry.retries"), 1u);
  EXPECT_EQ(got->metrics.CounterOr("fault.fired.store.read"), 1u);
  ExpectSameOutputs(*got, *baseline);
}

// ---------------------------------------------------------------------------
// Option plumbing.

TEST_F(PipelineResumeTest, ResumeRequiresACheckpointPath) {
  auto opt = BaseOptions(0.5, 1);
  opt.resume = true;
  auto r = RunRockPipeline(store_path_, opt);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

TEST_F(PipelineResumeTest, CompletedCheckpointedRunLeavesNoFileBehind) {
  auto opt = BaseOptions(0.5, 2);
  opt.checkpoint_path = ckpt_path_;
  auto r = RunRockPipeline(store_path_, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(fs::exists(ckpt_path_));
  EXPECT_FALSE(fs::exists(ckpt_path_ + ".tmp"));
  // Initial save + one save per shard (2 threads → 8 shards).
  EXPECT_EQ(r->metrics.CounterOr("checkpoint.writes"), 9u);
  EXPECT_EQ(r->metrics.CounterOr("checkpoint.removed"), 1u);
  EXPECT_EQ(r->metrics.CounterOr("checkpoint.remove_failed"), 0u);
}

// ---------------------------------------------------------------------------
// Checkpoint removal (bugfix): the completed-run cleanup used to be a bare
// unchecked std::remove. It now runs under the retry loop behind its own
// failpoint, and a cleanup that fails for good must not fail the run — the
// output is already complete and the stale checkpoint is resume-safe.

TEST_F(PipelineResumeTest, TransientRemoveBlipIsRetriedTransparently) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  std::atomic<int> sleeps{0};
  auto opt = BaseOptions(0.5, 1);
  opt.checkpoint_path = ckpt_path_;
  opt.rock.failpoints = "checkpoint.remove=fire_on_hit_1:error";
  opt.retry_sleeper = [&](double) { sleeps.fetch_add(1); };
  auto r = RunRockPipeline(store_path_, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(sleeps.load(), 1);
  EXPECT_EQ(r->metrics.CounterOr("fault.fired.checkpoint.remove"), 1u);
  EXPECT_EQ(r->metrics.CounterOr("checkpoint.removed"), 1u);
  EXPECT_FALSE(fs::exists(ckpt_path_));
}

TEST_F(PipelineResumeTest, FailedRemoveLeavesResumableCheckpointBehind) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  auto baseline = RunRockPipeline(store_path_, BaseOptions(0.5, 1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Every removal attempt fails: the retry budget exhausts, yet the run
  // must still succeed with identical output — only the cleanup failed.
  auto opt = BaseOptions(0.5, 1);
  opt.checkpoint_path = ckpt_path_;
  opt.rock.failpoints = "checkpoint.remove=fire_every_1:error";
  opt.retry_sleeper = [](double) {};
  auto r = RunRockPipeline(store_path_, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->metrics.CounterOr("checkpoint.remove_failed"), 1u);
  EXPECT_EQ(r->metrics.CounterOr("checkpoint.removed"), 0u);
  EXPECT_GE(r->metrics.CounterOr("retry.exhausted"), 1u);
  ExpectSameOutputs(*r, *baseline);
  ASSERT_TRUE(fs::exists(ckpt_path_)) << "removal failed, file must survive";

  // The stale checkpoint is a *finished* run with a matching fingerprint:
  // resuming from it must skip every shard and reproduce the same bytes.
  fail::Clear();
  auto resumed_opt = BaseOptions(0.5, 1);
  resumed_opt.checkpoint_path = ckpt_path_;
  resumed_opt.resume = true;
  auto resumed = RunRockPipeline(store_path_, resumed_opt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  ExpectSameOutputs(*resumed, *baseline);
  EXPECT_FALSE(fs::exists(ckpt_path_))
      << "the healthy re-run must clean up the stale checkpoint";
}

TEST_F(PipelineResumeTest, CrashDuringRemoveStillAborts) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  auto opt = BaseOptions(0.5, 1);
  opt.checkpoint_path = ckpt_path_;
  opt.rock.failpoints = "checkpoint.remove=fire_on_hit_1:crash";
  auto r = RunRockPipeline(store_path_, opt);
  ASSERT_FALSE(r.ok()) << "an injected crash must abort, not be retried";
  EXPECT_TRUE(fail::IsInjectedCrash(r.status())) << r.status().ToString();
}

}  // namespace
}  // namespace rock
