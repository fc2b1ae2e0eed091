// Tests for diag/metrics.h and diag/invariants.h — the observability
// registry, the JSON report, and the invariant oracles, plus full ROCK and
// pipeline runs with runtime checks enabled (which must report zero
// violations).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>

#include "core/pipeline.h"
#include "core/rock.h"
#include "data/disk_store.h"
#include "diag/invariants.h"
#include "diag/metrics.h"
#include "similarity/jaccard.h"
#include "synth/basket_generator.h"
#include "test_support.h"

namespace rock {
namespace {

// ----------------------------------------------------------------- metrics --

TEST(TimerStatsTest, RecordAndMerge) {
  diag::TimerStats a;
  a.Record(2.0);
  a.Record(0.5);
  EXPECT_EQ(a.count, 2u);
  EXPECT_DOUBLE_EQ(a.total_seconds, 2.5);
  EXPECT_DOUBLE_EQ(a.min_seconds, 0.5);
  EXPECT_DOUBLE_EQ(a.max_seconds, 2.0);

  diag::TimerStats b;
  b.Record(3.0);
  a.Merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_DOUBLE_EQ(a.total_seconds, 5.5);
  EXPECT_DOUBLE_EQ(a.max_seconds, 3.0);

  diag::TimerStats empty;
  a.Merge(empty);
  EXPECT_EQ(a.count, 3u);
  empty.Merge(a);
  EXPECT_EQ(empty.count, 3u);
  EXPECT_DOUBLE_EQ(empty.min_seconds, 0.5);
}

TEST(MetricsRegistryTest, CountersGaugesTimers) {
  diag::MetricsRegistry registry;
  registry.AddCounter("a", 2);
  registry.AddCounter("a", 3);
  registry.MaxCounter("peak", 5);
  registry.MaxCounter("peak", 3);  // lower → ignored
  registry.SetGauge("g", 1.5);
  registry.SetGauge("g", 2.5);  // last write wins
  registry.RecordSeconds("t", 0.25);

  const diag::RunMetrics m = registry.Snapshot();
  EXPECT_EQ(m.CounterOr("a"), 5u);
  EXPECT_EQ(m.CounterOr("peak"), 5u);
  EXPECT_EQ(m.CounterOr("missing", 42), 42u);
  EXPECT_DOUBLE_EQ(m.GaugeOr("g"), 2.5);
  ASSERT_NE(m.FindTimer("t"), nullptr);
  EXPECT_EQ(m.FindTimer("t")->count, 1u);
  EXPECT_EQ(m.FindTimer("missing"), nullptr);
}

TEST(MetricsRegistryTest, NullRegistryIsANoOp) {
  diag::AddCounter(nullptr, "a", 1);
  diag::MaxCounter(nullptr, "a", 1);
  diag::SetGauge(nullptr, "a", 1.0);
  diag::ScopedTimer timer(nullptr, "t");
  EXPECT_GE(timer.Stop(), 0.0);
}

TEST(MetricsRegistryTest, ScopedTimerRecordsOnce) {
  diag::MetricsRegistry registry;
  {
    diag::ScopedTimer timer(&registry, "t");
    timer.Stop();
    // Destructor must not double-record.
  }
  EXPECT_EQ(registry.Snapshot().FindTimer("t")->count, 1u);
}

TEST(RunMetricsTest, MergeSemantics) {
  diag::RunMetrics a, b;
  a.counters["c"] = 1;
  b.counters["c"] = 2;
  a.gauges["g"] = 1.0;
  b.gauges["g"] = 9.0;
  a.RecordSeconds("t", 1.0);
  b.RecordSeconds("t", 3.0);
  a.Merge(b);
  EXPECT_EQ(a.CounterOr("c"), 3u);
  EXPECT_DOUBLE_EQ(a.GaugeOr("g"), 9.0);
  EXPECT_EQ(a.FindTimer("t")->count, 2u);
  EXPECT_DOUBLE_EQ(a.FindTimer("t")->total_seconds, 4.0);
}

TEST(RunMetricsTest, ToJsonDerivesStagesAndEscapes) {
  diag::RunMetrics m;
  m.RecordSeconds("stage.links", 0.5);
  m.RecordSeconds("stage.merge", 1.0);
  m.RecordSeconds("other.timer", 2.0);
  m.counters["graph.edges"] = 7;
  m.gauges["criterion.value"] = 1.25;
  const std::string json = m.ToJson("test\"tool");
  EXPECT_NE(json.find("\"stages\": [\"links\", \"merge\"]"),
            std::string::npos);
  EXPECT_NE(json.find("\"test\\\"tool\""), std::string::npos);
  EXPECT_NE(json.find("\"graph.edges\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"other.timer\""), std::string::npos);
  // Balanced braces/brackets — a cheap well-formedness proxy.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(RunMetricsTest, EmptyReportKeepsSchema) {
  const std::string json = diag::RunMetrics{}.ToJson("empty");
  EXPECT_NE(json.find("\"stages\": []"), std::string::npos);
  EXPECT_NE(json.find("\"timers\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\": {}"), std::string::npos);
}

// -------------------------------------------------------- check intervals --

TEST(InvariantCheckIntervalTest, ConfiguredValueWins) {
  EXPECT_EQ(diag::InvariantCheckInterval(7), 7u);
}

TEST(InvariantCheckIntervalTest, EnvironmentVariable) {
  ASSERT_EQ(::setenv("ROCK_DIAG_CHECKS", "5", 1), 0);
  EXPECT_EQ(diag::InvariantCheckInterval(0), 5u);
  EXPECT_EQ(diag::InvariantCheckInterval(3), 3u);  // explicit beats env
  ASSERT_EQ(::setenv("ROCK_DIAG_CHECKS", "on", 1), 0);
  EXPECT_EQ(diag::InvariantCheckInterval(0), 1u);
  ASSERT_EQ(::setenv("ROCK_DIAG_CHECKS", "0", 1), 0);
  EXPECT_EQ(diag::InvariantCheckInterval(0), 0u);
  ASSERT_EQ(::unsetenv("ROCK_DIAG_CHECKS"), 0);
#ifndef ROCK_DIAG_CHECKS_DEFAULT
  EXPECT_EQ(diag::InvariantCheckInterval(0), 0u);
#endif
}

// -------------------------------------------------------------- invariants --

NeighborGraph SmallGraph() {
  // 0 – 1 – 2 triangle plus isolated 3.
  NeighborGraph g;
  g.nbrlist = {{1, 2}, {0, 2}, {0, 1}, {}};
  return g;
}

TEST(InvariantOracleTest, CleanGraphAndLinksPass) {
  const NeighborGraph g = SmallGraph();
  diag::InvariantReport report;
  diag::CheckNeighborGraph(g, &report);
  const LinkMatrix links = ComputeLinks(g);
  diag::CheckLinkMatrixSymmetry(links, &report);
  diag::CheckLinksMatchGraph(g, links, &report);
  EXPECT_TRUE(report.ok()) << report.violations().front().detail;
  EXPECT_EQ(report.checks_run(), 3u);
}

TEST(InvariantOracleTest, DetectsUnsortedRow) {
  NeighborGraph g = SmallGraph();
  g.nbrlist[0] = {2, 1};
  diag::InvariantReport report;
  diag::CheckNeighborGraph(g, &report);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.violations().front().check, "graph.sorted");
}

TEST(InvariantOracleTest, DetectsSelfLoopAndAsymmetry) {
  NeighborGraph g = SmallGraph();
  g.nbrlist[3] = {3};  // self-loop
  diag::InvariantReport report;
  diag::CheckNeighborGraph(g, &report);
  EXPECT_FALSE(report.ok());

  NeighborGraph h = SmallGraph();
  h.nbrlist[3] = {0};  // 3 → 0 has no reverse edge
  diag::InvariantReport report2;
  diag::CheckNeighborGraph(h, &report2);
  ASSERT_FALSE(report2.ok());
  EXPECT_EQ(report2.violations().front().check, "graph.symmetry");
}

TEST(InvariantOracleTest, DetectsZeroAndSelfLinkEntries) {
  // A stored zero at (0, 1) and its mirror (1, 0).
  const LinkMatrix links =
      LinkMatrix::FromCsr(3, {0, 1, 2, 2}, {1, 0}, {0, 0});
  diag::InvariantReport report;
  diag::CheckLinkMatrixSymmetry(links, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations().front().check, "links.zero_entry");
}

TEST(InvariantOracleTest, DetectsStoredDiagonalEntry) {
  // No engine stores a diagonal, so one can only come from memory
  // corruption; plant one in row 1 through FromCsr and prove the
  // links.self oracle still catches it.
  const LinkMatrix links =
      LinkMatrix::FromCsr(3, {0, 1, 3, 3}, {1, 0, 1}, {2, 2, 4});
  diag::InvariantReport report;
  diag::CheckLinkMatrixSymmetry(links, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations().front().check, "links.self");
}

TEST(InvariantOracleTest, DetectsAsymmetricLinkCounts) {
  // Forward row says 3, reverse row says 2.
  const LinkMatrix links =
      LinkMatrix::FromCsr(3, {0, 1, 2, 2}, {1, 0}, {3, 2});
  diag::InvariantReport report;
  diag::CheckLinkMatrixSymmetry(links, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations().front().check, "links.symmetry");
}

TEST(InvariantOracleTest, DetectsLinkRecountMismatch) {
  const NeighborGraph g = SmallGraph();
  // The triangle's true links (1 on each pair) plus a spurious, symmetric
  // link (0, 3) = 2 to the isolated point.
  const LinkMatrix links = LinkMatrix::FromCsr(
      4, {0, 3, 5, 7, 8}, {1, 2, 3, 0, 2, 0, 1, 0}, {1, 1, 2, 1, 1, 1, 1, 2});
  diag::InvariantReport report;
  diag::CheckLinksMatchGraph(g, links, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations().front().check, "links.recount");
}

TEST(InvariantOracleTest, SizeMismatchIsReported) {
  const NeighborGraph g = SmallGraph();
  LinkMatrix links(2);
  diag::InvariantReport report;
  diag::CheckLinksMatchGraph(g, links, &report);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations().front().check, "links.size");
}

// ------------------------------------------------- checked end-to-end runs --

TransactionDataset DiagBaskets(uint64_t seed) {
  BasketGeneratorOptions gen;
  gen.cluster_sizes = {60, 40, 25};
  gen.items_per_cluster = {14, 12, 16};
  gen.num_outliers = 10;
  gen.seed = seed;
  return std::move(GenerateBasketData(gen)).value();
}

TEST(DiagRockRunTest, CheckedRunReportsZeroViolations) {
  const uint64_t seed = 31;
  ROCK_TRACE_SEED(seed);
  TransactionDataset ds = DiagBaskets(seed);
  TransactionJaccard sim(ds);
  RockOptions opt;
  opt.theta = 0.5;
  opt.num_clusters = 3;
  opt.diag.invariant_check_every = 1;  // validate after every merge
  auto result = RockClusterer(opt).Cluster(sim);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metrics.CounterOr("diag.invariant_checks"), 0u);
  EXPECT_EQ(result->metrics.CounterOr("diag.invariant_violations"), 0u);
}

TEST(DiagRockRunTest, CheckedRunWithWeedingAndThreads) {
  const uint64_t seed = 32;
  ROCK_TRACE_SEED(seed);
  TransactionDataset ds = DiagBaskets(seed);
  TransactionJaccard sim(ds);
  RockOptions opt;
  opt.theta = 0.4;
  opt.num_clusters = 3;
  opt.outlier_stop_multiple = 3.0;
  opt.min_cluster_support = 4;
  opt.graph_threads = 4;
  opt.diag.invariant_check_every = 3;
  auto result = RockClusterer(opt).Cluster(sim);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->metrics.CounterOr("diag.invariant_checks"), 0u);
  EXPECT_EQ(result->metrics.CounterOr("diag.invariant_violations"), 0u);
}

TEST(DiagRockRunTest, StageMetricsArePopulated) {
  TransactionDataset ds = DiagBaskets(33);
  TransactionJaccard sim(ds);
  RockOptions opt;
  opt.theta = 0.5;
  opt.num_clusters = 3;
  auto result = RockClusterer(opt).Cluster(sim);
  ASSERT_TRUE(result.ok());
  const diag::RunMetrics& m = result->metrics;
  for (const char* stage :
       {"stage.neighbors", "stage.links", "stage.merge", "stage.total"}) {
    ASSERT_NE(m.FindTimer(stage), nullptr) << stage;
    EXPECT_EQ(m.FindTimer(stage)->count, 1u) << stage;
  }
  // stage.total covers neighbors + links + merge.
  EXPECT_GE(m.FindTimer("stage.total")->total_seconds,
            m.FindTimer("stage.links")->total_seconds +
                m.FindTimer("stage.merge")->total_seconds);
  EXPECT_EQ(m.CounterOr("graph.points"), ds.size());
  EXPECT_EQ(m.CounterOr("merge.merges"), result->stats.num_merges);
  EXPECT_GT(m.CounterOr("graph.edges"), 0u);
  EXPECT_GT(m.CounterOr("links.nonzero_pairs"), 0u);
  EXPECT_GT(m.CounterOr("heap.global_peak"), 0u);
  EXPECT_DOUBLE_EQ(m.GaugeOr("criterion.value"),
                   result->stats.criterion_value);
}

TEST(DiagRockRunTest, MetricsCanBeDisabled) {
  TransactionDataset ds = DiagBaskets(34);
  TransactionJaccard sim(ds);
  RockOptions opt;
  opt.theta = 0.5;
  opt.num_clusters = 3;
  opt.diag.collect_metrics = false;
  auto result = RockClusterer(opt).Cluster(sim);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->metrics.counters.empty());
  EXPECT_TRUE(result->metrics.gauges.empty());
  EXPECT_TRUE(result->metrics.timers.empty());
  // The classic stats stay available either way.
  EXPECT_GT(result->stats.num_merges, 0u);
}

TEST(DiagRockRunTest, ClusterGraphAlsoCollects) {
  // Direct graph entry (no neighbor phase): stage.neighbors absent,
  // stage.total still present.
  const NeighborGraph g = SmallGraph();
  RockOptions opt;
  opt.theta = 0.5;
  opt.num_clusters = 1;
  auto result = RockClusterer(opt).ClusterGraph(g);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->metrics.FindTimer("stage.neighbors"), nullptr);
  EXPECT_NE(result->metrics.FindTimer("stage.total"), nullptr);
}

TEST(DiagPipelineTest, PipelineMergesStageAndRockMetrics) {
  const auto store = std::filesystem::temp_directory_path() /
                     ("rock_diag_pipeline_" + std::to_string(::getpid()) +
                      ".bin");
  BasketGeneratorOptions gen;
  gen.cluster_sizes = {200, 150};
  gen.items_per_cluster = {18, 18};
  gen.num_outliers = 15;
  gen.seed = 5;
  auto data = GenerateBasketData(gen);
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(WriteDatasetToStore(*data, store.string()).ok());

  PipelineOptions opt;
  opt.rock.theta = 0.5;
  opt.rock.num_clusters = 2;
  opt.rock.diag.invariant_check_every = 4;
  opt.sample_size = 120;
  opt.seed = 11;
  auto result = RunRockPipeline(store.string(), opt);
  std::filesystem::remove(store);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const diag::RunMetrics& m = result->metrics;
  for (const char* stage : {"stage.sample", "stage.label", "stage.neighbors",
                            "stage.links", "stage.merge", "stage.total"}) {
    EXPECT_NE(m.FindTimer(stage), nullptr) << stage;
  }
  EXPECT_EQ(m.CounterOr("sample.rows"), 120u);
  EXPECT_EQ(m.CounterOr("label.rows"), data->size());
  EXPECT_EQ(m.CounterOr("diag.invariant_violations"), 0u);
  EXPECT_GT(m.CounterOr("diag.invariant_checks"), 0u);
}

}  // namespace
}  // namespace rock
