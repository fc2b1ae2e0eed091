// Differential tests: the parallel graph algorithms must be bit-identical
// to their serial counterparts on randomized Jaccard datasets across θ and
// thread counts, including the degenerate graphs (no edges, complete graph).
// Equality is asserted structurally AND through the diag invariant oracles,
// so a disagreement reports which layer diverged. The clusterer as a whole,
// and the disk pipeline's sample clustering, are pinned to the paper-literal
// ReferenceCluster (tests/reference_rock.h).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "core/pipeline.h"
#include "core/rock.h"
#include "data/disk_store.h"
#include "data/transaction.h"
#include "diag/invariants.h"
#include "graph/link_engine.h"
#include "graph/neighbor_engine.h"
#include "graph/links.h"
#include "graph/neighbors.h"
#include "reference_rock.h"
#include "similarity/jaccard.h"
#include "synth/basket_generator.h"
#include "test_support.h"
#include "util/failpoint.h"

namespace rock {
namespace {

// Builds a randomized transaction dataset with cluster structure plus
// outliers, so the neighbor graph has both dense and sparse regions.
TransactionDataset RandomDataset(uint64_t seed, size_t scale) {
  BasketGeneratorOptions gen;
  gen.cluster_sizes = {30 * scale, 20 * scale, 15 * scale};
  gen.items_per_cluster = {12, 10, 14};
  gen.num_outliers = 5 * scale;
  gen.seed = seed;
  return std::move(GenerateBasketData(gen)).value();
}

void ExpectGraphsIdentical(const NeighborGraph& serial,
                           const NeighborGraph& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.nbrlist[i], parallel.nbrlist[i]) << "row " << i;
  }
}

void ExpectLinksIdentical(const LinkMatrix& serial,
                          const LinkMatrix& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial.NumNonZeroPairs(), parallel.NumNonZeroPairs());
  EXPECT_EQ(serial.TotalLinks(), parallel.TotalLinks());
  for (size_t i = 0; i < serial.size(); ++i) {
    const LinkRowSpan a = serial.FlatRow(static_cast<PointIndex>(i));
    const LinkRowSpan b = parallel.FlatRow(static_cast<PointIndex>(i));
    ASSERT_EQ(a.size, b.size) << "row " << i;
    for (size_t e = 0; e < a.size; ++e) {
      EXPECT_EQ(a.partners[e], b.partners[e]) << "row " << i;
      EXPECT_EQ(a.counts[e], b.counts[e]) << "row " << i;
    }
  }
}

/// The threaded neighbor pass over `sim`'s per-pair Similarity(): the
/// neighbor engine's scalar fallback at `par`'s thread count and row chunk.
Result<NeighborGraph> ParallelNeighbors(const PointSimilarity& sim,
                                        double theta,
                                        const PackedNeighborOptions& par) {
  return ComputeNeighborsPacked(ScalarOnlySimilarity(sim), theta, par);
}

/// The threaded link pass: the packed engine at `par`'s thread count and
/// row chunk.
LinkMatrix ParallelLinks(const NeighborGraph& graph,
                         const PackedNeighborOptions& par) {
  PackedLinkOptions opt;
  opt.num_threads = par.num_threads;
  opt.row_chunk = par.row_chunk;
  return ComputeLinksPacked(graph, opt);
}

// θ × thread-count grid over a randomized dataset.
class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<double, size_t>> {};

TEST_P(DifferentialTest, ParallelMatchesSerial) {
  const auto [theta, threads] = GetParam();
  const uint64_t seed = 20260806;
  ROCK_TRACE_SEED(seed);
  TransactionDataset ds = RandomDataset(seed, 2);
  TransactionJaccard sim(ds);

  auto serial = ComputeNeighbors(sim, theta);
  ASSERT_TRUE(serial.ok());
  PackedNeighborOptions par;
  par.num_threads = threads;
  auto parallel = ParallelNeighbors(sim, theta, par);
  ASSERT_TRUE(parallel.ok());
  ExpectGraphsIdentical(*serial, *parallel);

  // The parallel graph must satisfy the structural invariants on its own.
  diag::InvariantReport report;
  diag::CheckNeighborGraph(*parallel, &report);
  EXPECT_TRUE(report.ok()) << report.violations().front().detail;

  const LinkMatrix serial_links = ComputeLinks(*serial);
  const LinkMatrix parallel_links = ParallelLinks(*serial, par);
  ExpectLinksIdentical(serial_links, parallel_links);

  diag::InvariantReport link_report;
  diag::CheckLinkMatrixSymmetry(parallel_links, &link_report);
  diag::CheckLinksMatchGraph(*parallel, parallel_links, &link_report);
  EXPECT_TRUE(link_report.ok())
      << link_report.violations().front().detail;
}

INSTANTIATE_TEST_SUITE_P(
    ThetaByThreads, DifferentialTest,
    ::testing::Combine(::testing::Values(0.2, 0.5, 0.8),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{4},
                                         size_t{8})),
    [](const ::testing::TestParamInfo<DifferentialTest::ParamType>& param) {
      const double theta = std::get<0>(param.param);
      return "theta" + std::to_string(static_cast<int>(theta * 10)) +
             "_threads" + std::to_string(std::get<1>(param.param));
    });

// Varying seeds at a fixed mid-grid configuration, to shake out schedule-
// dependent bugs that a single dataset might mask.
class DifferentialSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialSeedTest, ParallelMatchesSerialAcrossSeeds) {
  const uint64_t seed = GetParam();
  ROCK_TRACE_SEED(seed);
  TransactionDataset ds = RandomDataset(seed, 1);
  TransactionJaccard sim(ds);

  auto serial = ComputeNeighbors(sim, 0.5);
  ASSERT_TRUE(serial.ok());
  PackedNeighborOptions par;
  par.num_threads = 4;
  par.row_chunk = 3;  // force many scheduling steps on a small input
  auto parallel = ParallelNeighbors(sim, 0.5, par);
  ASSERT_TRUE(parallel.ok());
  ExpectGraphsIdentical(*serial, *parallel);
  ExpectLinksIdentical(ComputeLinks(*serial),
                       ParallelLinks(*serial, par));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSeedTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// ------------------------------------------------- merge-engine differential --

// The production path (packed neighbors, packed links, and the merge
// engine with interleaved rows, lazy best cleaning with upper-bound
// priorities, elided heap fixups and periodic dead-entry compaction) must
// reproduce the paper-literal reference (tests/reference_rock.h) bit for
// bit: the same merge sequence record by record, the same clustering, the
// same stats and criterion. Any divergence in the relink algebra or heap
// ordering shows up as the first differing MergeRecord.

/// The bit pattern of a double, so equality means bit-identical.
uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

void ExpectRunsIdentical(const RockResult& reference, const RockResult& other) {
  ASSERT_EQ(reference.merges.size(), other.merges.size());
  for (size_t m = 0; m < reference.merges.size(); ++m) {
    const MergeRecord& a = reference.merges[m];
    const MergeRecord& b = other.merges[m];
    ASSERT_EQ(a.left, b.left) << "merge " << m;
    ASSERT_EQ(a.right, b.right) << "merge " << m;
    ASSERT_EQ(a.merged, b.merged) << "merge " << m;
    ASSERT_EQ(a.new_size, b.new_size) << "merge " << m;
    ASSERT_EQ(Bits(a.goodness), Bits(b.goodness)) << "merge " << m;
  }
  EXPECT_EQ(reference.clustering.assignment, other.clustering.assignment);
  ASSERT_EQ(reference.clustering.num_clusters(),
            other.clustering.num_clusters());
  for (size_t c = 0; c < reference.clustering.num_clusters(); ++c) {
    EXPECT_EQ(reference.clustering.clusters[c], other.clustering.clusters[c])
        << "cluster " << c;
  }
  EXPECT_EQ(reference.stats.num_points, other.stats.num_points);
  EXPECT_EQ(reference.stats.num_pruned_points, other.stats.num_pruned_points);
  EXPECT_EQ(reference.stats.num_weeded_clusters,
            other.stats.num_weeded_clusters);
  EXPECT_EQ(reference.stats.num_weeded_points, other.stats.num_weeded_points);
  EXPECT_EQ(reference.stats.num_merges, other.stats.num_merges);
  EXPECT_EQ(Bits(reference.stats.criterion_value),
            Bits(other.stats.criterion_value));
}

// Runs `opt` through ReferenceCluster (with opt's own check cadence) and
// through RockClusterer in both of the production engine's memory modes,
// and asserts every production run bit-identical to the reference with
// both engines' bookkeeping oracles clean. With invariant checks off the
// engine frees the point links after seeding its rows and takes the
// criterion from the clusters' intra totals; checked after every merge it
// keeps them and recounts cross-links, intra totals and the criterion from
// them, and rescans recompute every entry's goodness from its count.
// `unchecked`, when given, receives the checks-off run for coverage
// assertions.
void ExpectMatchesReference(const PointSimilarity& sim,
                            const RockOptions& opt,
                            RockResult* unchecked = nullptr) {
  auto reference = ReferenceCluster(sim, opt);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->metrics.CounterOr("diag.invariant_violations"), 0u);
  for (const size_t every : {size_t{0}, size_t{1}}) {
    SCOPED_TRACE("invariant_check_every=" + std::to_string(every));
    RockOptions run = opt;
    run.diag.invariant_check_every = every;
    auto production = RockClusterer(run).Cluster(sim);
    ASSERT_TRUE(production.ok());
    ExpectRunsIdentical(*reference, *production);
    EXPECT_EQ(production->metrics.CounterOr("diag.invariant_violations"), 0u);
    if (every == 1) {
      EXPECT_GT(production->metrics.CounterOr("diag.invariant_checks"),
                production->stats.num_merges);
    } else if (unchecked != nullptr) {
      *unchecked = std::move(*production);
    }
  }
}

// θ × graph-thread-count grid, with outlier pruning and weeding enabled so
// the lazy-deletion path is exercised through WeedSmallClusters as well as
// merges. Invariant checking runs in the reference every few merges and
// in one of the two production runs after every merge, so each engine's
// own bookkeeping oracle must also stay clean.
class MergeEngineDifferentialTest
    : public ::testing::TestWithParam<std::tuple<double, size_t>> {};

TEST_P(MergeEngineDifferentialTest, ParallelMatchesHashedOracle) {
  const auto [theta, threads] = GetParam();
  const uint64_t seed = 20260806;
  ROCK_TRACE_SEED(seed);
  TransactionDataset ds = RandomDataset(seed, 2);
  TransactionJaccard sim(ds);

  RockOptions opt;
  opt.theta = theta;
  opt.num_clusters = 3;
  opt.outlier_stop_multiple = 3.0;
  opt.min_cluster_support = 4;
  opt.graph_threads = threads;
  opt.row_chunk = 5;  // force many scheduling steps on a small input
  opt.diag.invariant_check_every = 7;
  RockResult unchecked;
  ExpectMatchesReference(sim, opt, &unchecked);
  // Dirty bests are cleaned by rescans, which recompute goodness from
  // counts.
  EXPECT_GT(unchecked.metrics.CounterOr("merge.relink_best_rescans"), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ThetaByThreads, MergeEngineDifferentialTest,
    ::testing::Combine(::testing::Values(0.2, 0.5, 0.8),
                       ::testing::Values(size_t{1}, size_t{2}, size_t{4})),
    [](const ::testing::TestParamInfo<
        MergeEngineDifferentialTest::ParamType>& param) {
      const double theta = std::get<0>(param.param);
      return "theta" + std::to_string(static_cast<int>(theta * 10)) +
             "_threads" + std::to_string(std::get<1>(param.param));
    });

// Varying datasets at a fixed grid point: different seeds produce different
// merge orders, weeding patterns, and pruning sets.
class MergeEngineSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergeEngineSeedTest, ParallelMatchesHashedAcrossDatasets) {
  const uint64_t seed = GetParam();
  ROCK_TRACE_SEED(seed);
  TransactionDataset ds = RandomDataset(seed, 1);
  TransactionJaccard sim(ds);

  RockOptions opt;
  opt.theta = 0.5;
  opt.num_clusters = 3;
  opt.outlier_stop_multiple = 2.0;
  opt.min_cluster_support = 3;
  opt.diag.invariant_check_every = 5;
  RockResult unchecked;
  ExpectMatchesReference(sim, opt, &unchecked);
  EXPECT_GT(unchecked.stats.num_pruned_points, 0u);
  EXPECT_GT(unchecked.stats.num_weeded_clusters, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeEngineSeedTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// Degenerate inputs: a link-free graph (every point isolated → everything
// pruned), the complete graph (θ = 0, densest relinking possible) and
// three link components plus two isolated points under k = 2 (the loop
// stops when cross-links run out, above k) must agree too, including when
// weeding is disabled.
TEST(MergeEngineEdgeCaseTest, DegenerateGraphsAgree) {
  TransactionDataset disjoint;
  for (int t = 0; t < 30; ++t) {
    disjoint.AddTransaction({"item_" + std::to_string(2 * t),
                             "item_" + std::to_string(2 * t + 1)});
  }
  const uint64_t seed = 100;
  ROCK_TRACE_SEED(seed);
  TransactionDataset dense = RandomDataset(seed, 1);
  // Each group: every 3-subset of its own 5 items. Subsets sharing two
  // items have Jaccard 0.5, so a group is one component at θ = 0.4.
  TransactionDataset components;
  for (int g = 0; g < 3; ++g) {
    const std::string prefix = "g" + std::to_string(g) + "_";
    for (int a = 0; a < 5; ++a) {
      for (int b = a + 1; b < 5; ++b) {
        for (int c = b + 1; c < 5; ++c) {
          components.AddTransaction({prefix + std::to_string(a),
                                     prefix + std::to_string(b),
                                     prefix + std::to_string(c)});
        }
      }
    }
  }
  components.AddTransaction({"lone_0"});
  components.AddTransaction({"lone_1"});

  struct Case {
    const char* name;
    const TransactionDataset* ds;
    double theta;
  };
  const Case cases[] = {{"disjoint", &disjoint, 0.5},
                        {"complete", &dense, 0.0},
                        {"components", &components, 0.4}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TransactionJaccard sim(*c.ds);
    RockOptions opt;
    opt.theta = c.theta;
    opt.num_clusters = 2;
    opt.diag.invariant_check_every = 3;
    RockResult unchecked;
    ExpectMatchesReference(sim, opt, &unchecked);
    if (c.ds == &components) {
      // k is below the component count: the loop runs out of links.
      EXPECT_GT(unchecked.clustering.num_clusters(), opt.num_clusters);
      EXPECT_GT(unchecked.stats.num_pruned_points, 0u);
    }
  }
}

// ---------------------------------------------- parallel-engine differential --

// The same contract over a wider grid: the thread axis runs the neighbor
// and link phases with 1, 4 and 8 workers, so the merge engine consumes
// graphs and link tables built under every scheduling of the graph
// phases, with and without the weeding pause. The suite names predate
// the single reference; they no longer name two oracles.

RockOptions ParallelGridOptions(double theta, size_t threads, bool weeding) {
  RockOptions opt;
  opt.theta = theta;
  opt.num_clusters = 3;
  if (weeding) {
    opt.outlier_stop_multiple = 3.0;
    opt.min_cluster_support = 4;
  }
  opt.graph_threads = threads;
  opt.diag.invariant_check_every = 7;
  return opt;
}

// θ × graph-threads × weeding grid: with and without the weeding pause, so
// both the merge-only path and the WeedSmallClusters lazy-dirty path are
// pinned to the reference.
class ParallelEngineDifferentialTest
    : public ::testing::TestWithParam<std::tuple<double, size_t, bool>> {};

TEST_P(ParallelEngineDifferentialTest, ParallelMatchesBothOracles) {
  const auto [theta, threads, weeding] = GetParam();
  const uint64_t seed = 20260806;
  ROCK_TRACE_SEED(seed);
  TransactionDataset ds = RandomDataset(seed, 2);
  TransactionJaccard sim(ds);
  ExpectMatchesReference(sim, ParallelGridOptions(theta, threads, weeding));
}

INSTANTIATE_TEST_SUITE_P(
    ThetaByThreadsByWeeding, ParallelEngineDifferentialTest,
    ::testing::Combine(::testing::Values(0.2, 0.5, 0.8),
                       ::testing::Values(size_t{1}, size_t{4}, size_t{8}),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<
        ParallelEngineDifferentialTest::ParamType>& param) {
      const double theta = std::get<0>(param.param);
      return "theta" + std::to_string(static_cast<int>(theta * 10)) +
             "_threads" + std::to_string(std::get<1>(param.param)) +
             (std::get<2>(param.param) ? "_weeded" : "_unweeded");
    });

// Varying datasets at the most threaded grid point (8 graph workers on ~70
// points, weeding on): different seeds shuffle the merge order and the
// dirty/clean pattern of the lazy best-cleaning. The test keeps the name
// it had while the retired flat engine was its oracle.
class ParallelEngineSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelEngineSeedTest, ParallelMatchesFlatAcrossDatasets) {
  const uint64_t seed = GetParam();
  ROCK_TRACE_SEED(seed);
  TransactionDataset ds = RandomDataset(seed, 1);
  TransactionJaccard sim(ds);

  RockOptions opt = ParallelGridOptions(0.5, 8, true);
  opt.outlier_stop_multiple = 2.0;
  opt.min_cluster_support = 3;
  opt.diag.invariant_check_every = 5;
  ExpectMatchesReference(sim, opt);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelEngineSeedTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// Degenerate graphs with threaded graph phases: a link-free graph (every
// merge candidate pruned away), the complete graph at θ = 0 (densest rows)
// and a hub-and-spokes dataset where one point neighbors everyone (one
// giant row next to width-1 rows), all with weeding disabled.
TEST(ParallelEngineEdgeCaseTest, DegenerateGraphsAgree) {
  TransactionDataset disjoint;
  for (int t = 0; t < 30; ++t) {
    disjoint.AddTransaction({"item_" + std::to_string(2 * t),
                             "item_" + std::to_string(2 * t + 1)});
  }
  const uint64_t seed = 100;
  ROCK_TRACE_SEED(seed);
  TransactionDataset dense = RandomDataset(seed, 1);
  TransactionDataset star;
  star.AddTransaction({"hub_a", "hub_b"});
  for (int t = 0; t < 24; ++t) {
    star.AddTransaction({"hub_a", "spoke_" + std::to_string(t)});
  }

  struct Case {
    const char* name;
    const TransactionDataset* ds;
    double theta;
  };
  const Case cases[] = {{"disjoint", &disjoint, 0.5},
                        {"complete", &dense, 0.0},
                        {"star", &star, 0.3}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TransactionJaccard sim(*c.ds);
    RockOptions opt = ParallelGridOptions(c.theta, 8, false);
    opt.num_clusters = 2;
    opt.diag.invariant_check_every = 3;
    ExpectMatchesReference(sim, opt);
  }
}

// ------------------------------------------------- link-engine differential --

// Which merge engine consumes the production neighbor graph (packed, 4
// workers): `parallel` is RockClusterer end to end, so the packed link
// rows feed the production merge; `hashed` runs the reference merge, with
// its Fig. 4 links, over that same graph. Both must reproduce
// ReferenceCluster, which builds its graph with the serial scalar sweep.
// The values mirror the layout the parameter has always had, so the
// listed test names are unchanged.
enum class MergeImpl { kHashed, kParallel };

class LinkEngineClusterDifferentialTest
    : public ::testing::TestWithParam<std::tuple<double, MergeImpl>> {};

TEST_P(LinkEngineClusterDifferentialTest, PackedMatchesHashedEndToEnd) {
  const auto [theta, merge_impl] = GetParam();
  const uint64_t seed = 20260808;
  ROCK_TRACE_SEED(seed);
  TransactionDataset ds = RandomDataset(seed, 2);
  TransactionJaccard sim(ds);

  RockOptions opt;
  opt.theta = theta;
  opt.num_clusters = 3;
  opt.outlier_stop_multiple = 3.0;
  opt.min_cluster_support = 4;
  opt.graph_threads = 4;
  opt.row_chunk = 5;
  opt.diag.invariant_check_every = 7;

  auto reference = ReferenceCluster(sim, opt);
  ASSERT_TRUE(reference.ok());
  if (merge_impl == MergeImpl::kHashed) {
    PackedNeighborOptions nopts;
    nopts.num_threads = opt.graph_threads;
    nopts.row_chunk = opt.row_chunk;
    auto graph = ComputeNeighborsPacked(sim, theta, nopts);
    ASSERT_TRUE(graph.ok());
    const RockResult hashed = internal::RunHashedMergeEngine(*graph, opt);
    ExpectRunsIdentical(*reference, hashed);
    EXPECT_EQ(hashed.metrics.CounterOr("diag.invariant_violations"), 0u);
    return;
  }
  auto packed = RockClusterer(opt).Cluster(sim);
  ASSERT_TRUE(packed.ok());
  ExpectRunsIdentical(*reference, *packed);
  EXPECT_EQ(packed->metrics.CounterOr("diag.invariant_violations"), 0u);

  // Link-stage accounting: only the production run packs bit planes, and
  // its candidate enumeration is exact (every candidate pair is stored).
  EXPECT_EQ(packed->metrics.CounterOr("links.candidate_pairs"),
            packed->metrics.CounterOr("links.pairs_counted"));
  ASSERT_NE(packed->metrics.FindTimer("stage.links.pack"), nullptr);
  EXPECT_EQ(reference->metrics.FindTimer("stage.links.pack"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    ThetaByMergeEngine, LinkEngineClusterDifferentialTest,
    ::testing::Combine(::testing::Values(0.2, 0.5, 0.8),
                       ::testing::Values(MergeImpl::kParallel,
                                         MergeImpl::kHashed)),
    [](const ::testing::TestParamInfo<
        LinkEngineClusterDifferentialTest::ParamType>& param) {
      const double theta = std::get<0>(param.param);
      return "theta" + std::to_string(static_cast<int>(theta * 10)) +
             (std::get<1>(param.param) == MergeImpl::kParallel ? "_parallel"
                                                               : "_hashed");
    });

// Full disk pipeline: its sample's MergeRecords and clustering must match
// ReferenceCluster on that same sample, at any graph thread count, and a
// run that crashes at a checkpoint must resume into the uninterrupted
// result bit for bit. Thread counts live below the checkpoint's
// fingerprint, so a resume may change them. The tests keep the names they
// had while the pipeline could switch link and merge engines.
class LinkEnginePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fail::Clear();
    const auto dir = std::filesystem::temp_directory_path();
    const std::string pid = std::to_string(::getpid());
    store_path_ = (dir / ("rock_linkdiff_store_" + pid + ".bin")).string();
    ckpt_path_ = (dir / ("rock_linkdiff_ckpt_" + pid + ".bin")).string();

    // Three well-separated transaction groups (disjoint item ranges) so the
    // sample clusters cleanly and labeling is deterministic.
    Rng rng(0x1b1b);
    TransactionDataset data;
    for (size_t i = 0; i < 120; ++i) {
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
    ASSERT_TRUE(WriteDatasetToStore(data, store_path_).ok());
  }

  void TearDown() override {
    fail::Clear();
    std::remove(store_path_.c_str());
    std::remove(ckpt_path_.c_str());
    std::remove((ckpt_path_ + ".tmp").c_str());
  }

  PipelineOptions Options(size_t graph_threads) const {
    PipelineOptions opt;
    opt.rock.theta = 0.5;
    opt.rock.num_clusters = 3;
    opt.rock.graph_threads = graph_threads;
    opt.sample_size = 60;
    opt.seed = 2026;
    opt.labeling.seed = 11;
    return opt;
  }

  static void ExpectPipelinesIdentical(const PipelineResult& a,
                                       const PipelineResult& b) {
    EXPECT_EQ(a.sample_rows, b.sample_rows);
    EXPECT_EQ(a.sample_result.clustering.assignment,
              b.sample_result.clustering.assignment);
    EXPECT_EQ(a.sample_result.clustering.clusters,
              b.sample_result.clustering.clusters);
    ASSERT_EQ(a.sample_result.merges.size(), b.sample_result.merges.size());
    for (size_t m = 0; m < a.sample_result.merges.size(); ++m) {
      const MergeRecord& x = a.sample_result.merges[m];
      const MergeRecord& y = b.sample_result.merges[m];
      ASSERT_EQ(x.left, y.left) << "merge " << m;
      ASSERT_EQ(x.right, y.right) << "merge " << m;
      ASSERT_EQ(x.merged, y.merged) << "merge " << m;
      ASSERT_EQ(x.new_size, y.new_size) << "merge " << m;
      ASSERT_DOUBLE_EQ(x.goodness, y.goodness) << "merge " << m;
    }
    EXPECT_EQ(a.labeling.assignments, b.labeling.assignments);
    EXPECT_EQ(a.labeling.num_outliers, b.labeling.num_outliers);
  }

  // Reads the pipeline's sample back from the store (its rows, in store
  // order) and asserts ReferenceCluster on it reproduces the pipeline's
  // sample clustering.
  void ExpectSampleMatchesReference(const PipelineResult& run) const {
    auto sample = ReadStoreRows(store_path_, run.sample_rows);
    ASSERT_TRUE(sample.ok()) << sample.status().ToString();
    const TransactionJaccard sim(*sample);
    auto reference = ReferenceCluster(sim, Options(1).rock);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ExpectRunsIdentical(*reference, run.sample_result);
  }

  // Crashes a run at its `crash_hit`-th checkpoint write with
  // `crash_threads` graph workers, resumes it with `resume_threads`, and
  // asserts the resumed run equals `baseline`.
  void CrashAndResume(uint64_t crash_hit, size_t crash_threads,
                      size_t resume_threads,
                      const PipelineResult& baseline) const {
    auto crashed_opt = Options(crash_threads);
    crashed_opt.checkpoint_path = ckpt_path_;
    crashed_opt.rock.failpoints = "pipeline.checkpoint=fire_on_hit_" +
                                  std::to_string(crash_hit) + ":crash";
    auto crashed = RunRockPipeline(store_path_, crashed_opt);
    ASSERT_FALSE(crashed.ok()) << "the injected crash must abort the run";
    ASSERT_TRUE(fail::IsInjectedCrash(crashed.status()))
        << crashed.status().ToString();

    // "Restart the process" and resume.
    fail::Clear();
    auto resumed_opt = Options(resume_threads);
    resumed_opt.checkpoint_path = ckpt_path_;
    resumed_opt.resume = true;
    auto resumed = RunRockPipeline(store_path_, resumed_opt);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->resumed, crash_hit > 1);
    ExpectPipelinesIdentical(*resumed, baseline);
  }

  std::string store_path_;
  std::string ckpt_path_;
};

TEST_F(LinkEnginePipelineTest, PackedAndHashedPipelinesAreIdentical) {
  auto serial = RunRockPipeline(store_path_, Options(1));
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ExpectSampleMatchesReference(*serial);
  auto threaded = RunRockPipeline(store_path_, Options(4));
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
  ExpectPipelinesIdentical(*threaded, *serial);
}

// A run crashed at its shard checkpoint with threaded graph phases resumes
// serially into the uninterrupted run, and the mirror image.
TEST_F(LinkEnginePipelineTest, CrossEngineResumeMatchesUninterruptedRun) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  auto baseline = RunRockPipeline(store_path_, Options(1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ExpectSampleMatchesReference(*baseline);
  CrashAndResume(2, 4, 1, *baseline);
  CrashAndResume(2, 1, 4, *baseline);
}

// Both crash points of a one-shard run: before the first checkpoint lands
// (resume falls back to a fresh run) and at the shard checkpoint (resume
// restores the sample's merges from disk). Either way the result is the
// uninterrupted run, and so matches the reference.
TEST_F(LinkEnginePipelineTest, ParallelMergeResumeMatchesUninterruptedRun) {
  if (!fail::BuildEnabled()) GTEST_SKIP() << "failpoints compiled out";
  auto baseline = RunRockPipeline(store_path_, Options(1));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ExpectSampleMatchesReference(*baseline);
  CrashAndResume(2, 1, 1, *baseline);
  CrashAndResume(1, 1, 1, *baseline);
}

// ------------------------------------------------------------- edge cases --

// Pairwise-disjoint transactions → Jaccard 0 for every pair → empty
// neighbor graph at any θ > 0, zero links.
TEST(DifferentialEdgeCaseTest, EmptyGraph) {
  TransactionDataset ds;
  for (int t = 0; t < 40; ++t) {
    ds.AddTransaction({"item_" + std::to_string(2 * t),
                       "item_" + std::to_string(2 * t + 1)});
  }
  TransactionJaccard sim(ds);
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    PackedNeighborOptions par;
    par.num_threads = threads;
    auto serial = ComputeNeighbors(sim, 0.5);
    ASSERT_TRUE(serial.ok());
    auto parallel = ParallelNeighbors(sim, 0.5, par);
    ASSERT_TRUE(parallel.ok());
    ExpectGraphsIdentical(*serial, *parallel);
    EXPECT_EQ(parallel->NumEdges(), 0u);
    const LinkMatrix links = ParallelLinks(*parallel, par);
    EXPECT_EQ(links.NumNonZeroPairs(), 0u);
    EXPECT_EQ(links.TotalLinks(), 0u);
    ExpectLinksIdentical(ComputeLinks(*serial), links);
  }
}

// θ = 0 → every pair of points is a neighbor (complete graph): the densest
// possible link structure, n−2 links on every pair.
TEST(DifferentialEdgeCaseTest, AllNeighborsGraph) {
  const uint64_t seed = 100;
  ROCK_TRACE_SEED(seed);
  TransactionDataset ds = RandomDataset(seed, 1);
  TransactionJaccard sim(ds);
  const size_t n = ds.size();
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    PackedNeighborOptions par;
    par.num_threads = threads;
    auto serial = ComputeNeighbors(sim, 0.0);
    ASSERT_TRUE(serial.ok());
    auto parallel = ParallelNeighbors(sim, 0.0, par);
    ASSERT_TRUE(parallel.ok());
    ExpectGraphsIdentical(*serial, *parallel);
    EXPECT_EQ(parallel->NumEdges(), n * (n - 1) / 2);
    const LinkMatrix links = ParallelLinks(*parallel, par);
    ExpectLinksIdentical(ComputeLinks(*serial), links);
    // Complete graph: link(i, j) = n − 2 for every pair.
    EXPECT_EQ(links.Count(0, 1), static_cast<LinkCount>(n - 2));
    EXPECT_EQ(links.TotalLinks(),
              static_cast<uint64_t>(n) * (n - 1) / 2 * (n - 2));
  }
}

// Tiny inputs: fewer points than threads, and the empty / single-point /
// two-point graphs must not trip range or scheduling bugs.
TEST(DifferentialEdgeCaseTest, FewerPointsThanThreads) {
  for (size_t n : {0u, 1u, 2u, 3u}) {
    NeighborGraph g;
    g.nbrlist.resize(n);
    if (n >= 2) {
      // Path graph 0 – 1 – … – (n−1).
      for (size_t i = 0; i + 1 < n; ++i) {
        g.nbrlist[i].push_back(static_cast<PointIndex>(i + 1));
        g.nbrlist[i + 1].push_back(static_cast<PointIndex>(i));
      }
      for (auto& row : g.nbrlist) std::sort(row.begin(), row.end());
    }
    PackedNeighborOptions par;
    par.num_threads = 8;
    ExpectLinksIdentical(ComputeLinks(g), ParallelLinks(g, par));
  }
}

}  // namespace
}  // namespace rock
