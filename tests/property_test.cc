// Property-based tests on the RockClusterer: structural invariants that
// must hold for every input, parameterized over θ, dataset seeds and
// thread counts (TEST_P sweeps).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "common/random.h"
#include "core/criterion.h"
#include "core/rock.h"
#include "graph/neighbor_engine.h"
#include "graph/parallel.h"
#include "similarity/jaccard.h"
#include "synth/basket_generator.h"
#include "synth/mushroom_generator.h"
#include "test_support.h"

namespace rock {
namespace {

TransactionDataset MakeData(uint64_t seed) {
  BasketGeneratorOptions gen;
  gen.cluster_sizes = {60, 40, 25};
  gen.items_per_cluster = {14, 12, 16};
  gen.num_outliers = 12;
  gen.mean_tx_size = 8.0;
  gen.stddev_tx_size = 1.5;
  gen.seed = seed;
  return std::move(GenerateBasketData(gen)).value();
}

struct Case {
  uint64_t seed;
  double theta;
  size_t k;
};

class RockPropertyTest : public ::testing::TestWithParam<Case> {};

TEST_P(RockPropertyTest, StructuralInvariants) {
  const Case c = GetParam();
  TransactionDataset ds = MakeData(c.seed);
  TransactionJaccard sim(ds);
  RockOptions opt;
  opt.theta = c.theta;
  opt.num_clusters = c.k;
  auto result = RockClusterer(opt).Cluster(sim);
  ASSERT_TRUE(result.ok());
  const Clustering& clustering = result->clustering;

  // (1) Assignment covers exactly the clusters' members.
  ASSERT_EQ(clustering.assignment.size(), ds.size());
  std::vector<size_t> seen(ds.size(), 0);
  for (size_t cl = 0; cl < clustering.num_clusters(); ++cl) {
    ASSERT_FALSE(clustering.clusters[cl].empty());
    ASSERT_TRUE(std::is_sorted(clustering.clusters[cl].begin(),
                               clustering.clusters[cl].end()));
    for (PointIndex p : clustering.clusters[cl]) {
      ++seen[p];
      EXPECT_EQ(clustering.assignment[p], static_cast<ClusterIndex>(cl));
    }
  }
  for (size_t p = 0; p < ds.size(); ++p) {
    if (clustering.assignment[p] == kUnassigned) {
      EXPECT_EQ(seen[p], 0u);
    } else {
      EXPECT_EQ(seen[p], 1u);
    }
  }

  // (2) Clusters are sorted by decreasing size.
  for (size_t cl = 0; cl + 1 < clustering.num_clusters(); ++cl) {
    EXPECT_GE(clustering.clusters[cl].size(),
              clustering.clusters[cl + 1].size());
  }

  // (3) Bookkeeping identities: every merge reduces the live-cluster count
  //     by one, weeding removes whole clusters and their points.
  const size_t participants =
      ds.size() - result->stats.num_pruned_points;
  EXPECT_EQ(participants - result->stats.num_weeded_points,
            clustering.num_assigned());
  EXPECT_EQ(participants - result->stats.num_merges -
                result->stats.num_weeded_clusters,
            clustering.num_clusters());

  // (4) If ROCK stopped above k, the remaining clusters share no links.
  auto graph = ComputeNeighbors(sim, c.theta);
  ASSERT_TRUE(graph.ok());
  LinkMatrix links = ComputeLinks(*graph);
  if (clustering.num_clusters() > c.k) {
    for (size_t a = 0; a < clustering.num_clusters(); ++a) {
      for (size_t b = a + 1; b < clustering.num_clusters(); ++b) {
        uint64_t cross = 0;
        for (PointIndex p : clustering.clusters[a]) {
          for (PointIndex q : clustering.clusters[b]) {
            cross += links.Count(p, q);
          }
        }
        EXPECT_EQ(cross, 0u)
            << "clusters " << a << " and " << b << " still share links";
      }
    }
  }

  // (5) Pruned points really are isolated.
  for (size_t p = 0; p < ds.size(); ++p) {
    if (clustering.assignment[p] == kUnassigned &&
        result->stats.num_weeded_points == 0) {
      EXPECT_LT(graph->Degree(p), opt.min_neighbors);
    }
  }

  // (6) The reported criterion value matches an independent evaluation.
  GoodnessMeasure g(opt);
  EXPECT_NEAR(result->stats.criterion_value,
              CriterionFunction(clustering, links, g),
              1e-9 * (1.0 + std::abs(result->stats.criterion_value)));

  // (7) ROCK's criterion beats random same-shape partitions.
  ROCK_SEEDED_RNG(rng, c.seed ^ 0xabcdef);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<ClusterIndex> random_assignment(ds.size());
    for (auto& a : random_assignment) {
      a = static_cast<ClusterIndex>(
          rng.UniformUint64(std::max<size_t>(c.k, 1)));
    }
    Clustering random_clustering =
        Clustering::FromAssignment(std::move(random_assignment));
    EXPECT_GE(result->stats.criterion_value + 1e-9,
              CriterionFunction(random_clustering, links, g));
  }
}

TEST_P(RockPropertyTest, PointOrderInvariance) {
  // Clustering quality must not depend on row order: a permuted dataset
  // yields the same partition (as a set family), modulo outliers.
  const Case c = GetParam();
  TransactionDataset ds = MakeData(c.seed);

  ROCK_SEEDED_RNG(rng, c.seed + 1);
  std::vector<size_t> perm(ds.size());
  std::iota(perm.begin(), perm.end(), size_t{0});
  rng.Shuffle(perm);
  TransactionDataset shuffled;
  for (size_t i = 0; i < ds.size(); ++i) {
    shuffled.AddTransaction(ds.transaction(perm[i]));
  }

  RockOptions opt;
  opt.theta = c.theta;
  opt.num_clusters = c.k;
  TransactionJaccard sim1(ds), sim2(shuffled);
  auto r1 = RockClusterer(opt).Cluster(sim1);
  auto r2 = RockClusterer(opt).Cluster(sim2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());

  // Compare as partitions of the original indices. Greedy tie-breaking is
  // id-dependent, so require only that the *numbers* of clusters/outliers
  // agree and the partitions agree on >= 95% of co-membership decisions.
  EXPECT_EQ(r1->clustering.num_clusters(), r2->clustering.num_clusters());
  EXPECT_EQ(r1->clustering.num_outliers(), r2->clustering.num_outliers());

  size_t agree = 0, total = 0;
  ROCK_TRACE_SEED(c.seed + 2);
  Rng pair_rng(c.seed + 2);
  for (int t = 0; t < 4000; ++t) {
    const size_t p = static_cast<size_t>(pair_rng.UniformUint64(ds.size()));
    const size_t q = static_cast<size_t>(pair_rng.UniformUint64(ds.size()));
    if (p == q) continue;
    // Positions of original rows p, q inside the shuffled dataset.
    const size_t sp = static_cast<size_t>(
        std::find(perm.begin(), perm.end(), p) - perm.begin());
    const size_t sq = static_cast<size_t>(
        std::find(perm.begin(), perm.end(), q) - perm.begin());
    const bool together1 =
        r1->clustering.assignment[p] != kUnassigned &&
        r1->clustering.assignment[p] == r1->clustering.assignment[q];
    const bool together2 =
        r2->clustering.assignment[sp] != kUnassigned &&
        r2->clustering.assignment[sp] == r2->clustering.assignment[sq];
    ++total;
    if (together1 == together2) ++agree;
  }
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.95);
}

TEST_P(RockPropertyTest, ThreadCountDoesNotChangeResult) {
  const Case c = GetParam();
  TransactionDataset ds = MakeData(c.seed);
  TransactionJaccard sim(ds);
  RockOptions opt;
  opt.theta = c.theta;
  opt.num_clusters = c.k;
  auto serial = RockClusterer(opt).Cluster(sim);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 4u}) {
    opt.num_threads = threads;
    auto parallel = RockClusterer(opt).Cluster(sim);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->clustering.assignment,
              serial->clustering.assignment)
        << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RockPropertyTest,
    ::testing::Values(Case{1, 0.4, 3}, Case{1, 0.5, 3}, Case{1, 0.6, 3},
                      Case{2, 0.5, 2}, Case{2, 0.5, 6}, Case{3, 0.3, 3},
                      Case{4, 0.7, 4}, Case{5, 0.5, 1}),
    [](const ::testing::TestParamInfo<Case>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_theta" +
             std::to_string(static_cast<int>(param_info.param.theta * 100)) +
             "_k" + std::to_string(param_info.param.k);
    });

// Neighbor-graph monotonicity in θ: raising the threshold only removes
// edges (the basis for the paper's Fig. 5 "larger θ is cheaper" claim).
TEST(NeighborMonotonicityTest, HigherThetaYieldsSubgraph) {
  TransactionDataset ds = MakeData(9);
  TransactionJaccard sim(ds);
  auto prev = ComputeNeighbors(sim, 0.2);
  ASSERT_TRUE(prev.ok());
  for (double theta : {0.3, 0.4, 0.5, 0.7, 0.9}) {
    auto next = ComputeNeighbors(sim, theta);
    ASSERT_TRUE(next.ok());
    for (size_t i = 0; i < ds.size(); ++i) {
      for (PointIndex j : next->nbrlist[i]) {
        EXPECT_TRUE(prev->AreNeighbors(static_cast<PointIndex>(i), j))
            << "edge gained when raising theta to " << theta;
      }
    }
    prev = std::move(next);
  }
}

// Metamorphic property: Jaccard sees only which items two rows share, so
// relabeling item ids — which moves bits within and across the packed
// plane's words — must leave the neighbor graph and the whole clustering
// unchanged. Checked on a Table-5-shaped basket sample and a
// mushroom-shaped categorical set.

// Runs the default engines on both similarities and compares the neighbor
// graphs and the full assignments.
void ExpectSameGraphAndClustering(const PointSimilarity& a,
                                  const PointSimilarity& b, double theta,
                                  size_t k) {
  const auto ga = ComputeNeighborsPacked(a, theta);
  const auto gb = ComputeNeighborsPacked(b, theta);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  ASSERT_GT(ga->NumEdges(), 0u);
  EXPECT_EQ(ga->nbrlist, gb->nbrlist);
  RockOptions opt;
  opt.theta = theta;
  opt.num_clusters = k;
  const auto ra = RockClusterer(opt).Cluster(a);
  const auto rb = RockClusterer(opt).Cluster(b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->clustering.assignment, rb->clustering.assignment);
  EXPECT_EQ(ra->merges.size(), rb->merges.size());
}

TEST(ItemPermutationTest, BasketGraphAndClusteringUnchanged) {
  BasketGeneratorOptions gen;  // Table 5 shape at 1%: ~1,150 rows
  for (size_t& size : gen.cluster_sizes) size /= 100;
  gen.num_outliers /= 100;
  gen.seed = 5;
  const TransactionDataset ds = std::move(GenerateBasketData(gen)).value();
  ItemId universe = 0;
  for (const Transaction& tx : ds.transactions()) {
    if (!tx.empty()) universe = std::max(universe, tx.items().back() + 1);
  }
  // A permutation of [0, universe), and an injective spread into
  // [0, 5·universe) that also widens the plane past four words.
  for (const ItemId span : {universe, 5 * universe}) {
    SCOPED_TRACE(::testing::Message() << "span = " << span);
    ROCK_SEEDED_RNG(rng, 40 + span);
    std::vector<ItemId> relabel(span);
    std::iota(relabel.begin(), relabel.end(), ItemId{0});
    rng.Shuffle(relabel);
    TransactionDataset permuted;
    for (const Transaction& tx : ds.transactions()) {
      std::vector<ItemId> items;
      for (const ItemId item : tx) items.push_back(relabel[item]);
      permuted.AddTransaction(Transaction(std::move(items)));
    }
    ExpectSameGraphAndClustering(TransactionJaccard(ds),
                                 TransactionJaccard(permuted), 0.5, 10);
  }
}

TEST(ItemPermutationTest, CategoricalGraphAndClusteringUnchanged) {
  MushroomGeneratorOptions gen;  // ~1,220 records × 22 attributes
  gen.size_scale = 0.15;
  gen.missing_rate = 0.02;
  gen.seed = 6;
  const CategoricalDataset ds = std::move(GenerateMushroomData(gen)).value();
  const size_t d = ds.schema().num_attributes();
  // Shuffle the attribute order and, within each attribute, the value ids.
  ROCK_SEEDED_RNG(rng, 66);
  std::vector<size_t> attr(d);
  std::iota(attr.begin(), attr.end(), size_t{0});
  rng.Shuffle(attr);
  std::vector<std::vector<ValueId>> relabel(d);
  for (size_t a = 0; a < d; ++a) {
    ValueId width = 0;
    for (const Record& r : ds.records()) {
      if (!r.IsMissing(a)) width = std::max(width, r.value(a) + 1);
    }
    relabel[a].resize(width);
    std::iota(relabel[a].begin(), relabel[a].end(), ValueId{0});
    rng.Shuffle(relabel[a]);
  }
  std::vector<std::string> names;
  for (size_t a = 0; a < d; ++a) {
    names.push_back(ds.schema().attribute_name(attr[a]));
  }
  CategoricalDataset permuted{Schema(names)};
  for (const Record& r : ds.records()) {
    std::vector<ValueId> values(d, kMissingValue);
    for (size_t a = 0; a < d; ++a) {
      const size_t from = attr[a];
      if (!r.IsMissing(from)) values[a] = relabel[from][r.value(from)];
    }
    ASSERT_TRUE(permuted.AddRecord(Record(std::move(values))).ok());
  }
  ExpectSameGraphAndClustering(CategoricalJaccard(ds),
                               CategoricalJaccard(permuted), 0.8, 20);
}

}  // namespace
}  // namespace rock
