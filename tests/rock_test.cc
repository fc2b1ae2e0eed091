// Tests for core/: options, goodness measure, criterion function, and the
// RockClusterer itself — including the paper's qualitative claims (correct
// clusters on Figure 1 data, no merging of link-free clusters, outlier
// pruning and weeding).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/random.h"
#include "core/criterion.h"
#include "core/goodness.h"
#include "core/options.h"
#include "core/outliers.h"
#include "core/rock.h"
#include "data/dataset.h"
#include "similarity/jaccard.h"
#include "similarity/similarity_table.h"
#include "test_support.h"

namespace rock {
namespace {

// ---------------------------------------------------------------- Options --

TEST(RockOptionsTest, DefaultsValidate) {
  EXPECT_TRUE(RockOptions{}.Validate().ok());
}

TEST(RockOptionsTest, RejectsBadParameters) {
  RockOptions opt;
  opt.theta = 1.5;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = RockOptions{};
  opt.num_clusters = 0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = RockOptions{};
  opt.f = nullptr;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = RockOptions{};
  opt.outlier_stop_multiple = 0.5;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = RockOptions{};
  opt.outlier_stop_multiple = -1.0;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
}

// Regression: NaN fails every ordered comparison, so `x < 0.0`-style
// checks waved a NaN straight through Validate. Every double field must
// reject it.
TEST(RockOptionsTest, RejectsNaNParameters) {
  const double nan = std::nan("");
  RockOptions opt;
  opt.theta = nan;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = RockOptions{};
  opt.outlier_stop_multiple = nan;
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
  opt = RockOptions{};
  opt.f = [](double) { return std::nan(""); };
  EXPECT_TRUE(opt.Validate().IsInvalidArgument());
}

TEST(MarketBasketFTest, PaperBoundaryValues) {
  // §3.3: f(1) = 0 (only identical neighbors, expected links n_i) and
  // f(0) = 1 (everyone neighbors, expected links n_i³).
  EXPECT_DOUBLE_EQ(MarketBasketF(1.0), 0.0);
  EXPECT_DOUBLE_EQ(MarketBasketF(0.0), 1.0);
  EXPECT_DOUBLE_EQ(MarketBasketF(0.5), 1.0 / 3.0);
  // Monotonically decreasing in θ.
  for (double theta = 0.0; theta < 1.0; theta += 0.1) {
    EXPECT_GT(MarketBasketF(theta), MarketBasketF(theta + 0.1));
  }
}

// --------------------------------------------------------------- Goodness --

TEST(GoodnessTest, ExpectedLinksExponent) {
  RockOptions opt;
  opt.theta = 0.5;  // f = 1/3 → exponent 1 + 2/3
  GoodnessMeasure g(opt);
  EXPECT_DOUBLE_EQ(g.exponent(), 1.0 + 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(g.ExpectedIntraLinks(1), 1.0);
  EXPECT_NEAR(g.ExpectedIntraLinks(8), std::pow(8.0, 5.0 / 3.0), 1e-9);
}

TEST(GoodnessTest, ThetaZeroGivesCubicExpectation) {
  GoodnessMeasure g(0.0, MarketBasketF(0.0));
  EXPECT_DOUBLE_EQ(g.ExpectedIntraLinks(4), 64.0);  // n³
}

TEST(GoodnessTest, NormalizationPenalizesLargeClusters) {
  // Same raw cross-link count: merging two large clusters must score lower
  // than merging two small ones (§4.2's "swallowing" remedy).
  RockOptions opt;
  opt.theta = 0.5;
  GoodnessMeasure g(opt);
  EXPECT_GT(g.Goodness(10, 2, 2), g.Goodness(10, 50, 50));
}

TEST(GoodnessTest, MoreLinksIsBetter) {
  RockOptions opt;
  GoodnessMeasure g(opt);
  EXPECT_GT(g.Goodness(20, 5, 5), g.Goodness(10, 5, 5));
}

TEST(GoodnessTest, ZeroLinksScoreZero) {
  GoodnessMeasure g(RockOptions{});
  EXPECT_DOUBLE_EQ(g.Goodness(0, 3, 4), 0.0);
}

TEST(GoodnessTest, SingletonPairFormula) {
  // For singletons the denominator is 2^e − 2.
  RockOptions opt;
  opt.theta = 0.5;
  GoodnessMeasure g(opt);
  const double e = 1.0 + 2.0 / 3.0;
  EXPECT_NEAR(g.Goodness(3, 1, 1), 3.0 / (std::pow(2.0, e) - 2.0), 1e-12);
}

// Regression for the memoized power table: every slot must be *bit*
// identical to the direct std::pow call the unmemoized code made, for any
// θ and any access order (lazy growth, Reserve-then-read, descending
// probes). The merge engines rely on this — a one-ULP drift in the
// denominator can flip a goodness tie and change the merge sequence.
TEST(GoodnessTest, MemoTableIsBitIdenticalToDirectPow) {
  for (const double theta : {0.0, 0.2, 0.5, 0.73, 0.8, 1.0}) {
    GoodnessMeasure lazy(theta, MarketBasketF(theta));
    GoodnessMeasure reserved(theta, MarketBasketF(theta));
    reserved.Reserve(4096);
    const double e = lazy.exponent();
    // Descending first touch exercises a single large growth; the reserved
    // instance reads pre-filled slots. Both must match std::pow bitwise.
    for (size_t n = 4096; n > 0; n /= 3) {
      const double direct = std::pow(static_cast<double>(n), e);
      EXPECT_EQ(lazy.ExpectedIntraLinks(n), direct) << "theta=" << theta
                                                    << " n=" << n;
      EXPECT_EQ(reserved.ExpectedIntraLinks(n), direct)
          << "theta=" << theta << " n=" << n;
    }
    for (size_t n = 0; n <= 64; ++n) {
      const double direct = std::pow(static_cast<double>(n), e);
      EXPECT_EQ(lazy.ExpectedIntraLinks(n), direct) << "theta=" << theta
                                                    << " n=" << n;
    }
    // And the composed kernel: the denominator must be assembled from the
    // same three table reads in the same order as the scalar formula.
    for (size_t ni : {size_t{1}, size_t{7}, size_t{120}}) {
      for (size_t nj : {size_t{1}, size_t{33}, size_t{999}}) {
        const double direct = std::pow(static_cast<double>(ni + nj), e) -
                              std::pow(static_cast<double>(ni), e) -
                              std::pow(static_cast<double>(nj), e);
        EXPECT_EQ(lazy.ExpectedCrossLinks(ni, nj), direct)
            << "theta=" << theta << " ni=" << ni << " nj=" << nj;
      }
    }
  }
}

// -------------------------------------------------------------- Criterion --

TEST(CriterionTest, IntraClusterLinkSum) {
  LinkMatrix links(4);
  links.Add(0, 1, 5);
  links.Add(2, 3, 7);
  links.Add(0, 2, 100);  // crosses the cluster boundary below
  EXPECT_EQ(IntraClusterLinks(links, {0, 1}), 5u);
  EXPECT_EQ(IntraClusterLinks(links, {2, 3}), 7u);
  EXPECT_EQ(IntraClusterLinks(links, {0, 1, 2, 3}), 112u);
}

TEST(CriterionTest, SplittingLinkFreePointsScoresHigher) {
  // Two pairs with internal links and no cross links: the 2-cluster split
  // must beat the single merged cluster under E_l.
  LinkMatrix links(4);
  links.Add(0, 1, 4);
  links.Add(2, 3, 4);
  GoodnessMeasure g(RockOptions{});

  Clustering split = Clustering::FromAssignment({0, 0, 1, 1});
  Clustering lumped = Clustering::FromAssignment({0, 0, 0, 0});
  EXPECT_GT(CriterionFunction(split, links, g),
            CriterionFunction(lumped, links, g));
}

TEST(CriterionTest, WellLinkedClusterBeatsItsSplit) {
  // A clique-ish 4-point cluster where every pair has links: keeping it
  // together beats splitting it.
  LinkMatrix links(4);
  for (PointIndex i = 0; i < 4; ++i) {
    for (PointIndex j = static_cast<PointIndex>(i + 1); j < 4; ++j) {
      links.Add(i, j, 3);
    }
  }
  GoodnessMeasure g(RockOptions{});
  Clustering together = Clustering::FromAssignment({0, 0, 0, 0});
  Clustering split = Clustering::FromAssignment({0, 0, 1, 1});
  EXPECT_GT(CriterionFunction(together, links, g),
            CriterionFunction(split, links, g));
}

TEST(CriterionTest, OutliersContributeNothing) {
  LinkMatrix links(3);
  links.Add(0, 1, 2);
  GoodnessMeasure g(RockOptions{});
  Clustering with_outlier = Clustering::FromAssignment({0, 0, kUnassigned});
  Clustering without = Clustering::FromAssignment({0, 0});
  // Same clusters → same value despite the extra point.
  EXPECT_DOUBLE_EQ(CriterionFunction(with_outlier, links, g),
                   CriterionFunction(without, links, g));
}

// The one-pass frozen-CSR criterion must equal, to the last bit, the
// per-cluster IntraClusterLinks sum combined in cluster order — on frozen
// and hash-row matrices alike, with outliers, singletons and an empty
// cluster in the clustering.
TEST(CriterionTest, OnePassMatchesPerClusterIntraLinkSum) {
  const uint64_t seed = 20261017;
  ROCK_SEEDED_RNG(rng, seed);
  const size_t n = 150;
  NeighborGraph graph;
  graph.nbrlist.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      // Denser inside the five blocks i mod 5 so clusters carry links.
      if (rng.Bernoulli(i % 5 == j % 5 ? 0.5 : 0.05)) {
        graph.nbrlist[i].push_back(static_cast<PointIndex>(j));
        graph.nbrlist[j].push_back(static_cast<PointIndex>(i));
      }
    }
  }
  const LinkMatrix hashed = ComputeLinks(graph);
  LinkMatrix frozen = ComputeLinks(graph);
  frozen.Freeze();
  ASSERT_FALSE(hashed.frozen());
  ASSERT_GT(frozen.TotalLinks(), 0u);

  std::vector<ClusterIndex> assignment(n);
  for (size_t p = 0; p < n; ++p) {
    assignment[p] = static_cast<ClusterIndex>(p % 5);
    if (rng.Bernoulli(0.1)) assignment[p] = kUnassigned;  // outliers
  }
  assignment[3] = 5;  // a singleton cluster
  Clustering clustering = Clustering::FromAssignment(std::move(assignment));
  clustering.clusters.emplace_back();  // an empty cluster
  ASSERT_EQ(clustering.clusters[5].size(), 1u);

  for (const double theta : {0.3, 0.7}) {
    SCOPED_TRACE(::testing::Message() << "theta = " << theta);
    RockOptions opt;
    opt.theta = theta;
    const GoodnessMeasure g(opt);
    double want = 0.0;
    for (const auto& members : clustering.clusters) {
      if (members.empty()) continue;
      want += static_cast<double>(members.size()) *
              static_cast<double>(IntraClusterLinks(hashed, members)) /
              g.ExpectedIntraLinks(members.size());
    }
    EXPECT_EQ(CriterionFunction(clustering, frozen, g), want);
    EXPECT_EQ(CriterionFunction(clustering, hashed, g), want);
  }
}

// ------------------------------------------------------------- Clustering --

TEST(ClusteringTest, FromAssignmentCompactsGaps) {
  Clustering c = Clustering::FromAssignment({5, kUnassigned, 5, 2});
  EXPECT_EQ(c.num_clusters(), 2u);
  EXPECT_EQ(c.num_outliers(), 1u);
  EXPECT_EQ(c.num_assigned(), 3u);
  // Point 3 (old id 2) and points 0/2 (old id 5) are distinct clusters.
  EXPECT_NE(c.assignment[0], c.assignment[3]);
  EXPECT_EQ(c.assignment[0], c.assignment[2]);
}

TEST(ClusteringTest, SortBySizeDescending) {
  Clustering c = Clustering::FromAssignment({0, 1, 1, 1, 2, 2});
  c.SortBySizeDescending();
  EXPECT_EQ(c.clusters[0].size(), 3u);
  EXPECT_EQ(c.clusters[1].size(), 2u);
  EXPECT_EQ(c.clusters[2].size(), 1u);
  // Assignment stays consistent with the reordered clusters.
  for (size_t cl = 0; cl < c.num_clusters(); ++cl) {
    for (PointIndex p : c.clusters[cl]) {
      EXPECT_EQ(c.assignment[p], static_cast<ClusterIndex>(cl));
    }
  }
}

// --------------------------------------------------------- RockClusterer --

/// Figure 1 data (see graph_test.cc for the layout).
TransactionDataset Figure1Data() {
  TransactionDataset ds;
  auto add_triples = [&](const std::vector<ItemId>& items,
                         const std::string& label) {
    for (size_t i = 0; i < items.size(); ++i) {
      for (size_t j = i + 1; j < items.size(); ++j) {
        for (size_t l = j + 1; l < items.size(); ++l) {
          ds.AddTransaction(Transaction({items[i], items[j], items[l]}));
          ds.labels().Append(label);
        }
      }
    }
  };
  add_triples({1, 2, 3, 4, 5}, "A");
  add_triples({1, 2, 6, 7}, "B");
  return ds;
}

TEST(RockClustererTest, Figure1MaxLinkPartnerIsInOwnCluster) {
  // §3.2's stated property: "for each transaction, the transaction that it
  // has the most links with is a transaction in its own cluster" (θ = 0.5).
  TransactionDataset ds = Figure1Data();
  TransactionJaccard sim(ds);
  auto graph = ComputeNeighbors(sim, 0.5);
  ASSERT_TRUE(graph.ok());
  LinkMatrix links = ComputeLinks(*graph);
  for (PointIndex p = 0; p < ds.size(); ++p) {
    LinkCount best = 0;
    for (const auto& [q, count] : links.Row(p)) best = std::max(best, count);
    ASSERT_GT(best, 0u);
    bool own_cluster_achieves_max = false;
    for (const auto& [q, count] : links.Row(p)) {
      if (count == best && ds.labels().label(q) == ds.labels().label(p)) {
        own_cluster_achieves_max = true;
      }
    }
    EXPECT_TRUE(own_cluster_achieves_max) << "point " << p;
  }
}

TEST(RockClustererTest, RecoversFigure1WithConservativeF) {
  // End-to-end recovery of the Figure 1 clusters. With the canonical
  // f(θ) = (1−θ)/(1+θ) the greedy merge sequence absorbs {1,2,6}, {1,2,7}
  // into the 10-transaction cluster (their 42 genuine cross-links out-score
  // the 4 links binding them to {1,6,7}/{2,6,7} at n = 14 — the asymptotic
  // normalization argument needs larger clusters). The conservative reading
  // f(θ) = 1/(1+θ) recovers the example exactly; see EXPERIMENTS.md.
  TransactionDataset ds = Figure1Data();
  TransactionJaccard sim(ds);
  RockOptions opt;
  opt.theta = 0.5;
  opt.num_clusters = 2;
  opt.f = ConservativeMarketBasketF;
  RockClusterer clusterer(opt);
  auto result = clusterer.Cluster(sim);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const Clustering& c = result->clustering;
  ASSERT_EQ(c.num_clusters(), 2u);
  EXPECT_EQ(c.num_outliers(), 0u);
  // Perfect recovery: every cluster is label-pure.
  for (const auto& members : c.clusters) {
    std::set<LabelId> labels_seen;
    for (PointIndex p : members) labels_seen.insert(ds.labels().label(p));
    EXPECT_EQ(labels_seen.size(), 1u);
  }
  EXPECT_EQ(c.clusters[0].size(), 10u);  // C(5,3)
  EXPECT_EQ(c.clusters[1].size(), 4u);   // C(4,3)
}

TEST(RockClustererTest, Example11NoMergeWithoutCommonItems) {
  // §1.2: with neighbors = "at least one common item", {1,4} and {6} have
  // no links and must never end up together.
  TransactionDataset ds;
  ds.AddTransaction(Transaction({1, 2, 3, 5}));
  ds.AddTransaction(Transaction({2, 3, 4, 5}));
  ds.AddTransaction(Transaction({1, 4}));
  ds.AddTransaction(Transaction({6}));
  TransactionJaccard sim(ds);
  RockOptions opt;
  opt.theta = 0.001;
  opt.num_clusters = 2;
  opt.min_neighbors = 0;  // keep everything, incl. the isolated {6}
  RockClusterer clusterer(opt);
  auto result = clusterer.Cluster(sim);
  ASSERT_TRUE(result.ok());
  const auto& a = result->clustering.assignment;
  EXPECT_NE(a[2], a[3]);
}

TEST(RockClustererTest, StopsWhenCrossLinksExhausted) {
  // Two link-connected components and k = 1: ROCK must refuse the final
  // merge and stop at 2 clusters (paper: mushroom stopped at 21 > k = 20).
  SimilarityTable t(6);
  // Component 1: triangle 0-1-2; component 2: triangle 3-4-5.
  for (auto [i, j] : {std::pair<size_t, size_t>{0, 1}, {0, 2}, {1, 2},
                      {3, 4}, {3, 5}, {4, 5}}) {
    ASSERT_TRUE(t.Set(i, j, 1.0).ok());
  }
  RockOptions opt;
  opt.theta = 0.5;
  opt.num_clusters = 1;
  RockClusterer clusterer(opt);
  auto result = clusterer.Cluster(t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->clustering.num_clusters(), 2u);
}

TEST(RockClustererTest, PrunesIsolatedOutliers) {
  SimilarityTable t(5);
  for (auto [i, j] : {std::pair<size_t, size_t>{0, 1}, {0, 2}, {1, 2}}) {
    ASSERT_TRUE(t.Set(i, j, 1.0).ok());
  }
  // Points 3, 4 are fully isolated.
  RockOptions opt;
  opt.theta = 0.5;
  opt.num_clusters = 1;
  RockClusterer clusterer(opt);
  auto result = clusterer.Cluster(t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.num_pruned_points, 2u);
  EXPECT_EQ(result->clustering.assignment[3], kUnassigned);
  EXPECT_EQ(result->clustering.assignment[4], kUnassigned);
  EXPECT_EQ(result->clustering.num_clusters(), 1u);
}

TEST(RockClustererTest, WeedingDropsLowSupportClusters) {
  // §4.6: "outliers may be present as small groups of points that are
  // loosely connected to the rest … these clusters will persist as small
  // clusters". Two 6-cliques plus a detached triangle; pausing at 1.5×k
  // = 3 clusters must weed the triangle (support 3 < 4).
  SimilarityTable t(15);
  auto clique = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i <= hi; ++i) {
      for (size_t j = i + 1; j <= hi; ++j) {
        ASSERT_TRUE(t.Set(i, j, 1.0).ok());
      }
    }
  };
  clique(0, 5);
  clique(6, 11);
  clique(12, 14);  // the small loose group

  RockOptions opt;
  opt.theta = 0.5;
  opt.num_clusters = 2;
  opt.outlier_stop_multiple = 1.5;  // pause at 3 clusters
  opt.min_cluster_support = 4;
  RockClusterer clusterer(opt);
  auto result = clusterer.Cluster(t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.num_weeded_clusters, 1u);
  EXPECT_EQ(result->stats.num_weeded_points, 3u);
  for (PointIndex p = 12; p <= 14; ++p) {
    EXPECT_EQ(result->clustering.assignment[p], kUnassigned);
  }
  EXPECT_EQ(result->clustering.num_clusters(), 2u);
  // Without weeding the triangle survives as a third cluster.
  opt.outlier_stop_multiple = 0.0;
  RockClusterer no_weed(opt);
  auto result2 = no_weed.Cluster(t);
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result2->clustering.num_clusters(), 3u);
}

TEST(RockClustererTest, KAtLeastNReturnsSingletons) {
  SimilarityTable t(3);
  ASSERT_TRUE(t.Set(0, 1, 1.0).ok());
  ASSERT_TRUE(t.Set(1, 2, 1.0).ok());
  ASSERT_TRUE(t.Set(0, 2, 1.0).ok());
  RockOptions opt;
  opt.num_clusters = 5;
  RockClusterer clusterer(opt);
  auto result = clusterer.Cluster(t);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->clustering.num_clusters(), 3u);
  EXPECT_EQ(result->stats.num_merges, 0u);
}

TEST(RockClustererTest, MergeHistoryIsConsistent) {
  TransactionDataset ds = Figure1Data();
  TransactionJaccard sim(ds);
  RockOptions opt;
  opt.theta = 0.5;
  opt.num_clusters = 2;
  RockClusterer clusterer(opt);
  auto result = clusterer.Cluster(sim);
  ASSERT_TRUE(result.ok());
  // n − k merges when nothing is pruned: 14 points → 2 clusters.
  EXPECT_EQ(result->merges.size(), 12u);
  // Every merge strictly grows cluster ids and has positive goodness.
  uint32_t prev_id = 0;
  for (const auto& m : result->merges) {
    EXPECT_GT(m.merged, std::max(m.left, m.right));
    EXPECT_GE(m.merged, prev_id);
    EXPECT_GT(m.goodness, 0.0);
    EXPECT_GE(m.new_size, 2u);
    prev_id = m.merged;
  }
}

TEST(RockClustererTest, DeterministicAcrossRuns) {
  TransactionDataset ds = Figure1Data();
  TransactionJaccard sim(ds);
  RockOptions opt;
  opt.theta = 0.5;
  opt.num_clusters = 2;
  RockClusterer clusterer(opt);
  auto r1 = clusterer.Cluster(sim);
  auto r2 = clusterer.Cluster(sim);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->clustering.assignment, r2->clustering.assignment);
}

TEST(RockClustererTest, StatsArePopulated) {
  TransactionDataset ds = Figure1Data();
  TransactionJaccard sim(ds);
  RockOptions opt;
  opt.theta = 0.5;
  opt.num_clusters = 2;
  RockClusterer clusterer(opt);
  auto result = clusterer.Cluster(sim);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.num_points, 14u);
  EXPECT_GT(result->stats.average_degree, 0.0);
  EXPECT_GT(result->stats.max_degree, 0u);
  EXPECT_GT(result->stats.criterion_value, 0.0);
  EXPECT_GE(result->stats.total_seconds, 0.0);
}

TEST(RockClustererTest, InvalidOptionsRejected) {
  SimilarityTable t(2);
  RockOptions opt;
  opt.theta = 2.0;
  RockClusterer clusterer(opt);
  EXPECT_TRUE(clusterer.Cluster(t).status().IsInvalidArgument());
}

TEST(RockClustererTest, GreedyMergeMaximizesCriterionOnSmallCase) {
  // Exhaustively verify on Figure 1 data that the clustering ROCK returns
  // has the highest E_l among all 2-partitions reachable by the algorithm's
  // own merge tree — here we simply check it beats label-swapped variants.
  TransactionDataset ds = Figure1Data();
  TransactionJaccard sim(ds);
  RockOptions opt;
  opt.theta = 0.5;
  opt.num_clusters = 2;
  RockClusterer clusterer(opt);
  auto result = clusterer.Cluster(sim);
  ASSERT_TRUE(result.ok());

  auto graph = ComputeNeighbors(sim, opt.theta);
  ASSERT_TRUE(graph.ok());
  LinkMatrix links = ComputeLinks(*graph);
  GoodnessMeasure g(opt);
  const double rock_score =
      CriterionFunction(result->clustering, links, g);

  ROCK_SEEDED_RNG(rng, 5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ClusterIndex> assignment(ds.size());
    for (auto& a : assignment) {
      a = static_cast<ClusterIndex>(rng.UniformUint64(2));
    }
    Clustering random_clustering =
        Clustering::FromAssignment(std::move(assignment));
    EXPECT_GE(rock_score,
              CriterionFunction(random_clustering, links, g) - 1e-9);
  }
}

// -------------------------------------------------------- outlier helpers --

TEST(OutlierHelpersTest, FindIsolatedPoints) {
  NeighborGraph g;
  g.nbrlist = {{1}, {0}, {}};
  EXPECT_EQ(FindIsolatedPoints(g, 1), (std::vector<PointIndex>{2}));
  EXPECT_EQ(FindIsolatedPoints(g, 0), (std::vector<PointIndex>{}));
  EXPECT_EQ(FindIsolatedPoints(g, 2).size(), 3u);
}

TEST(OutlierHelpersTest, FindLowSupportClusters) {
  Clustering c = Clustering::FromAssignment({0, 0, 0, 1, 2, 2});
  EXPECT_EQ(FindLowSupportClusters(c, 2), (std::vector<size_t>{1}));
  EXPECT_EQ(FindLowSupportClusters(c, 4).size(), 3u);
}

}  // namespace
}  // namespace rock
