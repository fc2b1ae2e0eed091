// Tests for graph/: neighbor computation, sparse link counting (Fig. 4),
// and the dense matrix-squaring paths (naive + Strassen). Includes the
// paper's hand-computed link counts from §3.2 / Example 1.2 (Figure 1).

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/dataset.h"
#include "graph/dense_matrix.h"
#include "graph/links.h"
#include "graph/neighbors.h"
#include "graph/strassen.h"
#include "similarity/jaccard.h"
#include "similarity/similarity_table.h"
#include "test_support.h"

namespace rock {
namespace {

/// The Figure 1 basket data: every size-3 subset of {1,2,3,4,5} (cluster A,
/// 10 transactions) plus every size-3 subset of {1,2,6,7} (cluster B, 4
/// transactions). Items 1 and 2 are shared between the clusters.
TransactionDataset Figure1Data() {
  TransactionDataset ds;
  const std::vector<ItemId> cluster_a = {1, 2, 3, 4, 5};
  const std::vector<ItemId> cluster_b = {1, 2, 6, 7};
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
  add_triples(cluster_a, "A");
  add_triples(cluster_b, "B");
  return ds;
}

/// Finds the dataset row holding exactly `tx`.
size_t RowOf(const TransactionDataset& ds, const Transaction& tx) {
  for (size_t i = 0; i < ds.size(); ++i) {
    if (ds.transaction(i) == tx) return i;
  }
  ADD_FAILURE() << "transaction not found";
  return SIZE_MAX;
}

// -------------------------------------------------------------- Neighbors --

TEST(NeighborsTest, ThetaOneOnlyIdenticalPointsQualify) {
  TransactionDataset ds;
  ds.AddTransaction({"a", "b"});
  ds.AddTransaction({"a", "b"});
  ds.AddTransaction({"a", "c"});
  TransactionJaccard sim(ds);
  auto g = ComputeNeighbors(sim, 1.0);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->Degree(0), 1u);
  EXPECT_TRUE(g->AreNeighbors(0, 1));
  EXPECT_FALSE(g->AreNeighbors(0, 2));
}

TEST(NeighborsTest, ThetaZeroEveryoneIsNeighbors) {
  TransactionDataset ds;
  ds.AddTransaction({"a"});
  ds.AddTransaction({"b"});
  ds.AddTransaction({"c"});
  TransactionJaccard sim(ds);
  auto g = ComputeNeighbors(sim, 0.0);
  ASSERT_TRUE(g.ok());
  // Even disjoint pairs have sim = 0 >= θ = 0.
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(g->Degree(i), 2u);
}

TEST(NeighborsTest, SelfIsNotANeighbor) {
  TransactionDataset ds;
  ds.AddTransaction({"a"});
  ds.AddTransaction({"a"});
  TransactionJaccard sim(ds);
  auto g = ComputeNeighbors(sim, 0.0);
  ASSERT_TRUE(g.ok());
  for (size_t i = 0; i < 2; ++i) {
    for (PointIndex j : g->nbrlist[i]) EXPECT_NE(j, i);
  }
}

TEST(NeighborsTest, InvalidThetaRejected) {
  TransactionDataset ds;
  ds.AddTransaction({"a"});
  TransactionJaccard sim(ds);
  EXPECT_TRUE(ComputeNeighbors(sim, -0.1).status().IsInvalidArgument());
  EXPECT_TRUE(ComputeNeighbors(sim, 1.1).status().IsInvalidArgument());
}

TEST(NeighborsTest, DegreeStatistics) {
  SimilarityTable t(4);
  ASSERT_TRUE(t.Set(0, 1, 0.9).ok());
  ASSERT_TRUE(t.Set(0, 2, 0.9).ok());
  ASSERT_TRUE(t.Set(0, 3, 0.9).ok());
  auto g = ComputeNeighbors(t, 0.5);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->MaxDegree(), 3u);
  EXPECT_DOUBLE_EQ(g->AverageDegree(), 6.0 / 4.0);
  EXPECT_EQ(g->NumEdges(), 3u);
}

TEST(NeighborsTest, SubsetGraphReindexes) {
  SimilarityTable t(4);
  ASSERT_TRUE(t.Set(1, 3, 0.9).ok());
  auto g = ComputeNeighborsForSubset(t, {1, 3}, 0.5);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->size(), 2u);
  EXPECT_TRUE(g->AreNeighbors(0, 1));
  EXPECT_TRUE(
      ComputeNeighborsForSubset(t, {1, 9}, 0.5).status().IsOutOfRange());
}

// ------------------------------------------------------------------ Links --

TEST(LinksTest, PaperExample12LinkCounts) {
  // §3.2 with θ = 0.5: pairs inside the big cluster containing {1,2} have
  // 5 common neighbors; the cross-cluster pair ({1,2,3}, {1,2,6}) has 3.
  TransactionDataset ds = Figure1Data();
  TransactionJaccard sim(ds);
  auto g = ComputeNeighbors(sim, 0.5);
  ASSERT_TRUE(g.ok());
  LinkMatrix links = ComputeLinks(*g);

  const auto t123 = static_cast<PointIndex>(RowOf(ds, Transaction({1, 2, 3})));
  const auto t124 = static_cast<PointIndex>(RowOf(ds, Transaction({1, 2, 4})));
  const auto t126 = static_cast<PointIndex>(RowOf(ds, Transaction({1, 2, 6})));
  const auto t127 = static_cast<PointIndex>(RowOf(ds, Transaction({1, 2, 7})));
  const auto t167 = static_cast<PointIndex>(RowOf(ds, Transaction({1, 6, 7})));

  // "{1,2,3} and {1,2,4} has 5 common neighbors (due to {1,2,5}, {1,2,6},
  //  {1,2,7}, {1,3,4} and {2,3,4})".
  EXPECT_EQ(links.Count(t123, t124), 5u);
  // "a pair of transactions containing 1 and 2, but in different clusters
  //  (e.g., {1,2,3} and {1,2,6}) has only 3 neighbors in common".
  EXPECT_EQ(links.Count(t123, t126), 3u);
  // §3.2: "Transaction {1,2,6} has 5 links with transaction {1,2,7}".
  EXPECT_EQ(links.Count(t126, t127), 5u);
  // "transaction {1,6,7} has 2 links with every transaction in the smaller
  //  cluster (e.g., {1,2,6})".
  EXPECT_EQ(links.Count(t167, t126), 2u);
  // "... and 0 links with every other transaction in the bigger cluster".
  // Strictly this holds for big-cluster transactions that do not contain
  // both shared items 1 and 2 — {1,2,3} itself has 2 common neighbors with
  // {1,6,7} (namely {1,2,6} and {1,2,7}), which the paper's prose glosses
  // over. We assert the computed truth for both kinds.
  const auto t134 = static_cast<PointIndex>(RowOf(ds, Transaction({1, 3, 4})));
  const auto t345 = static_cast<PointIndex>(RowOf(ds, Transaction({3, 4, 5})));
  EXPECT_EQ(links.Count(t167, t134), 0u);
  EXPECT_EQ(links.Count(t167, t345), 0u);
  EXPECT_EQ(links.Count(t167, t123), 2u);
}

TEST(LinksTest, Example11NeighborsAtLeastOneCommonItem) {
  // §1.2: "suppose we defined a pair of transactions to be neighbors if
  // they contained at least one item in common. … transactions {1,4} and
  // {6} would have no links between them". Any positive θ under Jaccard
  // encodes "at least one common item".
  TransactionDataset ds;
  ds.AddTransaction(Transaction({1, 2, 3, 5}));
  ds.AddTransaction(Transaction({2, 3, 4, 5}));
  ds.AddTransaction(Transaction({1, 4}));
  ds.AddTransaction(Transaction({6}));
  TransactionJaccard sim(ds);
  auto g = ComputeNeighbors(sim, 0.001);
  ASSERT_TRUE(g.ok());
  LinkMatrix links = ComputeLinks(*g);
  EXPECT_EQ(links.Count(2, 3), 0u);
  EXPECT_GT(links.Count(0, 1), 0u);
}

TEST(LinksTest, LinkIsCommonNeighborCount) {
  // Star graph: center 0 adjacent to 1..4; leaves share exactly one common
  // neighbor (the center); center-leaf pairs share none.
  SimilarityTable t(5);
  for (size_t leaf = 1; leaf < 5; ++leaf) {
    ASSERT_TRUE(t.Set(0, leaf, 1.0).ok());
  }
  auto g = ComputeNeighbors(t, 0.9);
  ASSERT_TRUE(g.ok());
  LinkMatrix links = ComputeLinks(*g);
  EXPECT_EQ(links.Count(1, 2), 1u);
  EXPECT_EQ(links.Count(3, 4), 1u);
  EXPECT_EQ(links.Count(0, 1), 0u);
  EXPECT_EQ(links.TotalLinks(), 6u);  // C(4,2) leaf pairs
}

TEST(LinksTest, SymmetricStorage) {
  SimilarityTable t(3);
  ASSERT_TRUE(t.Set(0, 1, 1.0).ok());
  ASSERT_TRUE(t.Set(0, 2, 1.0).ok());
  auto g = ComputeNeighbors(t, 0.5);
  ASSERT_TRUE(g.ok());
  LinkMatrix links = ComputeLinks(*g);
  EXPECT_EQ(links.Count(1, 2), links.Count(2, 1));
  EXPECT_EQ(links.Count(1, 1), 0u);
  EXPECT_EQ(links.NumNonZeroPairs(), 1u);
}

TEST(LinksTest, DiagonalAddIsIgnored) {
  // Regression: Add(i, i, d) used to perform both symmetric writes on the
  // same cell, storing 2d on the diagonal. It must be a no-op instead.
  LinkMatrixBuilder builder(3);
  builder.Add(1, 1, 5);
  const LinkMatrix diagonal_only = builder.Build();
  EXPECT_EQ(diagonal_only.Count(1, 1), 0u);
  EXPECT_EQ(diagonal_only.FlatRow(1).size, 0u);
  EXPECT_EQ(diagonal_only.NumNonZeroPairs(), 0u);
  EXPECT_EQ(diagonal_only.TotalLinks(), 0u);
  // Off-diagonal behaviour is unchanged.
  builder.Add(0, 2, 3);
  builder.Add(2, 2, 7);
  const LinkMatrix links = builder.Build();
  EXPECT_EQ(links.Count(0, 2), 3u);
  EXPECT_EQ(links.Count(2, 0), 3u);
  EXPECT_EQ(links.Count(2, 2), 0u);
  EXPECT_EQ(links.FlatRow(2).size, 1u);
  EXPECT_EQ(links.TotalLinks(), 3u);
}

TEST(LinksTest, DenseAccumulatorMatchesSparsePath) {
  ROCK_SEEDED_RNG(rng, 123);
  const size_t n = 60;
  SimilarityTable t(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.3)) {
        ASSERT_TRUE(t.Set(i, j, 1.0).ok());
      }
    }
  }
  auto g = ComputeNeighbors(t, 0.5);
  ASSERT_TRUE(g.ok());
  ComputeLinksOptions force_sparse;
  force_sparse.dense_budget_bytes = 0;
  LinkMatrix sparse = ComputeLinks(*g, force_sparse);
  LinkMatrix dense = ComputeLinks(*g);  // default budget → dense path
  for (PointIndex i = 0; i < n; ++i) {
    for (PointIndex j = static_cast<PointIndex>(i + 1); j < n; ++j) {
      ASSERT_EQ(sparse.Count(i, j), dense.Count(i, j));
    }
  }
}

TEST(LinksTest, MatchesBruteForceOnRandomGraphs) {
  ROCK_SEEDED_RNG(rng, 99);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 20 + static_cast<size_t>(rng.UniformUint64(30));
    SimilarityTable t(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (rng.Bernoulli(0.25)) {
          ASSERT_TRUE(t.Set(i, j, 1.0).ok());
        }
      }
    }
    auto g = ComputeNeighbors(t, 0.5);
    ASSERT_TRUE(g.ok());
    LinkMatrix fast = ComputeLinks(*g);
    LinkMatrix slow = ComputeLinksBruteForce(*g);
    for (PointIndex i = 0; i < n; ++i) {
      for (PointIndex j = static_cast<PointIndex>(i + 1); j < n; ++j) {
        ASSERT_EQ(fast.Count(i, j), slow.Count(i, j))
            << "trial " << trial << " pair (" << i << "," << j << ")";
      }
    }
  }
}

// ----------------------------------------------------------- Dense matmul --

TEST(DenseMatrixTest, MultiplyKnownProduct) {
  DenseMatrix a(2, 3), b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12].
  int64_t va = 1;
  for (size_t r = 0; r < 2; ++r)
    for (size_t c = 0; c < 3; ++c) a.At(r, c) = va++;
  int64_t vb = 7;
  for (size_t r = 0; r < 3; ++r)
    for (size_t c = 0; c < 2; ++c) b.At(r, c) = vb++;
  auto p = a.Multiply(b);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->At(0, 0), 58);
  EXPECT_EQ(p->At(0, 1), 64);
  EXPECT_EQ(p->At(1, 0), 139);
  EXPECT_EQ(p->At(1, 1), 154);
}

TEST(DenseMatrixTest, DimensionMismatchFails) {
  DenseMatrix a(2, 3), b(2, 3);
  EXPECT_TRUE(a.Multiply(b).status().IsInvalidArgument());
}

TEST(DenseMatrixTest, DenseLinksMatchSparse) {
  TransactionDataset ds = Figure1Data();
  TransactionJaccard sim(ds);
  auto g = ComputeNeighbors(sim, 0.5);
  ASSERT_TRUE(g.ok());
  LinkMatrix sparse = ComputeLinks(*g);
  LinkMatrix dense = ComputeLinksDense(*g);
  const auto n = static_cast<PointIndex>(g->size());
  for (PointIndex i = 0; i < n; ++i) {
    for (PointIndex j = static_cast<PointIndex>(i + 1); j < n; ++j) {
      ASSERT_EQ(sparse.Count(i, j), dense.Count(i, j));
    }
  }
}

// --------------------------------------------------------------- Strassen --

TEST(StrassenTest, MatchesNaiveOnRandomSquares) {
  ROCK_SEEDED_RNG(rng, 7);
  for (size_t n : {1u, 2u, 3u, 5u, 8u, 17u, 33u}) {
    DenseMatrix a(n, n), b(n, n);
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < n; ++c) {
        a.At(r, c) = rng.UniformInt(-50, 50);
        b.At(r, c) = rng.UniformInt(-50, 50);
      }
    }
    StrassenOptions opt;
    opt.cutoff = 2;  // force deep recursion even for small n
    auto fast = StrassenMultiply(a, b, opt);
    auto slow = a.Multiply(b);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(*fast, *slow) << "n = " << n;
  }
}

TEST(StrassenTest, RejectsNonSquare) {
  DenseMatrix a(2, 3), b(3, 2);
  EXPECT_TRUE(StrassenMultiply(a, b).status().IsInvalidArgument());
  DenseMatrix c(2, 2), d(3, 3);
  EXPECT_TRUE(StrassenMultiply(c, d).status().IsInvalidArgument());
}

TEST(StrassenTest, EmptyMatrix) {
  DenseMatrix a(0, 0);
  auto p = StrassenMultiply(a, a);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->rows(), 0u);
}

TEST(StrassenTest, StrassenLinksMatchSparse) {
  TransactionDataset ds = Figure1Data();
  TransactionJaccard sim(ds);
  auto g = ComputeNeighbors(sim, 0.5);
  ASSERT_TRUE(g.ok());
  LinkMatrix sparse = ComputeLinks(*g);
  StrassenOptions opt;
  opt.cutoff = 4;
  LinkMatrix strassen = ComputeLinksStrassen(*g, opt);
  const auto n = static_cast<PointIndex>(g->size());
  for (PointIndex i = 0; i < n; ++i) {
    for (PointIndex j = static_cast<PointIndex>(i + 1); j < n; ++j) {
      ASSERT_EQ(sparse.Count(i, j), strassen.Count(i, j));
    }
  }
}

// Property sweep: all three link algorithms agree on random graphs of
// varying density.
class LinkAlgorithmsAgree : public ::testing::TestWithParam<double> {};

TEST_P(LinkAlgorithmsAgree, OnRandomGraph) {
  const double density = GetParam();
  ROCK_SEEDED_RNG(rng, static_cast<uint64_t>(density * 1000) + 1);
  const size_t n = 40;
  SimilarityTable t(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(density)) {
        ASSERT_TRUE(t.Set(i, j, 1.0).ok());
      }
    }
  }
  auto g = ComputeNeighbors(t, 0.5);
  ASSERT_TRUE(g.ok());
  LinkMatrix sparse = ComputeLinks(*g);
  LinkMatrix dense = ComputeLinksDense(*g);
  LinkMatrix strassen = ComputeLinksStrassen(*g);
  for (PointIndex i = 0; i < n; ++i) {
    for (PointIndex j = static_cast<PointIndex>(i + 1); j < n; ++j) {
      ASSERT_EQ(sparse.Count(i, j), dense.Count(i, j));
      ASSERT_EQ(sparse.Count(i, j), strassen.Count(i, j));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, LinkAlgorithmsAgree,
                         ::testing::Values(0.0, 0.05, 0.2, 0.5, 0.9, 1.0));

}  // namespace
}  // namespace rock
