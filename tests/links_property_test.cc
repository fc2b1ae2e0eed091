// Property tests for the LinkMatrix dense/sparse duality. ComputeLinks
// silently switches between a flat triangular accumulator and per-row hash
// maps based on dense_budget_bytes; the two paths must be indistinguishable
// at EVERY budget boundary (0, exactly-fits, one byte short). A fuzz loop of
// random LinkMatrixBuilder::Add / Count sequences then cross-checks the
// built CSR against a naive map model.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "diag/invariants.h"
#include "graph/link_engine.h"
#include "graph/links.h"
#include "graph/neighbors.h"
#include "similarity/jaccard.h"
#include "synth/basket_generator.h"
#include "test_support.h"

namespace rock {
namespace {

NeighborGraph RandomGraph(uint64_t seed, double theta) {
  BasketGeneratorOptions gen;
  gen.cluster_sizes = {40, 30, 20};
  gen.items_per_cluster = {12, 10, 14};
  gen.num_outliers = 8;
  gen.seed = seed;
  TransactionDataset ds = std::move(GenerateBasketData(gen)).value();
  TransactionJaccard sim(ds);
  return std::move(ComputeNeighbors(sim, theta)).value();
}

/// Byte-identical CSR: same size, and every row has the same partners and
/// counts in the same order.
void ExpectSameMatrix(const LinkMatrix& a, const LinkMatrix& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.NumNonZeroPairs(), b.NumNonZeroPairs());
  EXPECT_EQ(a.TotalLinks(), b.TotalLinks());
  for (size_t i = 0; i < a.size(); ++i) {
    const LinkRowSpan x = a.FlatRow(static_cast<PointIndex>(i));
    const LinkRowSpan y = b.FlatRow(static_cast<PointIndex>(i));
    ASSERT_EQ(x.size, y.size) << "row " << i;
    for (size_t e = 0; e < x.size; ++e) {
      ASSERT_EQ(x.partners[e], y.partners[e]) << "row " << i;
      ASSERT_EQ(x.counts[e], y.counts[e]) << "row " << i;
    }
  }
}

/// Bytes the dense triangular accumulator needs for an n-point graph.
size_t DenseBytes(size_t n) {
  return n < 2 ? 0 : n * (n - 1) / 2 * sizeof(LinkCount);
}

// The budget boundaries: 0 (always sparse), exactly-fits (dense), and one
// byte short (sparse again). All three must equal the brute-force oracle.
TEST(LinksBudgetBoundaryTest, AllBoundariesMatchBruteForce) {
  const uint64_t seed = 71;
  ROCK_TRACE_SEED(seed);
  for (double theta : {0.2, 0.5, 0.8}) {
    SCOPED_TRACE(::testing::Message() << "theta = " << theta);
    const NeighborGraph g = RandomGraph(seed, theta);
    const LinkMatrix oracle = ComputeLinksBruteForce(g);
    const size_t exact = DenseBytes(g.size());
    ASSERT_GT(exact, 0u);

    const std::pair<const char*, size_t> budgets[] = {
        {"zero (forced sparse)", 0},
        {"exactly fits (dense)", exact},
        {"one byte short (sparse)", exact - 1},
        {"default", ComputeLinksOptions{}.dense_budget_bytes},
    };
    for (const auto& [label, budget] : budgets) {
      SCOPED_TRACE(label);
      ComputeLinksOptions opt;
      opt.dense_budget_bytes = budget;
      const LinkMatrix links = ComputeLinks(g, opt);
      ExpectSameMatrix(oracle, links);

      diag::InvariantReport report;
      diag::CheckLinkMatrixSymmetry(links, &report);
      diag::CheckLinksMatchGraph(g, links, &report);
      EXPECT_TRUE(report.ok()) << report.violations().front().detail;
    }
  }
}

// Degenerate sizes around the n < 2 early-out of the dense path.
TEST(LinksBudgetBoundaryTest, TinyGraphsEveryBudget) {
  for (size_t n : {0u, 1u, 2u}) {
    NeighborGraph g;
    g.nbrlist.resize(n);
    if (n == 2) {
      g.nbrlist[0] = {1};
      g.nbrlist[1] = {0};
    }
    for (size_t budget : {size_t{0}, size_t{1}, size_t{1} << 20}) {
      ComputeLinksOptions opt;
      opt.dense_budget_bytes = budget;
      const LinkMatrix links = ComputeLinks(g, opt);
      EXPECT_EQ(links.size(), n);
      // A single edge produces no length-2 paths: all links zero.
      EXPECT_EQ(links.TotalLinks(), 0u);
      EXPECT_EQ(links.NumNonZeroPairs(), 0u);
    }
  }
}

// -------------------------------------------------------- CSR flat layout --

// ComputeLinks must emit each row sorted: strictly ascending partners with
// the brute-force counts, and no more entries than the oracle row holds.
TEST(LinkMatrixCsrTest, FrozenRowsMatchHashRowsAndBruteForce) {
  const uint64_t seed = 87;
  ROCK_TRACE_SEED(seed);
  for (double theta : {0.2, 0.5, 0.8}) {
    SCOPED_TRACE(::testing::Message() << "theta = " << theta);
    const NeighborGraph g = RandomGraph(seed, theta);
    const LinkMatrix oracle = ComputeLinksBruteForce(g);
    const LinkMatrix links = ComputeLinks(g);

    for (size_t i = 0; i < links.size(); ++i) {
      const auto p = static_cast<PointIndex>(i);
      const LinkRowSpan flat = links.FlatRow(p);
      ASSERT_EQ(flat.size, oracle.FlatRow(p).size) << "row " << i;
      for (size_t e = 0; e < flat.size; ++e) {
        if (e > 0) {
          EXPECT_LT(flat.partners[e - 1], flat.partners[e])
              << "row " << i << " not strictly ascending";
        }
        EXPECT_EQ(flat.counts[e], oracle.Count(p, flat.partners[e]))
            << "entry (" << i << ", " << flat.partners[e] << ")";
      }
    }
  }
}

// Building the same input twice gives identical CSR.
TEST(LinkMatrixCsrTest, FreezeIsIdempotent) {
  LinkMatrixBuilder builder(4);
  builder.Add(0, 1, 3);
  builder.Add(1, 2, 5);
  const LinkMatrix links = builder.Build();
  ExpectSameMatrix(links, builder.Build());
  const LinkRowSpan row = links.FlatRow(1);
  ASSERT_EQ(row.size, 2u);
  EXPECT_EQ(row.partners[0], 0u);
  EXPECT_EQ(row.counts[0], 3u);
  EXPECT_EQ(row.partners[1], 2u);
  EXPECT_EQ(row.counts[1], 5u);
}

// A built matrix is a snapshot: later adds reach only the next Build(),
// which equals a fresh build of the whole input.
TEST(LinkMatrixCsrTest, AddThawsAndRefreezeSeesNewData) {
  LinkMatrixBuilder builder(3);
  builder.Add(0, 1, 1);
  const LinkMatrix first = builder.Build();
  builder.Add(0, 2, 7);
  const LinkMatrix second = builder.Build();
  EXPECT_EQ(first.FlatRow(0).size, 1u);
  EXPECT_EQ(first.Count(0, 2), 0u);
  const LinkRowSpan row = second.FlatRow(0);
  ASSERT_EQ(row.size, 2u);
  EXPECT_EQ(row.partners[1], 2u);
  EXPECT_EQ(row.counts[1], 7u);

  LinkMatrixBuilder fresh(3);
  fresh.Add(0, 2, 7);
  fresh.Add(0, 1, 1);
  ExpectSameMatrix(second, fresh.Build());
}

TEST(LinkMatrixCsrTest, EmptyAndZeroRowGraphs) {
  EXPECT_EQ(LinkMatrix(0).size(), 0u);
  EXPECT_EQ(LinkMatrixBuilder(0).Build().size(), 0u);

  // No entries at all, whichever way the matrix is made.
  for (const LinkMatrix& sparse :
       {LinkMatrix(5), LinkMatrixBuilder(5).Build()}) {
    ASSERT_EQ(sparse.size(), 5u);
    EXPECT_EQ(sparse.NumNonZeroPairs(), 0u);
    EXPECT_EQ(sparse.TotalLinks(), 0u);
    for (PointIndex p = 0; p < 5; ++p) {
      EXPECT_EQ(sparse.FlatRow(p).size, 0u);
    }
  }
}

// Fuzz: random symmetric adds, built, every flat row checked against a
// std::map model of the same adds.
TEST(LinkMatrixCsrTest, FuzzFlatRowsMatchHashRows) {
  const uint64_t base_seed = 9119;
  for (uint64_t round = 0; round < 8; ++round) {
    ROCK_SEEDED_RNG(rng, base_seed + round);
    const size_t n = 2 + static_cast<size_t>(rng.UniformInt(0, 40));
    LinkMatrixBuilder builder(n);
    std::vector<std::map<PointIndex, LinkCount>> model(n);
    const auto adds = static_cast<int>(rng.UniformInt(0, 300));
    for (int op = 0; op < adds; ++op) {
      const auto i = static_cast<PointIndex>(
          rng.UniformInt(0, static_cast<int>(n) - 1));
      auto j = static_cast<PointIndex>(
          rng.UniformInt(0, static_cast<int>(n) - 1));
      if (i == j) j = (j + 1) % static_cast<PointIndex>(n);
      const auto delta = static_cast<LinkCount>(rng.UniformInt(1, 4));
      builder.Add(i, j, delta);
      model[i][j] += delta;
      model[j][i] += delta;
    }
    const LinkMatrix links = builder.Build();
    for (size_t i = 0; i < n; ++i) {
      const LinkRowSpan flat = links.FlatRow(static_cast<PointIndex>(i));
      ASSERT_EQ(flat.size, model[i].size()) << "row " << i;
      size_t e = 0;
      for (const auto& [j, count] : model[i]) {  // ascending, like the CSR
        ASSERT_EQ(flat.partners[e], j) << "row " << i;
        ASSERT_EQ(flat.counts[e], count) << "row " << i;
        ++e;
      }
    }
  }
}

// -------------------------------------------- engine-agnostic invariants --

// Both link engines — the hashed Fig. 4 reference and the packed engine —
// must satisfy the same structural laws. Parameterized so each law runs
// verbatim against each engine's output. The parameter is plain
// data with no pointers or padding: the test names that gtest lists embed a
// byte dump of it, and those names must be the same on every build.
enum class LinkImpl : uint64_t { kHashed, kPacked };

struct EngineCase {
  LinkImpl engine;
  uint32_t num_threads;  // packed engine only
  uint32_t row_chunk;    // packed engine only
};

LinkMatrix BuildLinks(const EngineCase& c, const NeighborGraph& g) {
  if (c.engine == LinkImpl::kHashed) return ComputeLinks(g);
  PackedLinkOptions opt;
  opt.num_threads = c.num_threads;
  opt.row_chunk = c.row_chunk;
  return ComputeLinksPacked(g, opt);
}

class LinkEngineInvariantTest : public ::testing::TestWithParam<EngineCase> {};

// Frozen rows are symmetric: entry (p, q, c) implies entry (q, p, c).
TEST_P(LinkEngineInvariantTest, FrozenRowsAreSymmetric) {
  const uint64_t seed = 311;
  ROCK_TRACE_SEED(seed);
  for (double theta : {0.3, 0.6}) {
    SCOPED_TRACE(::testing::Message() << "theta = " << theta);
    const NeighborGraph g = RandomGraph(seed, theta);
    const LinkMatrix links = BuildLinks(GetParam(), g);
    for (size_t i = 0; i < links.size(); ++i) {
      const auto p = static_cast<PointIndex>(i);
      const LinkRowSpan row = links.FlatRow(p);
      for (size_t e = 0; e < row.size; ++e) {
        ASSERT_EQ(links.Count(row.partners[e], p), row.counts[e])
            << "mirror of (" << i << ", " << row.partners[e] << ")";
      }
    }
    diag::InvariantReport report;
    diag::CheckLinkMatrixSymmetry(links, &report);
    EXPECT_TRUE(report.ok()) << report.violations().front().detail;
  }
}

// links.self diagonal guard (PR 2 regression): no engine may emit an entry
// on the diagonal, and the diag oracle still trips if one is forced in.
TEST_P(LinkEngineInvariantTest, DiagonalStaysEmpty) {
  const uint64_t seed = 313;
  ROCK_TRACE_SEED(seed);
  const NeighborGraph g = RandomGraph(seed, 0.4);
  const LinkMatrix links = BuildLinks(GetParam(), g);
  for (size_t i = 0; i < links.size(); ++i) {
    const auto p = static_cast<PointIndex>(i);
    EXPECT_EQ(links.Count(p, p), 0u);
    const LinkRowSpan row = links.FlatRow(p);
    for (size_t e = 0; e < row.size; ++e) {
      ASSERT_NE(row.partners[e], p) << "self-link stored in row " << i;
    }
  }
}

// Conservation law: every point with degree m_i credits exactly C(m_i, 2)
// links (one per unordered pair of its neighbors), so the total over all
// pairs must equal Σ_i C(m_i, 2) — for any engine, any graph.
TEST_P(LinkEngineInvariantTest, TotalLinksEqualSumOfDegreeChoose2) {
  const uint64_t seed = 317;
  ROCK_TRACE_SEED(seed);
  for (double theta : {0.0, 0.3, 0.6, 1.0}) {
    SCOPED_TRACE(::testing::Message() << "theta = " << theta);
    const NeighborGraph g = RandomGraph(seed, theta);
    const LinkMatrix links = BuildLinks(GetParam(), g);
    uint64_t want = 0;
    for (size_t i = 0; i < g.size(); ++i) {
      const uint64_t m = g.Degree(i);
      want += m * (m - (m > 0 ? 1 : 0)) / 2;
    }
    EXPECT_EQ(links.TotalLinks(), want);
  }
}

// Count and FlatRow on either engine's output match the brute-force
// reference: the same rows, entry for entry, and the same count for every
// pair, stored or not.
TEST_P(LinkEngineInvariantTest, FreezeIsIdempotentOnEngineOutput) {
  const uint64_t seed = 331;
  ROCK_TRACE_SEED(seed);
  const NeighborGraph g = RandomGraph(seed, 0.5);
  const LinkMatrix links = BuildLinks(GetParam(), g);
  const LinkMatrix reference = ComputeLinksBruteForce(g);
  ExpectSameMatrix(reference, links);
  const auto n = static_cast<PointIndex>(g.size());
  for (PointIndex p = 0; p < n; ++p) {
    for (PointIndex q = 0; q < n; ++q) {
      ASSERT_EQ(links.Count(p, q), reference.Count(p, q))
          << "(" << p << ", " << q << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, LinkEngineInvariantTest,
    ::testing::Values(EngineCase{LinkImpl::kHashed, 0, 0},
                      EngineCase{LinkImpl::kPacked, 4, 2}),
    [](const ::testing::TestParamInfo<EngineCase>& p) {
      return std::string(p.param.engine == LinkImpl::kHashed ? "hashed"
                                                              : "packed");
    });

// ------------------------------------------------------------------- fuzz --

// Random builder Add / Count sequences against a std::map model: each
// query reads a fresh Build() of the adds so far. Checks per-query
// agreement, symmetry, and the TotalLinks / NumNonZeroPairs aggregates.
TEST(LinkMatrixFuzzTest, RandomAddCountSequencesMatchModel) {
  const uint64_t base_seed = 4242;
  for (uint64_t round = 0; round < 8; ++round) {
    const uint64_t seed = base_seed + round;
    ROCK_SEEDED_RNG(rng, seed);
    const size_t n = 3 + static_cast<size_t>(rng.UniformInt(0, 29));
    LinkMatrixBuilder builder(n);
    std::map<std::pair<PointIndex, PointIndex>, uint64_t> model;

    for (int op = 0; op < 600; ++op) {
      const auto i = static_cast<PointIndex>(
          rng.UniformInt(0, static_cast<int>(n) - 1));
      auto j = static_cast<PointIndex>(
          rng.UniformInt(0, static_cast<int>(n) - 1));
      if (i == j) j = (j + 1) % static_cast<PointIndex>(n);
      if (rng.UniformInt(0, 2) != 0) {  // Add with probability 2/3
        const auto delta =
            static_cast<LinkCount>(rng.UniformInt(1, 5));
        builder.Add(i, j, delta);
        model[{std::min(i, j), std::max(i, j)}] += delta;
      } else {  // Count query, both orientations
        const auto it = model.find({std::min(i, j), std::max(i, j)});
        const uint64_t want = it == model.end() ? 0 : it->second;
        const LinkMatrix links = builder.Build();
        ASSERT_EQ(links.Count(i, j), want) << "(" << i << ", " << j << ")";
        ASSERT_EQ(links.Count(j, i), want) << "(" << j << ", " << i << ")";
      }
    }

    // Aggregate agreement with the model.
    const LinkMatrix links = builder.Build();
    uint64_t want_total = 0;
    size_t want_pairs = 0;
    for (const auto& [pair, count] : model) {
      (void)pair;
      want_total += count;
      if (count > 0) ++want_pairs;
    }
    EXPECT_EQ(links.TotalLinks(), want_total);
    EXPECT_EQ(links.NumNonZeroPairs(), want_pairs);

    // Structural symmetry via the diag oracle (self/zero entries included).
    diag::InvariantReport report;
    diag::CheckLinkMatrixSymmetry(links, &report);
    EXPECT_TRUE(report.ok()) << report.violations().front().detail;

    // Self-queries are zero by convention regardless of history.
    for (PointIndex p = 0; p < n; ++p) EXPECT_EQ(links.Count(p, p), 0u);
  }
}

}  // namespace
}  // namespace rock
