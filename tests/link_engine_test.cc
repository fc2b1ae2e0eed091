// tests/link_engine_test.cc — oracle-grade differential harness for the
// bit-plane link engine (graph/link_engine.h).
//
// ComputeLinksPacked must produce byte-identical frozen CSR rows vs three
// independent oracles — the Fig. 4 hashed scatter (ComputeLinks + Freeze),
// the brute-force sorted-intersection path, and the Strassen A² squaring —
// across a θ × seed × thread-count × graph-shape grid, including the
// degenerate shapes (empty graph, star, clique, isolated points, θ ∈
// {0, 1}). The packing-budget boundary is pinned byte by byte: exactly-fits
// packs, one byte short falls back to the hashed scatter (and says so via
// links.fallback_hashed) with identical results either way.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "diag/invariants.h"
#include "diag/metrics.h"
#include "graph/link_engine.h"
#include "graph/links.h"
#include "graph/neighbors.h"
#include "graph/strassen.h"
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

/// Plane bytes ComputeLinksPacked needs for an n-point graph.
size_t PlaneBytes(size_t n) { return n * ((n + 63) / 64) * sizeof(uint64_t); }

/// The acceptance bar: every frozen CSR row equal element for element —
/// same offsets (row sizes), same partner bytes, same count bytes.
void ExpectFrozenRowsIdentical(const LinkMatrix& got, const LinkMatrix& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_TRUE(got.frozen());
  ASSERT_TRUE(want.frozen());
  for (size_t i = 0; i < got.size(); ++i) {
    const LinkRowSpan g = got.FlatRow(static_cast<PointIndex>(i));
    const LinkRowSpan w = want.FlatRow(static_cast<PointIndex>(i));
    ASSERT_EQ(g.size, w.size) << "row " << i;
    for (size_t e = 0; e < g.size; ++e) {
      ASSERT_EQ(g.partners[e], w.partners[e]) << "row " << i << " entry " << e;
      ASSERT_EQ(g.counts[e], w.counts[e]) << "row " << i << " entry " << e;
    }
  }
  EXPECT_EQ(got.NumNonZeroPairs(), want.NumNonZeroPairs());
  EXPECT_EQ(got.TotalLinks(), want.TotalLinks());
}

/// Cross-checks `packed` against every independent oracle on `graph`, plus
/// the structural invariant oracles.
void ExpectMatchesAllOracles(const NeighborGraph& graph,
                             const LinkMatrix& packed) {
  LinkMatrix hashed = ComputeLinks(graph);
  hashed.Freeze();
  ExpectFrozenRowsIdentical(packed, hashed);

  const LinkMatrix brute = ComputeLinksBruteForce(graph);
  const LinkMatrix strassen = ComputeLinksStrassen(graph);
  ASSERT_EQ(brute.size(), packed.size());
  ASSERT_EQ(strassen.size(), packed.size());
  for (size_t i = 0; i < packed.size(); ++i) {
    const LinkRowSpan row = packed.FlatRow(static_cast<PointIndex>(i));
    ASSERT_EQ(row.size, brute.Row(static_cast<PointIndex>(i)).size())
        << "row " << i;
    for (size_t e = 0; e < row.size; ++e) {
      const auto p = static_cast<PointIndex>(i);
      ASSERT_EQ(row.counts[e], brute.Count(p, row.partners[e]))
          << "entry (" << i << ", " << row.partners[e] << ") vs brute force";
      ASSERT_EQ(row.counts[e], strassen.Count(p, row.partners[e]))
          << "entry (" << i << ", " << row.partners[e] << ") vs Strassen";
    }
  }

  diag::InvariantReport report;
  diag::CheckLinkMatrixSymmetry(packed, &report);
  diag::CheckLinksMatchGraph(graph, packed, &report);
  EXPECT_TRUE(report.ok()) << report.violations().front().detail;
}

// ------------------------------------------------------- differential grid --

// θ × thread-count grid on a randomized graph; every cell checks the packed
// engine against all three oracles and the metric accounting invariant
// candidate_pairs == pairs_counted == stored non-zero pairs.
class LinkEngineGridTest
    : public ::testing::TestWithParam<std::tuple<double, size_t>> {};

TEST_P(LinkEngineGridTest, PackedMatchesOraclesAndCountsCandidatesExactly) {
  const auto [theta, threads] = GetParam();
  const uint64_t seed = 20260808;
  ROCK_TRACE_SEED(seed);
  const NeighborGraph graph = RandomGraph(seed, theta);

  diag::MetricsRegistry registry;
  PackedLinkOptions opt;
  opt.num_threads = threads;
  opt.row_chunk = 3;  // force many scheduling steps on a small input
  opt.metrics = &registry;
  const LinkMatrix packed = ComputeLinksPacked(graph, opt);
  ASSERT_TRUE(packed.frozen()) << "packed engine must return a frozen matrix";
  ExpectMatchesAllOracles(graph, packed);

  const diag::RunMetrics m = registry.Snapshot();
  EXPECT_EQ(m.CounterOr("links.fallback_hashed"), 0u);
  EXPECT_EQ(m.CounterOr("links.candidate_pairs"),
            m.CounterOr("links.pairs_counted"))
      << "candidate enumeration must be exact (no wasted popcounts)";
  EXPECT_EQ(m.CounterOr("links.pairs_counted"), packed.NumNonZeroPairs());
  ASSERT_NE(m.FindTimer("stage.links.pack"), nullptr);
  EXPECT_EQ(m.FindTimer("stage.links.pack")->count, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    ThetaByThreads, LinkEngineGridTest,
    ::testing::Combine(::testing::Values(0.0, 0.2, 0.5, 0.8, 1.0),
                       ::testing::Values(size_t{1}, size_t{4}, size_t{8})),
    [](const ::testing::TestParamInfo<LinkEngineGridTest::ParamType>& param) {
      const double theta = std::get<0>(param.param);
      return "theta" + std::to_string(static_cast<int>(theta * 10)) +
             "_threads" + std::to_string(std::get<1>(param.param));
    });

// Varying seeds at a fixed mid-grid configuration; also pins the thread-
// count determinism clause directly (1, 4 and 8 workers byte-identical).
class LinkEngineSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LinkEngineSeedTest, ThreadCountsAgreeByteForByteAcrossSeeds) {
  const uint64_t seed = GetParam();
  ROCK_TRACE_SEED(seed);
  const NeighborGraph graph = RandomGraph(seed, 0.5);

  PackedLinkOptions serial;
  const LinkMatrix golden = ComputeLinksPacked(graph, serial);
  ExpectMatchesAllOracles(graph, golden);
  for (size_t threads : {4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "threads = " << threads);
    PackedLinkOptions opt;
    opt.num_threads = threads;
    opt.row_chunk = 2;
    ExpectFrozenRowsIdentical(ComputeLinksPacked(graph, opt), golden);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkEngineSeedTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u));

// ------------------------------------------------------- strategy forcing --

// Both counting passes, forced explicitly, must match every oracle on the
// same graphs the grid exercises — independent of which one kAuto would
// have picked — and must report themselves through the metric catalog.
class LinkEngineStrategyTest
    : public ::testing::TestWithParam<std::tuple<double, size_t>> {};

TEST_P(LinkEngineStrategyTest, ForcedScatterAndPlaneBothMatchOracles) {
  const auto [theta, threads] = GetParam();
  const uint64_t seed = 20260808;
  ROCK_TRACE_SEED(seed);
  const NeighborGraph graph = RandomGraph(seed, theta);

  for (const PackedLinkStrategy strategy :
       {PackedLinkStrategy::kPlane, PackedLinkStrategy::kScatter}) {
    const bool scatter = strategy == PackedLinkStrategy::kScatter;
    SCOPED_TRACE(scatter ? "scatter" : "plane");
    diag::MetricsRegistry registry;
    PackedLinkOptions opt;
    opt.num_threads = threads;
    opt.row_chunk = 3;
    opt.strategy = strategy;
    opt.metrics = &registry;
    const LinkMatrix packed = ComputeLinksPacked(graph, opt);
    ASSERT_TRUE(packed.frozen());
    ExpectMatchesAllOracles(graph, packed);

    const diag::RunMetrics m = registry.Snapshot();
    EXPECT_EQ(m.CounterOr("links.scatter_pass"), scatter ? 1u : 0u);
    EXPECT_EQ(m.CounterOr("links.fallback_hashed"), 0u);
    EXPECT_EQ(m.CounterOr("links.candidate_pairs"),
              m.CounterOr("links.pairs_counted"))
        << "candidate enumeration must be exact on both passes";
    EXPECT_EQ(m.CounterOr("links.pairs_counted"), packed.NumNonZeroPairs());
    // Only the plane pass packs; the scatter needs no plane, so it must
    // not charge pack time.
    EXPECT_EQ(m.FindTimer("stage.links.pack") != nullptr, !scatter);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThetaByThreads, LinkEngineStrategyTest,
    ::testing::Combine(::testing::Values(0.0, 0.2, 0.5, 0.8),
                       ::testing::Values(size_t{1}, size_t{4})),
    [](const ::testing::TestParamInfo<LinkEngineStrategyTest::ParamType>&
           param) {
      const double theta = std::get<0>(param.param);
      return "theta" + std::to_string(static_cast<int>(theta * 10)) +
             "_threads" + std::to_string(std::get<1>(param.param));
    });

// The scatter pass carries no plane, so it must ignore the packing budget
// entirely: a zero budget that forces the plane into the hashed fallback
// leaves a forced scatter untouched.
TEST(LinkEngineStrategyTest, ScatterIgnoresPackBudget) {
  const uint64_t seed = 42;
  ROCK_TRACE_SEED(seed);
  const NeighborGraph graph = RandomGraph(seed, 0.5);
  LinkMatrix oracle = ComputeLinks(graph);
  oracle.Freeze();

  diag::MetricsRegistry registry;
  PackedLinkOptions opt;
  opt.strategy = PackedLinkStrategy::kScatter;
  opt.pack_budget_bytes = 0;
  opt.metrics = &registry;
  ExpectFrozenRowsIdentical(ComputeLinksPacked(graph, opt), oracle);
  const diag::RunMetrics m = registry.Snapshot();
  EXPECT_EQ(m.CounterOr("links.fallback_hashed"), 0u);
  EXPECT_EQ(m.CounterOr("links.scatter_pass"), 1u);
}

// kAuto's pass choice is a pure function of the graph (never the thread
// count or budget), pinned here on the two extremes: a sparse chain (tiny
// neighborhoods → scatter) and a dense clique-like graph (plane).
TEST(LinkEngineStrategyTest, AutoChoiceDependsOnlyOnGraphShape) {
  NeighborGraph chain;
  chain.nbrlist.resize(200);
  for (size_t i = 0; i + 1 < chain.nbrlist.size(); ++i) {
    chain.nbrlist[i].push_back(static_cast<PointIndex>(i + 1));
    chain.nbrlist[i + 1].push_back(static_cast<PointIndex>(i));
  }
  NeighborGraph clique;
  clique.nbrlist.resize(200);
  for (size_t i = 0; i < clique.nbrlist.size(); ++i) {
    for (size_t j = 0; j < clique.nbrlist.size(); ++j) {
      if (i != j) clique.nbrlist[i].push_back(static_cast<PointIndex>(j));
    }
  }

  const std::tuple<const char*, const NeighborGraph*, uint64_t> cases[] = {
      {"sparse_chain", &chain, 1},
      {"dense_clique", &clique, 0},
  };
  for (const auto& [label, graph, want_scatter] : cases) {
    SCOPED_TRACE(label);
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message() << "threads = " << threads);
      diag::MetricsRegistry registry;
      PackedLinkOptions opt;
      opt.num_threads = threads;
      opt.metrics = &registry;
      const LinkMatrix links = ComputeLinksPacked(*graph, opt);
      ExpectMatchesAllOracles(*graph, links);
      EXPECT_EQ(registry.Snapshot().CounterOr("links.scatter_pass"),
                want_scatter);
    }
  }
}

// ------------------------------------------------------------ graph shapes --

NeighborGraph StarGraph(size_t n) {
  // Hub 0 adjacent to every leaf; every leaf pair shares exactly the hub.
  NeighborGraph g;
  g.nbrlist.resize(n);
  for (size_t leaf = 1; leaf < n; ++leaf) {
    g.nbrlist[0].push_back(static_cast<PointIndex>(leaf));
    g.nbrlist[leaf].push_back(0);
  }
  return g;
}

NeighborGraph CliqueGraph(size_t n) {
  NeighborGraph g;
  g.nbrlist.resize(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) g.nbrlist[i].push_back(static_cast<PointIndex>(j));
    }
  }
  return g;
}

TEST(LinkEngineShapeTest, DegenerateShapesMatchOraclesAtEveryThreadCount) {
  struct Shape {
    const char* name;
    NeighborGraph graph;
  };
  // A clique with isolated points tacked on: the isolated rows must stay
  // all-zero and must not disturb their neighbors' candidate masks.
  NeighborGraph clique_iso = CliqueGraph(40);
  clique_iso.nbrlist.resize(55);
  Shape shapes[] = {
      {"empty_graph", NeighborGraph{}},
      {"edgeless_graph", [] {
         NeighborGraph g;
         g.nbrlist.resize(30);  // isolated points only
         return g;
       }()},
      {"single_point", [] {
         NeighborGraph g;
         g.nbrlist.resize(1);
         return g;
       }()},
      {"star", StarGraph(70)},
      {"clique", CliqueGraph(65)},
      {"clique_plus_isolated", std::move(clique_iso)},
  };
  for (Shape& s : shapes) {
    SCOPED_TRACE(s.name);
    for (size_t threads : {1u, 4u, 8u}) {
      SCOPED_TRACE(::testing::Message() << "threads = " << threads);
      PackedLinkOptions opt;
      opt.num_threads = threads;
      opt.row_chunk = 2;
      ExpectMatchesAllOracles(s.graph, ComputeLinksPacked(s.graph, opt));
    }
  }
  // Clique sanity anchor: link(i, j) = n − 2 on every pair.
  const NeighborGraph clique = CliqueGraph(65);
  const LinkMatrix links = ComputeLinksPacked(clique);
  EXPECT_EQ(links.Count(0, 1), 63u);
  EXPECT_EQ(links.TotalLinks(), uint64_t{65} * 64 / 2 * 63);
  // Star anchor: every leaf pair shares exactly the hub, the hub shares
  // nobody with anyone.
  const LinkMatrix star = ComputeLinksPacked(StarGraph(70));
  EXPECT_EQ(star.Count(1, 2), 1u);
  EXPECT_EQ(star.Count(0, 1), 0u);
  EXPECT_EQ(star.TotalLinks(), uint64_t{69} * 68 / 2);
}

// θ = 0 (complete graph) and θ = 1 (near-empty graph) through the real
// neighbor-construction path rather than synthetic adjacency.
TEST(LinkEngineShapeTest, ThetaExtremesMatchOracles) {
  const uint64_t seed = 77;
  ROCK_TRACE_SEED(seed);
  for (const double theta : {0.0, 1.0}) {
    SCOPED_TRACE(::testing::Message() << "theta = " << theta);
    const NeighborGraph graph = RandomGraph(seed, theta);
    for (size_t threads : {1u, 8u}) {
      PackedLinkOptions opt;
      opt.num_threads = threads;
      ExpectMatchesAllOracles(graph, ComputeLinksPacked(graph, opt));
    }
  }
}

// --------------------------------------------------------- locality order --

// The plane pass relabels points in BFS order and works on each row's
// nonzero word span. These shapes start with wide spans (neighbors spread
// over the whole id range) and exercise the relabeling's edge cases.

/// k interleaved components: point i belongs to component i mod k, and two
/// members of a component are adjacent with probability `density`. Points
/// with i mod isolated_every == isolated_every − 1 stay isolated (0 = none).
NeighborGraph InterleavedComponents(size_t n, size_t k, double density,
                                    uint64_t seed, size_t isolated_every) {
  Rng rng(seed);
  const auto isolated = [&](size_t i) {
    return isolated_every != 0 && i % isolated_every == isolated_every - 1;
  };
  NeighborGraph g;
  g.nbrlist.resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (isolated(i)) continue;
    for (size_t j = i + k; j < n; j += k) {
      if (isolated(j) || !rng.Bernoulli(density)) continue;
      g.nbrlist[i].push_back(static_cast<PointIndex>(j));
      g.nbrlist[j].push_back(static_cast<PointIndex>(i));
    }
  }
  return g;  // i ascending appends keep every list sorted
}

/// A Hamiltonian path through a shuffled id sequence: BFS from id 0 walks
/// both directions, up to n levels deep.
NeighborGraph ScrambledPath(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<PointIndex> walk(n);
  for (size_t i = 0; i < n; ++i) walk[i] = static_cast<PointIndex>(i);
  rng.Shuffle(walk);
  NeighborGraph g;
  g.nbrlist.resize(n);
  for (size_t t = 0; t + 1 < n; ++t) {
    g.nbrlist[walk[t]].push_back(walk[t + 1]);
    g.nbrlist[walk[t + 1]].push_back(walk[t]);
  }
  for (auto& nbrs : g.nbrlist) std::sort(nbrs.begin(), nbrs.end());
  return g;
}

/// Σ over rows of the nonzero word span in the original id order.
uint64_t OriginalSpanWords(const NeighborGraph& g) {
  uint64_t total = 0;
  for (const auto& nbrs : g.nbrlist) {
    if (!nbrs.empty()) total += nbrs.back() / 64 - nbrs.front() / 64 + 1;
  }
  return total;
}

TEST(LinkEngineLocalityTest, RelabeledPlaneMatchesOraclesAtEveryThreadCount) {
  struct Shape {
    std::string name;
    NeighborGraph graph;
  };
  const uint64_t seed = 20261017;
  ROCK_TRACE_SEED(seed);
  std::vector<Shape> shapes;
  // n = 200 and 129 end in a partial last word (8 bits and 1 bit); ids 63
  // and 127 sit on word boundaries and have neighbors in every dense shape.
  for (const size_t n : {200u, 129u}) {
    for (const size_t k : {2u, 5u}) {
      shapes.push_back({"interleaved n=" + std::to_string(n) +
                            " k=" + std::to_string(k),
                        InterleavedComponents(n, k, 0.6, seed + n + k, 0)});
      shapes.push_back({"interleaved+isolated n=" + std::to_string(n) +
                            " k=" + std::to_string(k),
                        InterleavedComponents(n, k, 0.6, seed + n * k, 7)});
    }
  }
  shapes.push_back({"scrambled path", ScrambledPath(300, seed)});
  // Word-boundary clique: 63 | 64 and 127 | 128 straddle words, and 63 and
  // 127 (≡ 63 mod 64) are the rows whose upper partners start a new word.
  {
    NeighborGraph g = InterleavedComponents(190, 3, 0.3, seed, 11);
    const std::vector<PointIndex> ring = {0, 62, 63, 64, 127, 128, 189};
    for (const PointIndex a : ring) {
      for (const PointIndex b : ring) {
        if (a == b) continue;
        auto& nbrs = g.nbrlist[a];
        if (!std::binary_search(nbrs.begin(), nbrs.end(), b)) {
          nbrs.insert(std::lower_bound(nbrs.begin(), nbrs.end(), b), b);
        }
      }
    }
    shapes.push_back({"word-boundary clique", std::move(g)});
  }

  for (const Shape& s : shapes) {
    SCOPED_TRACE(s.name);
    for (const size_t threads : {1u, 4u, 8u}) {
      SCOPED_TRACE(::testing::Message() << "threads = " << threads);
      diag::MetricsRegistry registry;
      PackedLinkOptions opt;
      opt.num_threads = threads;
      opt.row_chunk = 3;
      opt.strategy = PackedLinkStrategy::kPlane;
      opt.metrics = &registry;
      const LinkMatrix packed = ComputeLinksPacked(s.graph, opt);
      ExpectMatchesAllOracles(s.graph, packed);
      const diag::RunMetrics m = registry.Snapshot();
      EXPECT_EQ(m.CounterOr("links.candidate_pairs"),
                m.CounterOr("links.pairs_counted"));
      EXPECT_EQ(m.CounterOr("links.pairs_counted"), packed.NumNonZeroPairs());
      EXPECT_LE(m.CounterOr("links.span_words"),
                s.graph.size() * ((s.graph.size() + 63) / 64));
    }
  }
}

// BFS gathers each interleaved component into consecutive labels, so the
// rows' spans shrink; links.span_words reports the narrowed total.
TEST(LinkEngineLocalityTest, RelabelingNarrowsInterleavedSpans) {
  const uint64_t seed = 5;
  ROCK_TRACE_SEED(seed);
  const NeighborGraph graph = InterleavedComponents(640, 5, 0.5, seed, 0);
  diag::MetricsRegistry registry;
  PackedLinkOptions opt;
  opt.strategy = PackedLinkStrategy::kPlane;
  opt.metrics = &registry;
  LinkMatrix oracle = ComputeLinks(graph);
  oracle.Freeze();
  ExpectFrozenRowsIdentical(ComputeLinksPacked(graph, opt), oracle);
  // Each component holds 128 points: 2–3 words once contiguous, against all
  // 10 words in id order.
  const uint64_t span_words = registry.Snapshot().CounterOr("links.span_words");
  EXPECT_EQ(OriginalSpanWords(graph), 640u * 10u);
  EXPECT_LE(span_words, 640u * 3u);
}

// ---------------------------------------------------------- budget / fallback --

TEST(LinkEngineBudgetTest, BudgetBoundaryPacksExactlyAndFallsBackOneByteShort) {
  const uint64_t seed = 42;
  ROCK_TRACE_SEED(seed);
  const NeighborGraph graph = RandomGraph(seed, 0.5);
  const size_t exact = PlaneBytes(graph.size());
  ASSERT_GT(exact, 0u);

  LinkMatrix oracle = ComputeLinks(graph);
  oracle.Freeze();

  const std::tuple<const char*, size_t, uint64_t> cases[] = {
      {"exactly fits (packed)", exact, 0},
      {"one byte short (fallback)", exact - 1, 1},
      {"zero budget (fallback)", 0, 1},
      {"default budget (packed)", PackedLinkOptions{}.pack_budget_bytes, 0},
  };
  for (const auto& [label, budget, want_fallback] : cases) {
    SCOPED_TRACE(label);
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message() << "threads = " << threads);
      diag::MetricsRegistry registry;
      PackedLinkOptions opt;
      opt.num_threads = threads;
      opt.pack_budget_bytes = budget;
      opt.metrics = &registry;
      const LinkMatrix links = ComputeLinksPacked(graph, opt);
      ExpectFrozenRowsIdentical(links, oracle);

      const diag::RunMetrics m = registry.Snapshot();
      EXPECT_EQ(m.CounterOr("links.fallback_hashed"), want_fallback);
      EXPECT_EQ(m.CounterOr("links.pairs_counted"), links.NumNonZeroPairs());
      if (want_fallback == 1) {
        EXPECT_EQ(m.CounterOr("links.candidate_pairs"), 0u)
            << "the fallback enumerates no candidates";
        EXPECT_EQ(m.FindTimer("stage.links.pack"), nullptr)
            << "the fallback must not charge a pack timer";
      }
    }
  }
}

// The n < 2 early-outs still honor the frozen-matrix contract.
TEST(LinkEngineBudgetTest, TinyGraphsEveryBudget) {
  for (size_t n : {0u, 1u}) {
    NeighborGraph g;
    g.nbrlist.resize(n);
    for (size_t budget : {size_t{0}, size_t{1} << 20}) {
      PackedLinkOptions opt;
      opt.pack_budget_bytes = budget;
      const LinkMatrix links = ComputeLinksPacked(g, opt);
      EXPECT_TRUE(links.frozen());
      EXPECT_EQ(links.size(), n);
      EXPECT_EQ(links.NumNonZeroPairs(), 0u);
      EXPECT_EQ(links.TotalLinks(), 0u);
    }
  }
}

// ----------------------------------------------- lazy hash-row materialization --

// A packed (FromCsr) matrix must behave exactly like an Add-built one once
// the hash API is touched: Row() agrees with the CSR rows, mutation thaws,
// and a re-Freeze reproduces the original layout plus the mutation.
TEST(LinkEngineLazyRowsTest, HashApiOnPackedMatrixMatchesOracle) {
  const uint64_t seed = 7;
  ROCK_TRACE_SEED(seed);
  const NeighborGraph graph = RandomGraph(seed, 0.5);
  LinkMatrix packed = ComputeLinksPacked(graph);
  const LinkMatrix oracle = ComputeLinks(graph);

  // Row() materializes the hash rows from the CSR arrays.
  for (size_t i = 0; i < packed.size(); ++i) {
    const auto p = static_cast<PointIndex>(i);
    const auto& row = packed.Row(p);
    ASSERT_EQ(row.size(), oracle.Row(p).size()) << "row " << i;
    for (const auto& [j, count] : row) {
      ASSERT_EQ(oracle.Count(p, j), count) << "(" << i << ", " << j << ")";
    }
  }

  // Mutation thaws; refreezing sees both the old data and the new entry.
  ASSERT_GE(packed.size(), 2u);
  const LinkCount before = packed.Count(0, 1);
  packed.Add(0, 1, 5);
  EXPECT_FALSE(packed.frozen());
  EXPECT_EQ(packed.Count(0, 1), before + 5);
  packed.Freeze();
  EXPECT_EQ(packed.Count(0, 1), before + 5);
}

TEST(LinkEngineLazyRowsTest, MaterializeHashRowsIsIdempotent) {
  const NeighborGraph graph = StarGraph(20);
  const LinkMatrix packed = ComputeLinksPacked(graph);
  packed.MaterializeHashRows();
  packed.MaterializeHashRows();  // no-op second time
  EXPECT_EQ(packed.Row(1).size(), 18u);  // 18 other leaves share the hub
  EXPECT_TRUE(packed.frozen());
}

// ------------------------------------------------------------------- fuzz --

// Random graphs through the real θ-threshold construction; every round
// checks packed-vs-hashed byte equality at 1/4/8 threads and a random
// packing budget (sometimes forcing the fallback mid-grid).
TEST(LinkEngineFuzzTest, RandomGraphsAllEnginesAgree) {
  const uint64_t base_seed = 0xE5151;
  for (uint64_t round = 0; round < 6; ++round) {
    ROCK_SEEDED_RNG(rng, base_seed + round);
    const double theta = 0.2 + 0.15 * static_cast<double>(round % 4);
    const NeighborGraph graph = RandomGraph(base_seed + round, theta);
    LinkMatrix oracle = ComputeLinks(graph);
    oracle.Freeze();
    const size_t exact = PlaneBytes(graph.size());
    for (size_t threads : {1u, 4u, 8u}) {
      PackedLinkOptions opt;
      opt.num_threads = threads;
      opt.row_chunk = 1 + static_cast<size_t>(rng.UniformInt(0, 6));
      // Half the rounds land under the plane size and take the fallback.
      opt.pack_budget_bytes =
          static_cast<size_t>(rng.UniformInt(0, 1)) == 0 ? exact / 2 : exact;
      SCOPED_TRACE(::testing::Message()
                   << "theta=" << theta << " threads=" << threads
                   << " budget=" << opt.pack_budget_bytes);
      ExpectFrozenRowsIdentical(ComputeLinksPacked(graph, opt), oracle);
    }
  }
}

}  // namespace
}  // namespace rock
