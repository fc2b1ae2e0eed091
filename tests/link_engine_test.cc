// tests/link_engine_test.cc — oracle-grade differential harness for the
// bit-plane link engine (graph/link_engine.h).
//
// ComputeLinksPacked must produce byte-identical CSR rows vs three
// independent oracles — the Fig. 4 hashed scatter (ComputeLinks), the
// brute-force sorted-intersection path, and the Strassen A² squaring —
// across a θ × seed × thread-count × graph-shape grid, including the
// degenerate shapes (empty graph, star, clique, isolated points, θ ∈
// {0, 1}). The packing-budget boundary is pinned byte by byte: exactly-fits
// runs the plane, one byte short runs the scatter pass (links.scatter_pass)
// with identical results either way.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
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

/// The acceptance bar: every CSR row equal element for element — same
/// offsets (row sizes), same partner bytes, same count bytes.
void ExpectRowsIdentical(const LinkMatrix& got, const LinkMatrix& want) {
  ASSERT_EQ(got.size(), want.size());
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
  ExpectRowsIdentical(packed, ComputeLinks(graph));

  const LinkMatrix brute = ComputeLinksBruteForce(graph);
  const LinkMatrix strassen = ComputeLinksStrassen(graph);
  ASSERT_EQ(brute.size(), packed.size());
  ASSERT_EQ(strassen.size(), packed.size());
  for (size_t i = 0; i < packed.size(); ++i) {
    const LinkRowSpan row = packed.FlatRow(static_cast<PointIndex>(i));
    ASSERT_EQ(row.size, brute.FlatRow(static_cast<PointIndex>(i)).size)
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
  ExpectMatchesAllOracles(graph, packed);

  const diag::RunMetrics m = registry.Snapshot();
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
    ExpectRowsIdentical(ComputeLinksPacked(graph, opt), golden);
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
    ExpectMatchesAllOracles(graph, packed);

    const diag::RunMetrics m = registry.Snapshot();
    EXPECT_EQ(m.CounterOr("links.scatter_pass"), scatter ? 1u : 0u);
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
// entirely: a zero budget, which rules the plane out, leaves a forced
// scatter untouched.
TEST(LinkEngineStrategyTest, ScatterIgnoresPackBudget) {
  const uint64_t seed = 42;
  ROCK_TRACE_SEED(seed);
  const NeighborGraph graph = RandomGraph(seed, 0.5);

  diag::MetricsRegistry registry;
  PackedLinkOptions opt;
  opt.strategy = PackedLinkStrategy::kScatter;
  opt.pack_budget_bytes = 0;
  opt.metrics = &registry;
  ExpectRowsIdentical(ComputeLinksPacked(graph, opt), ComputeLinks(graph));
  EXPECT_EQ(registry.Snapshot().CounterOr("links.scatter_pass"), 1u);
}

// Within the budget, kAuto's pass choice is a pure function of the graph
// (never the thread count), pinned here on the two extremes: a sparse
// chain (tiny neighborhoods → scatter) and a dense clique-like graph
// (plane).
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
  ExpectRowsIdentical(ComputeLinksPacked(graph, opt), ComputeLinks(graph));
  // Each component holds 128 points: 2–3 words once contiguous, against all
  // 10 words in id order.
  const uint64_t span_words = registry.Snapshot().CounterOr("links.span_words");
  EXPECT_EQ(OriginalSpanWords(graph), 640u * 10u);
  EXPECT_LE(span_words, 640u * 3u);
}

// ------------------------------------------------------------------ budget --

/// Names of the links.* counters a run recorded, sorted.
std::vector<std::string> LinkCounterNames(const diag::RunMetrics& m) {
  std::vector<std::string> names;
  for (const auto& [name, value] : m.counters) {
    if (name.rfind("links.", 0) == 0) names.push_back(name);
  }
  return names;
}

// The plane runs only when it fits: at exactly its size it packs, and one
// byte short (or at a zero budget) both a kAuto-chosen and a pinned plane
// run the scatter pass instead, with byte-identical rows. The run records
// exactly the counters of the pass it ran and no others.
TEST(LinkEngineBudgetTest, BudgetBoundaryPacksExactlyAndFallsBackOneByteShort) {
  const uint64_t seed = 42;
  ROCK_TRACE_SEED(seed);
  const NeighborGraph graph = RandomGraph(seed, 0.5);
  const size_t exact = PlaneBytes(graph.size());
  ASSERT_GT(exact, 0u);
  const LinkMatrix oracle = ComputeLinks(graph);

  const std::vector<std::string> plane_counters = {
      "links.candidate_pairs", "links.pairs_counted", "links.span_words"};
  const std::vector<std::string> scatter_counters = {
      "links.candidate_pairs", "links.pairs_counted", "links.scatter_pass"};
  const std::tuple<const char*, size_t, bool> cases[] = {
      {"exactly fits (plane)", exact, false},
      {"one byte short (scatter)", exact - 1, true},
      {"zero budget (scatter)", 0, true},
      {"default budget (plane)", PackedLinkOptions{}.pack_budget_bytes, false},
  };
  for (const PackedLinkStrategy strategy :
       {PackedLinkStrategy::kAuto, PackedLinkStrategy::kPlane}) {
    SCOPED_TRACE(strategy == PackedLinkStrategy::kAuto ? "auto" : "plane");
    for (const auto& [label, budget, want_scatter] : cases) {
      SCOPED_TRACE(label);
      for (size_t threads : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << "threads = " << threads);
        diag::MetricsRegistry registry;
        PackedLinkOptions opt;
        opt.num_threads = threads;
        opt.strategy = strategy;
        opt.pack_budget_bytes = budget;
        opt.metrics = &registry;
        const LinkMatrix links = ComputeLinksPacked(graph, opt);
        ExpectRowsIdentical(links, oracle);

        const diag::RunMetrics m = registry.Snapshot();
        EXPECT_EQ(m.CounterOr("links.scatter_pass"), want_scatter ? 1u : 0u);
        EXPECT_EQ(LinkCounterNames(m),
                  want_scatter ? scatter_counters : plane_counters);
        EXPECT_EQ(m.CounterOr("links.pairs_counted"), links.NumNonZeroPairs());
        EXPECT_EQ(m.FindTimer("stage.links.pack") == nullptr, want_scatter)
            << "only the plane charges a pack timer";
      }
    }
  }
}

// The n < 2 early-outs return an empty matrix of the right size.
TEST(LinkEngineBudgetTest, TinyGraphsEveryBudget) {
  for (size_t n : {0u, 1u}) {
    NeighborGraph g;
    g.nbrlist.resize(n);
    for (size_t budget : {size_t{0}, size_t{1} << 20}) {
      PackedLinkOptions opt;
      opt.pack_budget_bytes = budget;
      const LinkMatrix links = ComputeLinksPacked(g, opt);
      EXPECT_EQ(links.size(), n);
      EXPECT_EQ(links.NumNonZeroPairs(), 0u);
      EXPECT_EQ(links.TotalLinks(), 0u);
    }
  }
}

// ------------------------------------------------------------- read API --

// Count and FlatRow on a packed matrix answer exactly like the Fig. 4
// reference: the same rows, and the same count for every pair.
TEST(LinkEngineLazyRowsTest, HashApiOnPackedMatrixMatchesOracle) {
  const uint64_t seed = 7;
  ROCK_TRACE_SEED(seed);
  const NeighborGraph graph = RandomGraph(seed, 0.5);
  const LinkMatrix packed = ComputeLinksPacked(graph);
  const LinkMatrix oracle = ComputeLinks(graph);
  ExpectRowsIdentical(packed, oracle);
  const auto n = static_cast<PointIndex>(graph.size());
  for (PointIndex p = 0; p < n; ++p) {
    for (PointIndex q = 0; q < n; ++q) {
      ASSERT_EQ(packed.Count(p, q), oracle.Count(p, q))
          << "(" << p << ", " << q << ")";
    }
  }
}

TEST(LinkEngineLazyRowsTest, StarRowsOnPackedMatrixMatchOracle) {
  const NeighborGraph graph = StarGraph(20);
  const LinkMatrix packed = ComputeLinksPacked(graph);
  ExpectRowsIdentical(packed, ComputeLinks(graph));
  const LinkRowSpan leaf = packed.FlatRow(1);
  ASSERT_EQ(leaf.size, 18u);  // 18 other leaves share the hub
  for (size_t e = 0; e < leaf.size; ++e) {
    EXPECT_EQ(leaf.partners[e], e + 2);
    EXPECT_EQ(leaf.counts[e], 1u);
    EXPECT_EQ(packed.Count(1, leaf.partners[e]), 1u);
  }
  EXPECT_EQ(packed.FlatRow(0).size, 0u);  // the hub shares nobody
  EXPECT_EQ(packed.Count(0, 1), 0u);
}

// --------------------------------------------------------------- seeding --

NeighborGraph ChainGraph(size_t n) {
  // Path 0 − 1 − … − (n−1): link(i, i+2) = 1 and nothing else.
  NeighborGraph g;
  g.nbrlist.resize(n);
  for (size_t i = 0; i + 1 < n; ++i) {
    g.nbrlist[i].push_back(static_cast<PointIndex>(i + 1));
    g.nbrlist[i + 1].push_back(static_cast<PointIndex>(i));
  }
  return g;
}

/// What the production merge seeds: CountUpperLinks, then the mirror into
/// per-point rows that drop the pruned points' rows and partners. Checks
/// the mirror's contract on the way — one layout call whose sizes are the
/// full row sizes, and every put of a row in strictly ascending partner
/// order.
std::vector<std::vector<std::pair<PointIndex, LinkCount>>> SeedRows(
    const NeighborGraph& graph, const PackedLinkOptions& opt,
    const std::vector<uint8_t>& pruned, diag::MetricsRegistry* registry) {
  PackedLinkOptions o = opt;
  o.metrics = registry;
  const UpperLinks upper = CountUpperLinks(graph, o);
  std::vector<std::vector<std::pair<PointIndex, LinkCount>>> rows(
      graph.size());
  std::vector<uint32_t> layout_sizes;
  std::vector<int64_t> last(graph.size(), -1);
  std::vector<uint32_t> puts(graph.size(), 0);
  size_t layouts = 0;
  MirrorUpperLinks(
      upper, opt.num_threads,
      [&](const std::vector<uint32_t>& sizes) {
        ++layouts;
        layout_sizes = sizes;
      },
      [&](size_t p, PointIndex q, LinkCount count) {
        EXPECT_LT(last[p], static_cast<int64_t>(q)) << "row " << p;
        last[p] = q;
        ++puts[p];
        if (pruned[p] != 0 || pruned[q] != 0) return;
        rows[p].emplace_back(q, count);
      });
  EXPECT_EQ(layouts, 1u);
  EXPECT_EQ(layout_sizes, puts);
  return rows;
}

// The seeded rows against the Fig. 4 reference: for every unpruned point,
// its reference FlatRow without pruned partners, byte for byte; nothing
// for a pruned point. Graph shapes × min_neighbors pruning × threads ×
// row_chunk × both counting passes. The links.* and decision.links.*
// metrics must not move with the thread count or the chunk size.
TEST(LinkEngineMirrorTest, SeededRowsMatchReferenceFlatRows) {
  struct Shape {
    const char* name;
    NeighborGraph graph;
    size_t min_neighbors;
  };
  NeighborGraph star_iso = StarGraph(30);
  star_iso.nbrlist.resize(36);  // isolated points, pruned at min_neighbors 1
  Shape shapes[] = {
      {"empty_graph", NeighborGraph{}, 1},
      {"single_point", [] {
         NeighborGraph g;
         g.nbrlist.resize(1);
         return g;
       }(), 1},
      {"star", StarGraph(70), 1},
      {"star_prune_leaves", StarGraph(40), 2},
      {"clique", CliqueGraph(65), 1},
      {"chain", ChainGraph(90), 2},
      {"star_plus_isolated", std::move(star_iso), 1},
      {"random", RandomGraph(17, 0.4), 3},
  };
  for (Shape& s : shapes) {
    SCOPED_TRACE(s.name);
    const NeighborGraph& graph = s.graph;
    std::vector<uint8_t> pruned(graph.size(), 0);
    for (size_t p = 0; p < graph.size(); ++p) {
      pruned[p] = graph.Degree(p) < s.min_neighbors ? 1 : 0;
    }
    const LinkMatrix reference = ComputeLinks(graph);
    std::vector<std::vector<std::pair<PointIndex, LinkCount>>> want(
        graph.size());
    for (size_t p = 0; p < graph.size(); ++p) {
      if (pruned[p] != 0) continue;
      const LinkRowSpan row = reference.FlatRow(static_cast<PointIndex>(p));
      for (size_t e = 0; e < row.size; ++e) {
        if (pruned[row.partners[e]] == 0) {
          want[p].emplace_back(row.partners[e], row.counts[e]);
        }
      }
    }
    for (const PackedLinkStrategy strategy :
         {PackedLinkStrategy::kPlane, PackedLinkStrategy::kScatter}) {
      std::optional<diag::RunMetrics> first;
      for (const size_t threads : {1u, 2u, 4u, 8u}) {
        for (const size_t chunk : {1u, 16u}) {
          SCOPED_TRACE(::testing::Message()
                       << "scatter=" << (strategy == PackedLinkStrategy::kScatter)
                       << " threads=" << threads << " row_chunk=" << chunk);
          PackedLinkOptions opt;
          opt.num_threads = threads;
          opt.row_chunk = chunk;
          opt.strategy = strategy;
          diag::MetricsRegistry registry;
          EXPECT_EQ(SeedRows(graph, opt, pruned, &registry), want);
          const diag::RunMetrics m = registry.Snapshot();
          EXPECT_EQ(m.CounterOr("links.pairs_counted"),
                    reference.NumNonZeroPairs());
          if (!first.has_value()) {
            first = m;
            continue;
          }
          for (const char* name :
               {"links.pairs_counted", "links.candidate_pairs",
                "links.span_words", "links.scatter_pass",
                "decision.links.scatter_ops",
                "decision.links.plane_word_reads"}) {
            EXPECT_EQ(m.CounterOr(name), first->CounterOr(name)) << name;
          }
          EXPECT_EQ(m.gauges.count("decision.links.pass"),
                    first->gauges.count("decision.links.pass"));
          if (m.gauges.count("decision.links.pass") != 0) {
            EXPECT_EQ(m.gauges.at("decision.links.pass"),
                      first->gauges.at("decision.links.pass"));
          }
        }
      }
    }
  }
}

// The upper buffer itself: each non-zero pair once, in ascending partner
// order per row, with the reference's pair and link totals.
TEST(LinkEngineMirrorTest, UpperBufferHoldsEachPairOnce) {
  const NeighborGraph graph = RandomGraph(23, 0.35);
  const LinkMatrix reference = ComputeLinks(graph);
  for (const PackedLinkStrategy strategy :
       {PackedLinkStrategy::kPlane, PackedLinkStrategy::kScatter}) {
    PackedLinkOptions opt;
    opt.num_threads = 4;
    opt.row_chunk = 3;
    opt.strategy = strategy;
    const UpperLinks upper = CountUpperLinks(graph, opt);
    EXPECT_EQ(upper.pairs, reference.NumNonZeroPairs());
    EXPECT_EQ(upper.total, reference.TotalLinks());
    for (size_t p = 0; p < graph.size(); ++p) {
      const LinkRowSpan row = reference.FlatRow(static_cast<PointIndex>(p));
      const PointIndex* first_upper =
          std::upper_bound(row.partners, row.partners + row.size,
                           static_cast<PointIndex>(p));
      const size_t skip = static_cast<size_t>(first_upper - row.partners);
      const auto got = upper.Row(p);
      ASSERT_EQ(got.size(), row.size - skip) << "row " << p;
      for (size_t e = 0; e < got.size(); ++e) {
        EXPECT_EQ(got[e].partner, row.partners[skip + e]) << "row " << p;
        EXPECT_EQ(got[e].count, row.counts[skip + e]) << "row " << p;
      }
    }
    EXPECT_GE(upper.Bytes(), upper.pairs * sizeof(UpperLink));
  }
}

// ------------------------------------------------------------------- fuzz --

// Random graphs through the real θ-threshold construction; every round
// checks packed-vs-hashed byte equality at 1/4/8 threads and a random
// packing budget (sometimes ruling the plane out mid-grid).
TEST(LinkEngineFuzzTest, RandomGraphsAllEnginesAgree) {
  const uint64_t base_seed = 0xE5151;
  for (uint64_t round = 0; round < 6; ++round) {
    ROCK_SEEDED_RNG(rng, base_seed + round);
    const double theta = 0.2 + 0.15 * static_cast<double>(round % 4);
    const NeighborGraph graph = RandomGraph(base_seed + round, theta);
    const LinkMatrix oracle = ComputeLinks(graph);
    const size_t exact = PlaneBytes(graph.size());
    for (size_t threads : {1u, 4u, 8u}) {
      PackedLinkOptions opt;
      opt.num_threads = threads;
      opt.row_chunk = 1 + static_cast<size_t>(rng.UniformInt(0, 6));
      // Half the rounds land under the plane size and take the scatter.
      opt.pack_budget_bytes =
          static_cast<size_t>(rng.UniformInt(0, 1)) == 0 ? exact / 2 : exact;
      SCOPED_TRACE(::testing::Message()
                   << "theta=" << theta << " threads=" << threads
                   << " budget=" << opt.pack_budget_bytes);
      ExpectRowsIdentical(ComputeLinksPacked(graph, opt), oracle);
    }
  }
}

}  // namespace
}  // namespace rock
