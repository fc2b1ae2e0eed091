// Tests for util/thread_pool.h and graph/parallel.h — the parallel
// neighbor computation, and the packed link engine at any thread count,
// must be bit-identical to the serial paths.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "common/random.h"
#include "graph/link_engine.h"
#include "graph/parallel.h"
#include "similarity/similarity_table.h"
#include "util/thread_pool.h"
#include "test_support.h"

namespace rock {
namespace {

// ------------------------------------------------------------ thread pool --

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_EQ(ResolveThreads(4), 4u);
  EXPECT_GE(ResolveThreads(0), 1u);
}

TEST(ThreadPoolTest, ParallelInvokeRunsEveryWorker) {
  std::vector<std::atomic<int>> hits(8);
  ParallelInvoke(8, [&](size_t worker) { hits[worker].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelInvokeSingleThreadRunsInline) {
  std::atomic<int> count{0};
  ParallelInvoke(1, [&](size_t worker) {
    EXPECT_EQ(worker, 0u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelChunksCoversRangeExactlyOnce) {
  const size_t total = 1013;  // prime → ragged last chunk
  std::vector<std::atomic<int>> seen(total);
  ParallelChunks(4, total, 17, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) seen[i].fetch_add(1);
  });
  for (size_t i = 0; i < total; ++i) {
    EXPECT_EQ(seen[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelChunksEmptyAndTiny) {
  int calls = 0;
  ParallelChunks(4, 0, 8, [&](size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<size_t> covered{0};
  ParallelChunks(4, 5, 100, [&](size_t begin, size_t end) {
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 5u);
}

// -------------------------------------------------------- parallel graphs --

SimilarityTable RandomTable(size_t n, double density, uint64_t seed) {
  ROCK_SEEDED_RNG(rng, seed);
  SimilarityTable t(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(density)) {
        EXPECT_TRUE(t.Set(i, j, 0.9).ok());
      }
    }
  }
  return t;
}

class ParallelGraphTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(ParallelGraphTest, NeighborsMatchSerial) {
  const auto [threads, density] = GetParam();
  SimilarityTable t = RandomTable(150, density, 31 + threads);
  auto serial = ComputeNeighbors(t, 0.5);
  ASSERT_TRUE(serial.ok());
  ParallelOptions opt;
  opt.num_threads = threads;
  opt.row_chunk = 7;
  auto parallel = ComputeNeighborsParallel(t, 0.5, opt);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel->size(), serial->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ(parallel->nbrlist[i], serial->nbrlist[i]) << "row " << i;
  }
}

TEST_P(ParallelGraphTest, LinksMatchSerial) {
  const auto [threads, density] = GetParam();
  SimilarityTable t = RandomTable(150, density, 77 + threads);
  auto graph = ComputeNeighbors(t, 0.5);
  ASSERT_TRUE(graph.ok());
  const LinkMatrix serial = ComputeLinks(*graph);
  PackedLinkOptions opt;
  opt.num_threads = threads;
  const LinkMatrix parallel = ComputeLinksPacked(*graph, opt);
  const auto n = static_cast<PointIndex>(graph->size());
  for (PointIndex i = 0; i < n; ++i) {
    for (PointIndex j = static_cast<PointIndex>(i + 1); j < n; ++j) {
      ASSERT_EQ(parallel.Count(i, j), serial.Count(i, j))
          << "pair (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndDensities, ParallelGraphTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{4},
                                         size_t{7}),
                       ::testing::Values(0.02, 0.2, 0.7)));

TEST(ParallelGraphTest, InvalidThetaRejected) {
  SimilarityTable t(3);
  EXPECT_TRUE(
      ComputeNeighborsParallel(t, 1.5).status().IsInvalidArgument());
}

TEST(ParallelGraphTest, EmptyAndSingletonGraphs) {
  for (size_t threads : {1u, 4u, 8u}) {
    PackedLinkOptions opt;
    opt.num_threads = threads;
    NeighborGraph empty;
    EXPECT_EQ(ComputeLinksPacked(empty, opt).size(), 0u);
    NeighborGraph one;
    one.nbrlist.resize(1);
    EXPECT_EQ(ComputeLinksPacked(one, opt).size(), 1u);
  }
}

TEST(ParallelGraphTest, MoreThreadsThanRows) {
  SimilarityTable t = RandomTable(5, 0.8, 3);
  auto graph = ComputeNeighbors(t, 0.5);
  ASSERT_TRUE(graph.ok());
  PackedLinkOptions opt;
  opt.num_threads = 32;
  const LinkMatrix parallel = ComputeLinksPacked(*graph, opt);
  const LinkMatrix serial = ComputeLinks(*graph);
  for (PointIndex i = 0; i < 5; ++i) {
    for (PointIndex j = static_cast<PointIndex>(i + 1); j < 5; ++j) {
      EXPECT_EQ(parallel.Count(i, j), serial.Count(i, j));
    }
  }
}

}  // namespace
}  // namespace rock
