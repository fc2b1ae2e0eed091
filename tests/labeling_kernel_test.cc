// Tests for the bit-sliced §4.6 labeling kernel (core/labeling.h): the
// exact neighbor threshold m(t, q) against a linear scan of the Jaccard
// predicate, Assign against the brute-force AssignUnpruned oracle on shapes
// that stress the layout (clusters crossing word boundaries, more than
// eight counter planes, empty points and probes, alien items, rows past the
// threshold table), the AssignStats counters against a brute-force count,
// Scratch reuse across labelers, and memory that follows the distinct
// labeling items rather than their id values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/labeling.h"
#include "data/transaction.h"
#include "similarity/jaccard.h"
#include "test_support.h"

namespace rock {
namespace {

using Sets = std::vector<std::vector<Transaction>>;

/// Least i <= min(t, q) passing the Jaccard predicate, by linear scan;
/// 0 when none does.
uint64_t LinearThreshold(double theta, uint64_t t, uint64_t q) {
  for (uint64_t i = 1; i <= std::min(t, q); ++i) {
    if (static_cast<double>(i) / static_cast<double>(t + q - i) >= theta) {
      return i;
    }
  }
  return 0;
}

TEST(LabelerKernelTest, ThresholdMatchesLinearScanExhaustively) {
  const double thetas[] = {1e-9,
                           0.2,
                           1.0 / 3.0,
                           0.5,
                           std::nextafter(0.5, 0.0),
                           std::nextafter(0.5, 1.0),
                           0.73,
                           0.8,
                           1.0};
  for (double theta : thetas) {
    for (uint64_t t = 0; t <= 300; ++t) {
      for (uint64_t q = 0; q <= 300; ++q) {
        const uint64_t m = NeighborThreshold(theta, t, q);
        ASSERT_EQ(m, LinearThreshold(theta, t, q))
            << "theta=" << theta << " t=" << t << " q=" << q;
        if (t == 0 && q == 0) continue;  // 0/0: no bound to compare with
        const double lo = static_cast<double>(std::min(t, q));
        const double hi = static_cast<double>(std::max(t, q));
        ASSERT_EQ(m == 0, lo / hi < theta)
            << "theta=" << theta << " t=" << t << " q=" << q;
      }
    }
  }
}

/// Random transaction of `len` distinct-ish items drawn from [lo, lo+span).
Transaction RandomTransaction(Rng& rng, size_t len, ItemId lo, uint64_t span) {
  std::vector<ItemId> items;
  for (size_t k = 0; k < len; ++k) {
    items.push_back(lo + static_cast<ItemId>(rng.UniformUint64(span)));
  }
  return Transaction(std::move(items));
}

/// Labeling sets whose clusters straddle word boundaries (70, 1, 130, 64
/// points), include an empty cluster and empty points, and one cluster of
/// 256..300-item points so the counters need nine planes.
Sets AdversarialSets(uint64_t seed) {
  ROCK_SEEDED_RNG(rng, seed);
  Sets sets(6);
  for (size_t j = 0; j < 70; ++j) {
    sets[0].push_back(RandomTransaction(rng, rng.UniformUint64(10), 0, 40));
  }
  sets[1].push_back(RandomTransaction(rng, 6, 10, 20));
  for (size_t j = 0; j < 130; ++j) {
    if (j % 17 == 0) {
      sets[2].push_back(Transaction{});
      continue;
    }
    const size_t len = 1 + rng.UniformUint64(12);
    sets[2].push_back(RandomTransaction(rng, len, 20, 50));
  }
  // sets[3] stays empty.
  for (size_t j = 0; j < 64; ++j) {
    sets[4].push_back(RandomTransaction(rng, 1 + rng.UniformUint64(6), 0, 90));
  }
  for (size_t j = 0; j < 5; ++j) {
    std::vector<ItemId> items;
    const size_t len = 256 + rng.UniformUint64(45);
    for (size_t k = 0; k < len; ++k) {
      items.push_back(static_cast<ItemId>(100 + k + j));
    }
    sets[5].push_back(Transaction(std::move(items)));
  }
  return sets;
}

/// Probes of every kind the layout must handle: random, empty, alien, big
/// probes against the 300-item cluster, and rows past max |q| / θ.
std::vector<Transaction> AdversarialProbes(uint64_t seed) {
  ROCK_SEEDED_RNG(rng, seed);
  std::vector<Transaction> probes;
  for (size_t i = 0; i < 300; ++i) {
    probes.push_back(RandomTransaction(rng, rng.UniformUint64(14), 0, 110));
  }
  probes.push_back(Transaction{});
  probes.push_back(Transaction({5000000, 5000001, 4000000000u}));
  probes.push_back(Transaction({3, 4000000000u}));
  for (size_t len : {200u, 256u, 280u, 300u, 340u, 700u, 3000u, 20000u}) {
    std::vector<ItemId> items;
    for (size_t k = 0; k < len; ++k) {
      items.push_back(static_cast<ItemId>(100 + k));
    }
    probes.push_back(Transaction(std::move(items)));
  }
  return probes;
}

/// Brute-force §4.6 evidence: per-cluster neighbor counts and the four
/// AssignStats counters as their definitions state them.
struct BruteForce {
  std::vector<uint32_t> neighbors;
  TransactionLabeler::AssignStats stats;
};

BruteForce Count(const TransactionLabeler& labeler, const Transaction& tx) {
  BruteForce out;
  const double theta = labeler.theta();
  for (size_t c = 0; c < labeler.num_clusters(); ++c) {
    uint32_t n = 0;
    bool shares = false;
    for (const Transaction& q : labeler.labeling_set(c)) {
      if (JaccardSimilarity(tx, q) >= theta) ++n;
      if (IntersectionSize(tx, q) == 0) continue;
      shares = true;
      const double lo = static_cast<double>(std::min(tx.size(), q.size()));
      const double hi = static_cast<double>(std::max(tx.size(), q.size()));
      if (lo / hi < theta) {
        ++out.stats.points_skipped_length;
      } else {
        ++out.stats.similarities_computed;
      }
    }
    ++(shares ? out.stats.clusters_scored : out.stats.clusters_pruned);
    out.neighbors.push_back(n);
  }
  return out;
}

void ExpectSameStats(const TransactionLabeler::AssignStats& got,
                     const TransactionLabeler::AssignStats& want) {
  EXPECT_EQ(got.clusters_pruned, want.clusters_pruned);
  EXPECT_EQ(got.clusters_scored, want.clusters_scored);
  EXPECT_EQ(got.points_skipped_length, want.points_skipped_length);
  EXPECT_EQ(got.similarities_computed, want.similarities_computed);
}

TEST(LabelerKernelTest, MatchesUnprunedOnAdversarialShapes) {
  const std::vector<Transaction> probes = AdversarialProbes(52);
  for (double theta : {1e-9, 0.1, 0.3, 0.5, 0.73, 1.0}) {
    auto labeler = TransactionLabeler::FromParts(theta, 1.4,
                                                 AdversarialSets(51));
    ASSERT_TRUE(labeler.ok()) << labeler.status().ToString();
    TransactionLabeler::Scratch scratch;
    for (size_t i = 0; i < probes.size(); ++i) {
      const Transaction& probe = probes[i];
      const BruteForce want = Count(*labeler, probe);
      const auto got = labeler->AssignDetailed(probe, &scratch, nullptr);
      ASSERT_EQ(got.cluster, labeler->AssignUnpruned(probe))
          << "theta=" << theta << " probe=" << i;
      const uint32_t n = got.cluster == kUnassigned
                             ? 0
                             : want.neighbors[static_cast<size_t>(got.cluster)];
      EXPECT_EQ(got.neighbors, n) << "theta=" << theta << " probe=" << i;
      // A fresh internal scratch answers the same.
      EXPECT_EQ(labeler->Assign(probe), got.cluster);
    }
  }
}

TEST(LabelerKernelTest, StatsMatchBruteForceCounter) {
  const std::vector<Transaction> probes = AdversarialProbes(62);
  for (double theta : {1e-9, 0.2, 0.5, 0.8, 1.0}) {
    auto labeler = TransactionLabeler::FromParts(theta, 1.0,
                                                 AdversarialSets(61));
    ASSERT_TRUE(labeler.ok());
    TransactionLabeler::Scratch scratch;
    TransactionLabeler::AssignStats total;
    TransactionLabeler::AssignStats want_total;
    for (const Transaction& probe : probes) {
      TransactionLabeler::AssignStats one;
      labeler->Assign(probe, &scratch, &one);
      const BruteForce want = Count(*labeler, probe);
      ExpectSameStats(one, want.stats);
      total.Merge(one);
      want_total.Merge(want.stats);
    }
    ExpectSameStats(total, want_total);
    // θ = 1e-9 keeps every item-sharing pair; the others must exercise the
    // length bound too.
    if (theta >= 0.2) {
      EXPECT_GT(total.points_skipped_length, 0u) << "theta=" << theta;
    }
    EXPECT_GT(total.clusters_pruned, 0u) << "theta=" << theta;
  }
}

TEST(LabelerKernelTest, TinyThetaFillsThresholdPlanesInScratch) {
  // θ = 1e-6 with a 5,000-item point: 13 counter planes and a neighbor
  // range reaching |T| ≈ 5·10^9, far past what the capped threshold table
  // holds, so long probes fill their planes in Scratch.
  ROCK_SEEDED_RNG(rng, 71);
  Sets sets(3);
  std::vector<ItemId> big;
  for (ItemId k = 0; k < 5000; ++k) big.push_back(k * 3);
  sets[0].push_back(Transaction(std::move(big)));
  for (size_t j = 0; j < 90; ++j) {
    sets[1].push_back(RandomTransaction(rng, 1 + rng.UniformUint64(8), 0, 60));
  }
  for (size_t j = 0; j < 40; ++j) {
    sets[2].push_back(
        RandomTransaction(rng, 1 + rng.UniformUint64(30), 14000, 200));
  }
  auto labeler = TransactionLabeler::FromParts(1e-6, 2.0, std::move(sets));
  ASSERT_TRUE(labeler.ok());
  std::vector<Transaction> probes;
  for (size_t len : {1u, 7u, 4999u, 5000u, 9000u, 12000u, 20000u, 40000u}) {
    std::vector<ItemId> items;
    for (size_t k = 0; k < len; ++k) items.push_back(static_cast<ItemId>(k));
    probes.push_back(Transaction(std::move(items)));
  }
  for (size_t i = 0; i < 50; ++i) {
    probes.push_back(RandomTransaction(rng, rng.UniformUint64(20), 0, 15000));
  }
  TransactionLabeler::Scratch scratch;
  for (size_t i = 0; i < probes.size(); ++i) {
    TransactionLabeler::AssignStats stats;
    EXPECT_EQ(labeler->Assign(probes[i], &scratch, &stats),
              labeler->AssignUnpruned(probes[i]))
        << "probe=" << i;
    ExpectSameStats(stats, Count(*labeler, probes[i]).stats);
  }
}

TEST(LabelerKernelTest, ScratchReusedAcrossLabelerShapes) {
  auto wide = TransactionLabeler::FromParts(0.3, 1.2, AdversarialSets(81));
  Sets small_sets(2);
  small_sets[0] = {Transaction({1, 2, 3}), Transaction({2, 3})};
  small_sets[1] = {Transaction({7, 8}), Transaction({})};
  auto small = TransactionLabeler::FromParts(0.5, 1.0, std::move(small_sets));
  ASSERT_TRUE(wide.ok() && small.ok());
  const std::vector<Transaction> probes = AdversarialProbes(82);
  TransactionLabeler::Scratch shared;
  for (size_t i = 0; i < probes.size(); ++i) {
    for (const TransactionLabeler* labeler : {&*wide, &*small}) {
      TransactionLabeler::Scratch fresh;
      TransactionLabeler::AssignStats shared_stats;
      TransactionLabeler::AssignStats fresh_stats;
      const auto a = labeler->AssignDetailed(probes[i], &shared, &shared_stats);
      const auto b = labeler->AssignDetailed(probes[i], &fresh, &fresh_stats);
      EXPECT_EQ(a.cluster, b.cluster) << "probe=" << i;
      EXPECT_EQ(a.neighbors, b.neighbors) << "probe=" << i;
      EXPECT_EQ(a.score, b.score) << "probe=" << i;
      ExpectSameStats(shared_stats, fresh_stats);
    }
  }
}

TEST(LabelerKernelTest, HugeItemIdsBuildInPostingsMemory) {
  // An id-mode bundle may carry any 32-bit item id; the labeler's memory
  // must follow the two postings, not the id value.
  Sets sets(1);
  sets[0].push_back(Transaction({7, 4000000000u}));
  auto labeler = TransactionLabeler::FromParts(0.5, 1.0, std::move(sets));
  ASSERT_TRUE(labeler.ok()) << labeler.status().ToString();
  EXPECT_EQ(labeler->Assign(Transaction({7, 4000000000u})), 0);
  EXPECT_EQ(labeler->Assign(Transaction({4000000000u})), 0);
  EXPECT_EQ(labeler->Assign(Transaction({7, 8, 9})), kUnassigned);
  EXPECT_EQ(labeler->Assign(Transaction({4000000001u})), kUnassigned);
}

}  // namespace
}  // namespace rock
