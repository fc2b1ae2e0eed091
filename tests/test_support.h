// tests/test_support.h — shared helpers for librock's test suite.
//
// Seed discipline: every randomized test announces its RNG seed so that any
// red run can be reproduced from its log alone. ROCK_TRACE_SEED attaches the
// seed to every gtest failure raised in the current scope (SCOPED_TRACE);
// ROCK_SEEDED_RNG declares a traced rock::Rng in one line. Default-
// constructed RNGs are banned in tests — always pass an explicit seed
// through one of these macros.
//
// Scalar fallback: ScalarOnlySimilarity hides a similarity's batch kernel,
// so the neighbor engine (graph/neighbor_engine.h) runs its per-pair row
// loop on it — the path every similarity with no MakeBatch() takes.
//
// Labeler persistence: the model bundle (core/model_bundle.h) is the one
// persisted form of a §4.6 labeler. LabelerBundle and LoadLabelerBundle
// are the SaveModelBundle → LoadModelBundle → FromParts round trip the
// persistence tests drive.

#ifndef ROCK_TESTS_TEST_SUPPORT_H_
#define ROCK_TESTS_TEST_SUPPORT_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "common/random.h"
#include "common/status.h"
#include "core/labeling.h"
#include "core/model_bundle.h"
#include "similarity/similarity.h"

/// Attaches "RNG seed = N" to every failure message in the current scope.
#define ROCK_TRACE_SEED(seed) \
  SCOPED_TRACE(::testing::Message() << "RNG seed = " << (seed))

/// Declares `rock::Rng var(seed)` and traces the seed on failure.
#define ROCK_SEEDED_RNG(var, seed) \
  ROCK_TRACE_SEED(seed);           \
  ::rock::Rng var(seed)

namespace rock {

/// Forwards Similarity() to `inner` and has no batch kernel (MakeBatch()
/// returns nullptr). `inner` must outlive the wrapper.
class ScalarOnlySimilarity : public PointSimilarity {
 public:
  explicit ScalarOnlySimilarity(const PointSimilarity& inner)
      : inner_(inner) {}
  size_t size() const override { return inner_.size(); }
  double Similarity(size_t i, size_t j) const override {
    return inner_.Similarity(i, j);
  }

 private:
  const PointSimilarity& inner_;
};

/// The bundle holding `labeler`'s θ, f(θ) and labeling sets.
inline ModelBundle LabelerBundle(const TransactionLabeler& labeler) {
  ModelBundle bundle;
  bundle.theta = labeler.theta();
  bundle.f_exponent = labeler.f_exponent();
  for (size_t c = 0; c < labeler.num_clusters(); ++c) {
    bundle.labeling_sets.push_back(labeler.labeling_set(c));
  }
  return bundle;
}

/// Loads the bundle at `path` and reassembles its labeler.
inline Result<TransactionLabeler> LoadLabelerBundle(const std::string& path) {
  Result<ModelBundle> bundle = LoadModelBundle(path);
  if (!bundle.ok()) return bundle.status();
  return TransactionLabeler::FromParts(bundle->theta, bundle->f_exponent,
                                       std::move(bundle->labeling_sets));
}

}  // namespace rock

#endif  // ROCK_TESTS_TEST_SUPPORT_H_
