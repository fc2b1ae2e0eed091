// librock — similarity/minhash.h
//
// What is left of the retired MinHash LSH neighbor pass. The neighbor
// engine (graph/neighbor_engine.h) is exact, and nothing in the library
// reads these names. They stay so that callers which still spell out the
// old options — the end-to-end benchmark sets PackedNeighborOptions::lsh
// from TuneLshOptions — compile unchanged.

#ifndef ROCK_SIMILARITY_MINHASH_H_
#define ROCK_SIMILARITY_MINHASH_H_

#include <cstdint>

namespace rock {

/// Banding options of the retired LSH pass; carries nothing.
struct LshOptions {};

/// Returns an empty LshOptions; both arguments are ignored.
inline LshOptions TuneLshOptions(double /*theta*/, uint64_t /*seed*/) {
  return {};
}

}  // namespace rock

#endif  // ROCK_SIMILARITY_MINHASH_H_
