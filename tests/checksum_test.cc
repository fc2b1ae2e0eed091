// Tests for util/checksum.h: the CRC-32 (carry-less fold where the CPU
// has PCLMULQDQ, slicing-by-8 tables otherwise) against a bit-at-a-time
// reference of the same reflected IEEE polynomial, at every length 0..1024
// and every start alignment 0..7 and on long runs, plus the streaming
// split identity.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "test_support.h"
#include "util/checksum.h"

namespace rock {
namespace {

/// Bit-at-a-time CRC-32 (polynomial 0xEDB88320), continuing from `crc`.
uint32_t ReferenceCrc32(const unsigned char* p, size_t n, uint32_t crc) {
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownVector) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  ROCK_SEEDED_RNG(rng, 91);
  std::vector<unsigned char> buf(1024 + 8);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.UniformUint64(256));
  }
  for (size_t align = 0; align < 8; ++align) {
    const unsigned char* p = buf.data() + align;
    for (size_t n = 0; n <= 1024; ++n) {
      ASSERT_EQ(Crc32(p, n), ReferenceCrc32(p, n, 0))
          << "align=" << align << " n=" << n;
      ASSERT_EQ(Crc32(p, n, 0x12345678u), ReferenceCrc32(p, n, 0x12345678u))
          << "align=" << align << " n=" << n;
    }
  }
}

TEST(Crc32Test, SplitIdentityAcrossEveryCut) {
  ROCK_SEEDED_RNG(rng, 92);
  std::vector<unsigned char> buf(300);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.UniformUint64(256));
  }
  const uint32_t whole = Crc32(buf.data(), buf.size());
  for (size_t k = 0; k <= buf.size(); ++k) {
    ASSERT_EQ(Crc32(buf.data() + k, buf.size() - k, Crc32(buf.data(), k)),
              whole)
        << "k=" << k;
    Crc32Accumulator acc;
    acc.Update(buf.data(), k);
    acc.Update(buf.data() + k, buf.size() - k);
    ASSERT_EQ(acc.value(), whole) << "k=" << k;
  }
}

TEST(Crc32Test, LongRunsMatchTheReference) {
  // Block-sized and odd-sized runs: on a CPU with PCLMULQDQ these go
  // through the four-lane carry-less fold, its 16-byte tail fold and the
  // table tail; elsewhere through the tables alone.
  ROCK_SEEDED_RNG(rng, 93);
  std::vector<unsigned char> buf(200003 + 16);
  for (unsigned char& b : buf) {
    b = static_cast<unsigned char>(rng.UniformUint64(256));
  }
  for (size_t n : {size_t{64}, size_t{65}, size_t{79}, size_t{80},
                   size_t{127}, size_t{128}, size_t{4109}, size_t{65536},
                   size_t{200003}}) {
    const size_t align = static_cast<size_t>(rng.UniformUint64(16));
    const auto seed = static_cast<uint32_t>(rng.UniformUint64(1ull << 32));
    const unsigned char* p = buf.data() + align;
    ASSERT_EQ(Crc32(p, n, seed), ReferenceCrc32(p, n, seed))
        << "align=" << align << " n=" << n;
  }
}

}  // namespace
}  // namespace rock
