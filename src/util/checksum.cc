#include "util/checksum.h"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#define ROCK_CRC_X86 1
#include <immintrin.h>
#else
#define ROCK_CRC_X86 0
#endif

namespace rock {

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320, built
/// once at load time. Row 0 is the classic byte-at-a-time table; row k
/// advances a byte's contribution by k further zero bytes, so eight bytes
/// fold into the CRC with eight independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

const CrcTables& Tables() {
  static const CrcTables tables = BuildCrcTables();
  return tables;
}

/// Folds `n` bytes into the raw (pre-inverted) CRC state `c`, eight bytes
/// per step: the low four are XORed into the running CRC and all eight are
/// looked up in parallel (the byte order of the load is fixed to
/// little-endian, so the result is host-independent).
uint32_t UpdateTables(uint32_t c, const unsigned char* p, size_t n) {
  const CrcTables& t = Tables();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = c ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                             uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
        t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if ROCK_CRC_X86
// Carry-less multiplication folding (Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), with
// the constants for the reflected polynomial 0xEDB88320: four 128-bit
// lanes fold 64 bytes per step, then fold into one lane, reduce 128 → 64
// → 32 bits and finish with a Barrett reduction. tests/checksum_test.cc
// pins it to a bit-at-a-time reference at every length and alignment.

__attribute__((target("pclmul,sse4.1"))) inline __m128i FoldLane(
    __m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Folds `n` bytes (n >= 64, a multiple of 16) into the raw state `c`.
__attribute__((target("pclmul,sse4.1"))) uint32_t UpdatePclmul(
    uint32_t c, const unsigned char* p, size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);  // 64 B
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);  // 16 B
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);              // 64→32
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);  // µ', P'
  const __m128i low32 = _mm_setr_epi32(-1, 0, 0, 0);
  auto load = [](const unsigned char* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x1 = FoldLane(x1, k1k2, load(p));
    x2 = FoldLane(x2, k1k2, load(p + 16));
    x3 = FoldLane(x3, k1k2, load(p + 32));
    x4 = FoldLane(x4, k1k2, load(p + 48));
  }
  x1 = FoldLane(FoldLane(FoldLane(x1, k3k4, x2), k3k4, x3), k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = FoldLane(x1, k3k4, load(p));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(k3k4, x1, 0x01));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, q), 1));
}
#endif  // ROCK_CRC_X86

using BulkFn = uint32_t (*)(uint32_t, const unsigned char*, size_t);

/// The carry-less-multiply kernel when the CPU has one, else nullptr (so a
/// Crc32 call that runs before this initializer uses the tables).
BulkFn ResolveBulk() {
#if ROCK_CRC_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return &UpdatePclmul;
  }
#endif
  return nullptr;
}

const BulkFn g_bulk = ResolveBulk();

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t crc) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  if (g_bulk != nullptr && n >= 64) {
    const size_t bulk = n & ~size_t{15};
    c = g_bulk(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
  return UpdateTables(c, p, n) ^ 0xFFFFFFFFu;
}

}  // namespace rock
