#include "util/checksum.h"

#include <array>

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

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t crc) {
  const CrcTables& t = Tables();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  // Eight bytes per step: the low four are XORed into the running CRC and
  // all eight are looked up in parallel (the byte order of the load is
  // fixed to little-endian, so the result is host-independent).
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
  return c ^ 0xFFFFFFFFu;
}

}  // namespace rock
