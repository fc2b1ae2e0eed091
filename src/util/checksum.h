// librock — util/checksum.h
//
// CRC-32 (IEEE 802.3 polynomial, the zlib/gzip variant) for on-disk
// integrity: the transaction store, the pipeline checkpoint and the model
// bundle all carry a payload CRC so that torn writes, truncation and
// bit flips are detected as Corruption instead of being read back as data.
// Streaming via Crc32Accumulator keeps the writers single-pass.

#ifndef ROCK_UTIL_CHECKSUM_H_
#define ROCK_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace rock {

/// CRC-32 of `n` bytes, continuing from a previous value (0 for a fresh
/// checksum). Crc32(b, n) == Crc32(b + k, n - k, Crc32(b, k)) for any split.
/// Runs of 64 bytes or more fold 16 bytes per carry-less multiply on CPUs
/// with PCLMULQDQ; the rest goes through slicing-by-8 tables.
uint32_t Crc32(const void* data, size_t n, uint32_t crc = 0);

/// Streaming CRC-32: feed bytes as they are written/read, read value() at
/// the end. Reset() starts a fresh checksum (e.g. after a Rewind).
class Crc32Accumulator {
 public:
  /// Folds `n` more bytes into the checksum.
  void Update(const void* data, size_t n) { crc_ = Crc32(data, n, crc_); }

  /// Checksum of everything fed so far.
  uint32_t value() const { return crc_; }

  /// Restarts from an empty stream.
  void Reset() { crc_ = 0; }

 private:
  uint32_t crc_ = 0;
};

}  // namespace rock

#endif  // ROCK_UTIL_CHECKSUM_H_
