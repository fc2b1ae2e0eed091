// librock — util/bytes.h
//
// The one on-disk framing shared by every versioned+CRC'd format (pipeline
// checkpoints, model bundles), little-endian:
//
//   [u64 magic][u32 version][u64 payload_size][u32 crc32]
//   payload_size × u8 payload
//
// `crc32` covers the payload bytes. A format is described by a FrameFormat
// (magic, accepted version range, failpoint sites, noun for error text);
// WriteFramedFile and ReadFramedFile do the header, the atomic tmp + rename
// write with its failpoint shapes, and the header/size/CRC checks on load.
// Payloads are built with ByteWriter and parsed with ByteReader, which
// treats every overrun as the same Corruption — a truncated or tampered
// payload — tagged with the caller-supplied `context` so the error names
// which format was being parsed.

#ifndef ROCK_UTIL_BYTES_H_
#define ROCK_UTIL_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace rock {

/// Appends POD fields to an in-memory payload buffer.
struct ByteWriter {
  std::vector<uint8_t> buf;

  void Write(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    buf.insert(buf.end(), p, p + n);
  }
  template <typename T>
  void Pod(const T& v) {
    Write(&v, sizeof(v));
  }
  /// u64 element count, then the elements' bytes.
  template <typename T>
  void PodVector(const std::vector<T>& v) {
    Pod(static_cast<uint64_t>(v.size()));
    if (!v.empty()) Write(v.data(), v.size() * sizeof(T));
  }
};

/// Bounds-checked reader over a payload buffer. Every overrun is the same
/// Corruption — a truncated or tampered payload.
struct ByteReader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;
  const char* context = "payload";  ///< names the format in errors

  Status Read(void* out, size_t n) {
    if (n > size - pos) {
      return Status::Corruption(std::string("truncated ") + context);
    }
    std::memcpy(out, data + pos, n);
    pos += n;
    return Status::OK();
  }
  template <typename T>
  Status Pod(T* out) {
    return Read(out, sizeof(*out));
  }
  /// Reads what ByteWriter::PodVector wrote. A count over `cap` or past
  /// the remaining bytes is Corruption "implausible <what>", checked
  /// before anything is allocated.
  template <typename T>
  Status PodVector(std::vector<T>* out, const char* what,
                   uint64_t cap = UINT64_MAX) {
    uint64_t count = 0;
    ROCK_RETURN_IF_ERROR(Pod(&count));
    if (count > cap || count > Remaining() / sizeof(T)) {
      return Status::Corruption(std::string("implausible ") + what);
    }
    out->resize(static_cast<size_t>(count));
    return count > 0 ? Read(out->data(), out->size() * sizeof(T))
                     : Status::OK();
  }
  /// Remaining bytes — used to sanity-check counts before allocating.
  size_t Remaining() const { return size - pos; }
};

/// One framed on-disk format.
struct FrameFormat {
  uint64_t magic = 0;
  uint32_t min_version = 0;  ///< oldest version ReadFramedFile accepts
  uint32_t version = 0;      ///< version written; newest version accepted
  const char* save_site = "";  ///< failpoint site of WriteFramedFile
  const char* load_site = "";  ///< failpoint site of ReadFramedFile
  const char* noun = "";       ///< names the format in error text
};

/// Bytes of the frame header before the payload.
inline constexpr size_t kFrameHeaderSize =
    sizeof(uint64_t) + sizeof(uint32_t) + sizeof(uint64_t) + sizeof(uint32_t);

/// Frames `payload` under `format.version` and writes it atomically: the
/// bytes go to "<path>.tmp", which is renamed over `path` only once
/// complete. Consults `format.save_site`: `torn_write` leaves half the
/// framed bytes at the *final* path (a filesystem without atomic rename)
/// and returns IOError; `crash` leaves only the complete tmp file (death
/// between write and rename) and returns the injected crash; `error` and
/// `short_read` return IOError having written nothing.
Status WriteFramedFile(const FrameFormat& format, const std::string& path,
                       const std::vector<uint8_t>& payload);

/// A framed file read back whole, with its header verified.
struct FramedFile {
  uint32_t version = 0;
  std::vector<uint8_t> bytes;  ///< the whole file, header included

  /// Reader over the payload; `context` names the format in its errors.
  ByteReader Payload(const char* context) const {
    return {bytes.data() + kFrameHeaderSize, bytes.size() - kFrameHeaderSize,
            0, context};
  }
};

/// Reads `path` and verifies its frame after consulting `format.load_site`.
/// Missing file → IOError; a short header, wrong magic, a version outside
/// [min_version, version], a payload size that disagrees with the file
/// (torn write, trailing bytes) or a checksum mismatch → Corruption.
Result<FramedFile> ReadFramedFile(const FrameFormat& format,
                                  const std::string& path);

}  // namespace rock

#endif  // ROCK_UTIL_BYTES_H_
