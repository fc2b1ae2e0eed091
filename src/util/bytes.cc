#include "util/bytes.h"

#include <cstdio>
#include <memory>

#include "util/checksum.h"
#include "util/failpoint.h"

namespace rock {

namespace {

/// Writes `n` bytes to `path`, failing on short writes or flush errors.
Status WriteFileBytes(const std::string& path, const uint8_t* data, size_t n) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "wb"), &std::fclose);
  if (file == nullptr) {
    return Status::IOError("cannot create '" + path + "'");
  }
  if (n > 0 && std::fwrite(data, 1, n, file.get()) != n) {
    return Status::IOError("short write to '" + path + "'");
  }
  if (std::fflush(file.get()) != 0) {
    return Status::IOError("flush failure on '" + path + "'");
  }
  return Status::OK();
}

/// Reads the whole of `path` into memory. Missing file → IOError.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (file == nullptr) {
    return Status::IOError("cannot open '" + path + "'");
  }
  std::FILE* f = file.get();
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return Status::IOError("seek failure on '" + path + "'");
  }
  const long end = std::ftell(f);
  if (end < 0) {
    return Status::IOError("tell failure on '" + path + "'");
  }
  if (std::fseek(f, 0, SEEK_SET) != 0) {
    return Status::IOError("seek failure on '" + path + "'");
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(end));
  if (!bytes.empty() &&
      std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    return Status::IOError("read failure on '" + path + "'");
  }
  return bytes;
}

}  // namespace

Status WriteFramedFile(const FrameFormat& format, const std::string& path,
                       const std::vector<uint8_t>& payload) {
  ByteWriter file;
  file.buf.reserve(kFrameHeaderSize + payload.size());
  file.Pod(format.magic);
  file.Pod(format.version);
  file.Pod(static_cast<uint64_t>(payload.size()));
  file.Pod(Crc32(payload.data(), payload.size()));
  file.Write(payload.data(), payload.size());

  const std::string tmp = path + ".tmp";
  switch (fail::Consult(format.save_site)) {
    case fail::Action::kNone:
      break;
    case fail::Action::kTornWrite:
      ROCK_RETURN_IF_ERROR(
          WriteFileBytes(path, file.buf.data(), file.buf.size() / 2));
      return fail::InjectedError(format.save_site);
    case fail::Action::kCrash:
      ROCK_RETURN_IF_ERROR(
          WriteFileBytes(tmp, file.buf.data(), file.buf.size()));
      return fail::InjectedCrash(format.save_site);
    case fail::Action::kError:
    case fail::Action::kShortRead:
      return fail::InjectedError(format.save_site);
  }

  ROCK_RETURN_IF_ERROR(WriteFileBytes(tmp, file.buf.data(), file.buf.size()));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename '" + tmp + "' over '" + path + "'");
  }
  return Status::OK();
}

Result<FramedFile> ReadFramedFile(const FrameFormat& format,
                                  const std::string& path) {
  ROCK_RETURN_IF_ERROR(fail::ConsultRead(format.load_site));
  Result<std::vector<uint8_t>> bytes_or = ReadFileBytes(path);
  if (!bytes_or.ok()) return bytes_or.status();
  FramedFile out;
  out.bytes = std::move(bytes_or).value();
  const std::string named = std::string(format.noun) + " '" + path + "'";

  if (out.bytes.size() < kFrameHeaderSize) {
    return Status::Corruption(named + " is truncated");
  }
  ByteReader header{out.bytes.data(), kFrameHeaderSize, 0, format.noun};
  uint64_t magic = 0;
  uint64_t payload_size = 0;
  uint32_t expected_crc = 0;
  ROCK_RETURN_IF_ERROR(header.Pod(&magic));
  if (magic != format.magic) {
    return Status::Corruption("'" + path + "' is not a " + format.noun);
  }
  ROCK_RETURN_IF_ERROR(header.Pod(&out.version));
  if (out.version < format.min_version || out.version > format.version) {
    return Status::Corruption("unsupported " + std::string(format.noun) +
                              " version " + std::to_string(out.version));
  }
  ROCK_RETURN_IF_ERROR(header.Pod(&payload_size));
  ROCK_RETURN_IF_ERROR(header.Pod(&expected_crc));
  if (payload_size != out.bytes.size() - kFrameHeaderSize) {
    return Status::Corruption(named + " payload size mismatch (torn write)");
  }
  if (Crc32(out.bytes.data() + kFrameHeaderSize,
            static_cast<size_t>(payload_size)) != expected_crc) {
    return Status::Corruption(named +
                              " checksum mismatch (bit rot or torn write)");
  }
  return out;
}

}  // namespace rock
