#include "util/durable.h"

#include <cerrno>
#include <cstdio>
#include <memory>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/log.h"
#include "obs/metrics.h"
#include "util/env.h"

namespace geoloc::util::durable {

namespace {

// "GLDURBL1" little-endian.
constexpr std::uint64_t kFrameMagic = 0x314C425255444C47ULL;

struct FileCloser {
  void operator()(std::FILE* f) const noexcept {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Durability counters. Bumped on the cold I/O paths only — never per
/// payload byte — so the layer stays invisible to the hot paths it guards.
struct DurableMetrics {
  obs::Counter& writes;
  obs::Counter& write_failures;
  obs::Counter& reads_ok;
  obs::Counter& reads_missing;
  obs::Counter& quarantined;
};

DurableMetrics& metrics() {
  static auto& reg = obs::Registry::instance();
  static DurableMetrics m{reg.counter("durable.writes"),
                          reg.counter("durable.write_failures"),
                          reg.counter("durable.reads_ok"),
                          reg.counter("durable.reads_missing"),
                          reg.counter("durable.quarantined")};
  return m;
}

bool fail(std::string* error, std::string message) {
  if (error) *error = std::move(message);
  metrics().write_failures.add();
  return false;
}

/// Parent directory of `path` ("." when the path has no slash), for the
/// post-rename directory fsync that makes the new directory entry durable.
std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

bool fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

// -- XXH64 ------------------------------------------------------------------
// Reference: Collet — xxHash fast digest algorithm (XXH64 variant).

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

constexpr std::uint64_t rotl64(std::uint64_t x, int r) noexcept {
  return (x << r) | (x >> (64 - r));
}

constexpr std::uint64_t xxh_round(std::uint64_t acc,
                                  std::uint64_t input) noexcept {
  acc += input * kPrime2;
  acc = rotl64(acc, 31);
  return acc * kPrime1;
}

constexpr std::uint64_t xxh_merge(std::uint64_t acc,
                                  std::uint64_t val) noexcept {
  acc ^= xxh_round(0, val);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t xxh64(std::span<const std::byte> bytes,
                    std::uint64_t seed) noexcept {
  const std::byte* p = bytes.data();
  const std::byte* const end = p + bytes.size();
  std::uint64_t h;

  if (bytes.size() >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    do {
      v1 = xxh_round(v1, load_u64(p));
      v2 = xxh_round(v2, load_u64(p + 8));
      v3 = xxh_round(v3, load_u64(p + 16));
      v4 = xxh_round(v4, load_u64(p + 24));
      p += 32;
    } while (p + 32 <= end);
    h = rotl64(v1, 1) + rotl64(v2, 7) + rotl64(v3, 12) + rotl64(v4, 18);
    h = xxh_merge(h, v1);
    h = xxh_merge(h, v2);
    h = xxh_merge(h, v3);
    h = xxh_merge(h, v4);
  } else {
    h = seed + kPrime5;
  }

  h += static_cast<std::uint64_t>(bytes.size());
  while (p + 8 <= end) {
    h ^= xxh_round(0, load_u64(p));
    h = rotl64(h, 27) * kPrime1 + kPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<std::uint64_t>(load_u32(p)) * kPrime1;
    h = rotl64(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint8_t>(*p)) * kPrime5;
    h = rotl64(h, 11) * kPrime1;
    ++p;
  }

  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

// -- atomic write primitive -------------------------------------------------

std::string tmp_path_for(const std::string& path) {
  return path + ".tmp." + std::to_string(::getpid());
}

std::string quarantine_path_for(const std::string& path) {
  return path + ".corrupt";
}

bool atomic_write_file(const std::string& path,
                       std::span<const std::byte> bytes, std::string* error) {
  const std::string tmp = tmp_path_for(path);
  {
    FilePtr f{std::fopen(tmp.c_str(), "wb")};
    if (!f) {
      return fail(error, "durable: cannot open staging file: " + tmp);
    }
    if (!bytes.empty() &&
        std::fwrite(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
      f.reset();
      std::remove(tmp.c_str());
      return fail(error, "durable: short write to staging file: " + tmp);
    }
    if (std::fflush(f.get()) != 0 || ::fsync(::fileno(f.get())) != 0) {
      f.reset();
      std::remove(tmp.c_str());
      return fail(error, "durable: flush/fsync failed: " + tmp);
    }
    // fclose after fsync: the data and size are on stable storage before
    // the rename can make the file visible under its final name.
    std::FILE* raw = f.release();
    if (std::fclose(raw) != 0) {
      std::remove(tmp.c_str());
      return fail(error, "durable: close failed: " + tmp);
    }
  }
  return commit_tmp_file(tmp, path, error);
}

bool commit_tmp_file(const std::string& tmp_path, const std::string& path,
                     std::string* error) {
  // Re-fsync via a fresh descriptor: the caller may have streamed into the
  // file through a stack that never fsync'd (std::ofstream has no such
  // call). Redundant after atomic_write_file's own fsync, but cheap.
  const int fd = ::open(tmp_path.c_str(), O_RDONLY);
  if (fd < 0) {
    return fail(error, "durable: staging file vanished: " + tmp_path);
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) {
    std::remove(tmp_path.c_str());
    return fail(error, "durable: fsync failed: " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return fail(error, "durable: rename failed: " + tmp_path + " -> " + path);
  }
  // Make the directory entry itself durable; failure here is not data
  // loss (the rename happened), so it degrades to a warning.
  if (!fsync_dir(parent_dir(path))) {
    obs::warn_once(("durable-dirsync:" + parent_dir(path)).c_str(),
                   "durable: directory fsync failed for " + parent_dir(path));
  }
  metrics().writes.add();
  return true;
}

bool quarantine(const std::string& path) {
  const std::string dest = quarantine_path_for(path);
  std::remove(dest.c_str());
  const bool renamed = std::rename(path.c_str(), dest.c_str()) == 0;
  if (!renamed) std::remove(path.c_str());
  metrics().quarantined.add();
  obs::warn_once(("durable-quarantine:" + path).c_str(),
                 "durable: corrupt artifact quarantined: " + path + " -> " +
                     (renamed ? dest : std::string("(removed)")));
  return renamed;
}

// -- framed files -----------------------------------------------------------

void seal_frame(std::span<std::byte> frame, std::uint64_t magic,
                std::uint32_t version) noexcept {
  std::byte* h = frame.data();
  const std::size_t payload_len = frame.size() - kFrameOverheadBytes;
  store_u64(h + 0, kFrameMagic);
  store_u64(h + 8, magic);
  store_u32(h + 16, version);
  store_u32(h + 20, 0);
  store_u64(h + 24, payload_len);
  store_u64(h + 32, xxh64(std::span<const std::byte>(h, 32)));
  store_u64(h + kFrameHeaderBytes + payload_len,
            xxh64(std::span<const std::byte>(h + kFrameHeaderBytes,
                                             payload_len)));
}

FramedView open_frame(std::span<const std::byte> frame, std::uint64_t magic) {
  FramedView v;
  const auto corrupt = [&](std::string why) -> FramedView& {
    v.status = ReadStatus::Corrupt;
    v.error = std::move(why);
    return v;
  };
  if (frame.size() < kFrameOverheadBytes) {
    return corrupt("truncated frame (" + std::to_string(frame.size()) +
                   " bytes)");
  }
  const std::byte* h = frame.data();
  if (load_u64(h + 0) != kFrameMagic) return corrupt("bad frame magic");
  if (load_u64(h + 32) != xxh64(std::span<const std::byte>(h, 32))) {
    return corrupt("header checksum mismatch");
  }
  if (load_u64(h + 8) != magic) return corrupt("foreign artifact magic");
  const std::uint64_t payload_len = load_u64(h + 24);
  if (payload_len != frame.size() - kFrameOverheadBytes) {
    return corrupt("payload length " + std::to_string(payload_len) +
                   " does not match frame size " +
                   std::to_string(frame.size()));
  }
  const std::span<const std::byte> payload(h + kFrameHeaderBytes, payload_len);
  const std::uint64_t checksum = load_u64(h + kFrameHeaderBytes + payload_len);
  if (checksum != xxh64(payload)) return corrupt("payload checksum mismatch");

  v.status = ReadStatus::Ok;
  v.version = load_u32(h + 16);
  v.payload = payload;
  v.checksum = checksum;
  return v;
}

bool write_framed(const std::string& path, std::uint64_t magic,
                  std::uint32_t version, std::span<const std::byte> payload,
                  std::string* error) {
  std::vector<std::byte> out(kFrameOverheadBytes + payload.size());
  if (!payload.empty()) {
    std::memcpy(out.data() + kFrameHeaderBytes, payload.data(),
                payload.size());
  }
  seal_frame(out, magic, version);
  return atomic_write_file(path, out, error);
}

namespace {

/// Read the whole of `path` into `bytes`. NotFound and IoError come back
/// with `error` set.
ReadStatus read_file(const std::string& path, std::vector<std::byte>& bytes,
                     std::string& error) {
  FilePtr f{std::fopen(path.c_str(), "rb")};
  if (!f) {
    error = "durable: cannot open: " + path;
    if (errno != ENOENT) return ReadStatus::IoError;
    metrics().reads_missing.add();
    return ReadStatus::NotFound;
  }
  std::byte buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f.get())) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  if (std::ferror(f.get()) != 0) {
    error = "durable: read error: " + path;
    return ReadStatus::IoError;
  }
  return ReadStatus::Ok;
}

/// Validate `frame` as read from `path`: Ok views come back as-is (the
/// caller sets the keepalive); Corrupt ones get the path in their reason
/// and, when asked, the file quarantined.
FramedView open_file_frame(const std::string& path,
                           std::span<const std::byte> frame,
                           std::uint64_t magic, bool quarantine_corrupt) {
  FramedView v = open_frame(frame, magic);
  if (v.ok()) {
    metrics().reads_ok.add();
  } else {
    v.error = "durable: " + path + ": " + v.error;
    if (quarantine_corrupt) quarantine(path);
  }
  return v;
}

/// munmap-on-destruction owner of a whole-file read-only mapping.
struct MmapKeepalive {
  void* base = nullptr;
  std::size_t length = 0;
  ~MmapKeepalive() {
    if (base != nullptr && base != MAP_FAILED) ::munmap(base, length);
  }
  MmapKeepalive() = default;
  MmapKeepalive(const MmapKeepalive&) = delete;
  MmapKeepalive& operator=(const MmapKeepalive&) = delete;
};

/// The buffered path: read the whole file onto the heap and validate it in
/// place; the buffer becomes the view's keepalive.
FramedView read_framed_buffered(const std::string& path, std::uint64_t magic,
                                bool quarantine_corrupt) {
  auto bytes = std::make_shared<std::vector<std::byte>>();
  FramedView v;
  v.status = read_file(path, *bytes, v.error);
  if (v.status != ReadStatus::Ok) return v;
  v = open_file_frame(path, *bytes, magic, quarantine_corrupt);
  if (v.ok()) v.keepalive = std::move(bytes);
  return v;
}

}  // namespace

FramedRead read_framed(const std::string& path, std::uint64_t magic,
                       bool quarantine_corrupt) {
  FramedView v = read_framed_buffered(path, magic, quarantine_corrupt);
  FramedRead r;
  r.status = v.status;
  r.version = v.version;
  r.error = std::move(v.error);
  if (v.ok()) r.payload.assign(v.payload.begin(), v.payload.end());
  return r;
}

FramedView read_framed_mapped(const std::string& path, std::uint64_t magic,
                              bool quarantine_corrupt) {
  if (env::flag("GEOLOC_DURABLE_NO_MMAP")) {
    return read_framed_buffered(path, magic, quarantine_corrupt);
  }

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return read_framed_buffered(path, magic, quarantine_corrupt);
  struct ::stat st {};
  if (::fstat(fd, &st) != 0 ||
      st.st_size < static_cast<::off_t>(kFrameOverheadBytes)) {
    // Too short to be a frame (or unstattable): the buffered path reports
    // it without mapping a near-empty file.
    ::close(fd);
    return read_framed_buffered(path, magic, quarantine_corrupt);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference to the file
  if (base == MAP_FAILED) {
    return read_framed_buffered(path, magic, quarantine_corrupt);
  }
  auto keep = std::make_shared<MmapKeepalive>();
  keep->base = base;
  keep->length = size;

  FramedView v = open_file_frame(
      path, std::span<const std::byte>(static_cast<const std::byte*>(base),
                                       size),
      magic, quarantine_corrupt);
  if (v.ok()) v.keepalive = std::move(keep);
  return v;
}

}  // namespace geoloc::util::durable
