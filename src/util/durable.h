// Crash-safe artifact I/O for every on-disk file the system re-reads.
//
// The paper's deliverable is a *reusable* dataset; longitudinal use only
// works if each artifact — RTT-matrix caches, street-campaign caches,
// published snapshots, campaign checkpoints, CSV exports — survives
// crashes, torn writes and bit-rot. This layer provides the two
// primitives everything durable is built on (DESIGN.md §11):
//
//   1. Atomic replacement: writers never touch the final path directly.
//      Bytes go to `<path>.tmp.<pid>`, are fsync'd, and only then renamed
//      over the destination (with a directory fsync), so a reader sees
//      either the old complete file or the new complete file — never a
//      prefix of the new one.
//
//   2. Framed integrity: a fixed header (frame magic, caller magic,
//      version, payload length, header XXH64) followed by the payload and
//      an XXH64 trailer. The validating reader detects truncation,
//      bit-flips and torn writes *before* a single payload byte is
//      interpreted, and *quarantines* corrupt files (rename to
//      `<path>.corrupt`) so the caller regenerates instead of crashing,
//      looping on the same bad file, or silently reading garbage.
//
// Payload (de)serialisation goes through PayloadWriter/PayloadReader:
// bounds-checked POD streams, so a validated-but-malformed payload (a
// buggy writer, a stale schema) degrades to a clean load failure too.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace geoloc::util::durable {

/// XXH64 (Yann Collet's xxHash, 64-bit variant) of a byte range. Used as
/// the frame checksum: ~10 GB/s in software and 64 bits of detection,
/// enough that a passing trailer on a multi-GB artifact is conclusive.
[[nodiscard]] std::uint64_t xxh64(std::span<const std::byte> bytes,
                                  std::uint64_t seed = 0) noexcept;

/// The temp-file sibling a writer uses before the atomic rename:
/// "<path>.tmp.<pid>". Pid-suffixed so concurrent processes sharing a
/// cache directory never scribble on each other's staging file.
[[nodiscard]] std::string tmp_path_for(const std::string& path);

/// Quarantine destination of a corrupt file: "<path>.corrupt".
[[nodiscard]] std::string quarantine_path_for(const std::string& path);

/// Write `bytes` to `path` atomically: stage at tmp_path_for(path), fsync,
/// rename over `path`, fsync the parent directory. On any failure the
/// staging file is removed and `path` is left untouched (old content, or
/// still absent). Returns false with a one-line reason in `*error`.
bool atomic_write_file(const std::string& path,
                       std::span<const std::byte> bytes,
                       std::string* error = nullptr);

/// Durably promote an already-written staging file to `path`: fsync the
/// file, rename, fsync the directory. For writers that stream into the
/// temp file themselves (CsvWriter) instead of building bytes in memory.
/// On failure the staging file is removed.
bool commit_tmp_file(const std::string& tmp_path, const std::string& path,
                     std::string* error = nullptr);

/// Move a corrupt file out of the way (rename to quarantine_path_for,
/// replacing any earlier quarantine) so the next regeneration can write a
/// clean one and forensics keep the evidence. Emits a once-per-path
/// warning and bumps "durable.quarantined". Returns false if the rename
/// itself failed (the file is then best-effort removed).
bool quarantine(const std::string& path);

// -- framed checksummed files ----------------------------------------------

/// Fixed frame layout (little-endian):
///   [ 0..8)   frame magic "GLDURBL1"
///   [ 8..16)  caller magic (artifact format id)
///   [16..20)  caller format version
///   [20..24)  reserved (zero)
///   [24..32)  payload length in bytes
///   [32..40)  XXH64 of bytes [0..32)
///   [40..40+len)  payload
///   trailer:  XXH64 of the payload
inline constexpr std::size_t kFrameHeaderBytes = 40;
inline constexpr std::size_t kFrameTrailerBytes = 8;
inline constexpr std::size_t kFrameOverheadBytes =
    kFrameHeaderBytes + kFrameTrailerBytes;

// -- little-endian field codecs (byte-order independent) -------------------

inline void store_u32(std::byte* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}
inline void store_u64(std::byte* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}
inline void store_f32(std::byte* p, float v) noexcept {
  store_u32(p, std::bit_cast<std::uint32_t>(v));
}
inline void store_f64(std::byte* p, double v) noexcept {
  store_u64(p, std::bit_cast<std::uint64_t>(v));
}
inline std::uint32_t load_u32(const std::byte* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  return v;
}
inline std::uint64_t load_u64(const std::byte* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  return v;
}
inline float load_f32(const std::byte* p) noexcept {
  return std::bit_cast<float>(load_u32(p));
}
inline double load_f64(const std::byte* p) noexcept {
  return std::bit_cast<double>(load_u64(p));
}

enum class ReadStatus : std::uint8_t {
  Ok,
  NotFound,  ///< no file at `path` — a cache miss, not a failure
  IoError,   ///< open/read failed for a reason other than absence
  Corrupt,   ///< bad frame: wrong magic, bad length, failed checksum
};

/// A validated frame seen in place: `payload` views the verified bytes
/// instead of owning a copy, and `keepalive` pins the backing storage (an
/// mmap'd file, or a heap buffer) for as long as any copy of it is held.
/// Consumers that parse the payload into flat arrays (published snapshots)
/// alias it directly and skip the payload-sized allocation + memcpy of
/// read_framed.
struct FramedView {
  ReadStatus status = ReadStatus::IoError;
  std::uint32_t version = 0;            ///< caller format version (when Ok)
  std::span<const std::byte> payload;   ///< verified payload bytes (when Ok)
  std::uint64_t checksum = 0;           ///< payload XXH64 (when Ok)
  /// Owns whatever `payload` points into. Keep (a copy of) this alive for
  /// the lifetime of anything aliasing the payload.
  std::shared_ptr<const void> keepalive;
  std::string error;                    ///< one-line reason (when not Ok)

  [[nodiscard]] bool ok() const noexcept { return status == ReadStatus::Ok; }
};

/// Fill the header and trailer of `frame`, whose payload is already in
/// place at [kFrameHeaderBytes, size - kFrameTrailerBytes). Writers that
/// can lay their payload out directly (the snapshot builder) seal in place
/// and skip the payload-sized copy of write_framed.
/// Precondition: frame.size() >= kFrameOverheadBytes.
void seal_frame(std::span<std::byte> frame, std::uint64_t magic,
                std::uint32_t version) noexcept;

/// The single frame validator: checks, in order, size, frame magic, header
/// XXH64, caller magic, exact payload length and payload XXH64. Returns Ok
/// with `version`, `payload` (a view into `frame`) and `checksum` set, or
/// Corrupt with a one-line reason in `error`; `keepalive` is left empty
/// for the caller to fill.
[[nodiscard]] FramedView open_frame(std::span<const std::byte> frame,
                                    std::uint64_t magic);

/// Frame `payload` and write it atomically to `path`.
bool write_framed(const std::string& path, std::uint64_t magic,
                  std::uint32_t version, std::span<const std::byte> payload,
                  std::string* error = nullptr);

struct FramedRead {
  ReadStatus status = ReadStatus::IoError;
  std::uint32_t version = 0;        ///< caller format version (valid when Ok)
  std::vector<std::byte> payload;   ///< verified payload bytes (when Ok)
  std::string error;                ///< one-line reason (when not Ok)

  [[nodiscard]] bool ok() const noexcept { return status == ReadStatus::Ok; }
};

/// Read and validate a framed file. Every integrity failure — truncation,
/// flipped bits anywhere, torn write, trailing garbage, foreign magic —
/// comes back as Corrupt, and when `quarantine_corrupt` is set (the
/// default) the bad file has already been renamed aside so the caller's
/// regeneration path can simply write a fresh one.
[[nodiscard]] FramedRead read_framed(const std::string& path,
                                     std::uint64_t magic,
                                     bool quarantine_corrupt = true);

/// Zero-copy variant of a framed read via mmap(PROT_READ, MAP_PRIVATE):
/// open_frame runs against the mapping before a payload byte is exposed,
/// and corrupt files are quarantined the same way. The mapping pins the
/// file's inode, so an atomic replacement of `path` (rename over it) or an
/// unlink leaves a loaded view intact. When mmap is unavailable
/// (open/fstat/mmap failure, a file shorter than a frame, or
/// GEOLOC_DURABLE_NO_MMAP=1) this degrades to a buffered read of the whole
/// file parked in `keepalive` — callers never need a second code path. The
/// payload starts kFrameHeaderBytes (40) into the page-aligned mapping (or
/// the heap buffer), so 8-byte-aligned fields at 8-byte payload offsets
/// stay aligned.
[[nodiscard]] FramedView read_framed_mapped(const std::string& path,
                                            std::uint64_t magic,
                                            bool quarantine_corrupt = true);

// -- bounds-checked payload codecs -----------------------------------------

/// Append-only byte buffer for building a frame payload out of PODs.
class PayloadWriter {
 public:
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  /// Size the buffer for a payload of `n` bytes up front.
  void reserve(std::size_t n) { buf_.reserve(n); }

  [[nodiscard]] std::span<const std::byte> data() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::byte> take() noexcept {
    return std::move(buf_);
  }

 private:
  std::vector<std::byte> buf_;
};

/// Cursor over a verified payload. Every read is bounds-checked: a short
/// or overlong payload turns into `false` (and ok() goes false), never
/// into a partially-filled struct or an out-of-range allocation size.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const std::byte> data) noexcept
      : data_(data) {}

  template <typename T>
  [[nodiscard]] bool pod(T& v) noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    return bytes(&v, sizeof v);
  }

  [[nodiscard]] bool bytes(void* p, std::size_t n) noexcept {
    if (n > remaining()) {
      failed_ = true;
      return false;
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  /// True when the whole payload was consumed — readers require this so
  /// trailing bytes (a schema mismatch) are rejected, not ignored.
  [[nodiscard]] bool exhausted() const noexcept {
    return !failed_ && remaining() == 0;
  }
  [[nodiscard]] bool ok() const noexcept { return !failed_; }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace geoloc::util::durable
