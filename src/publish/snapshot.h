// The published dataset artifact: an immutable, versioned, checksummed
// binary snapshot of per-prefix geolocation answers.
//
// The paper's end goal is a *publicly available* dataset; what a consumer
// downloads is one of these files. Design constraints, in order:
//
//   * **Per-prefix granularity with provenance** — every entry carries the
//     prefix it answers for, the technique that produced it (CBG,
//     million-scale two-step, street-level, geolocation database), the
//     CbgVerdict trust tier, a confidence radius and a free-form
//     provenance string ("Lost in the Prefix": a bare coordinate without
//     scope and origin is unusable downstream).
//   * **Versioned and diffable** — snapshots carry a dataset version and a
//     simulated-time creation stamp; publish/diff.h reports churn between
//     versions (the longitudinal-study finding that inter-version movement
//     is itself signal).
//   * **Corruption-evident** — the file is a util::durable frame: frame
//     magic, caller magic, format version, exact length and XXH64 over
//     header and payload are validated before any entry is interpreted;
//     truncated, bit-flipped or semantically invalid files are rejected
//     with a clean error, never undefined behaviour.
//   * **Zero-copy serving** — load() mmaps the file and the reader keeps
//     a view of the verified payload; entries decode on demand and
//     provenance strings are string_views into it. Loading builds a
//     net::FlatLpm index over the (already sorted) entries for O(log n)
//     cache-friendly LPM.
//
// On-disk layout (all integers little-endian, doubles as IEEE-754 bits):
//
//   [durable frame header: 40 bytes — util/durable.h]
//     frame magic "GLDURBL1", caller magic kSnapshotMagic ("GLSNAPSH"),
//     format version kFormatVersion, payload length, header XXH64
//   [payload]
//     [metadata: kMetaBytes = 40 bytes]
//        0  u64 entry_count
//        8  u64 string_pool_bytes
//       16  f64 created_at_s     simulated publication time
//       24  u32 dataset_version  monotonically increasing per publication
//       28  u32 source_offset    snapshot-level source string (in pool)
//       32  u32 source_len
//       36  u32 reserved (0)
//     [entries: entry_count x 48 bytes, sorted by (network, prefix length),
//      no duplicate prefixes]
//        0  u32 network          host bits below prefix_len are zero
//        4  u8  prefix_len       0..32
//        5  u8  method           publish::Method
//        6  u8  tier             core::CbgVerdict
//        7  u8  flags            reserved, 0
//        8  f64 lat_deg
//       16  f64 lon_deg
//       24  f64 measured_at_s    simulated measurement time
//       32  f32 confidence_radius_km
//       36  f32 ttl_s            staleness horizon relative to measured_at_s
//       40  u32 provenance_offset (into string pool)
//       44  u32 provenance_len
//     [string pool: string_pool_bytes bytes, deduplicated]
//   [durable frame trailer: XXH64 of the payload — checksum()]
//
// Format version 2 moved the snapshot into the durable frame. Version 1
// files (own "GLSN" header with CRC-32s) fail the frame magic and are
// handled like any other corrupt file; there is no compatibility reader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/cbg.h"
#include "geo/geopoint.h"
#include "net/flat_lpm.h"
#include "net/ipv4.h"
#include "util/durable.h"

namespace geoloc::publish {

/// Caller magic of the durable frame: "GLSNAPSH" little-endian.
inline constexpr std::uint64_t kSnapshotMagic = 0x485350414E534C47ULL;
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::size_t kMetaBytes = 40;
inline constexpr std::size_t kEntryStride = 48;

/// The technique that produced an entry.
enum class Method : std::uint8_t {
  Cbg,          ///< constraint-based geolocation over the VP mesh
  TwoStep,      ///< million-scale two-step VP selection (Section 5.1.4)
  StreetLevel,  ///< three-tier landmark pipeline (Section 3.2)
  GeoDb,        ///< imported from a commercial geolocation database
  Fused,        ///< CBG fused with verified operator evidence (fusion::)
};
std::string_view to_string(Method m) noexcept;

/// An owning entry, the builder's input (and the diff tool's working form).
struct Record {
  net::Prefix prefix;
  geo::GeoPoint location;
  Method method = Method::Cbg;
  core::CbgVerdict tier = core::CbgVerdict::Ok;
  float confidence_radius_km = 0.0f;
  float ttl_s = 0.0f;            ///< 0 disables staleness for the entry
  double measured_at_s = 0.0;    ///< simulated time of the measurement
  std::string provenance;
};

/// A decoded entry; `provenance` views into the snapshot's payload and is
/// valid for the snapshot's lifetime.
struct SnapshotEntry {
  net::Prefix prefix;
  geo::GeoPoint location;
  Method method = Method::Cbg;
  core::CbgVerdict tier = core::CbgVerdict::Ok;
  float confidence_radius_km = 0.0f;
  float ttl_s = 0.0f;
  double measured_at_s = 0.0;
  std::string_view provenance;

  /// Entry age at `now_s` (simulated seconds).
  [[nodiscard]] double age_s(double now_s) const noexcept {
    return now_s - measured_at_s;
  }
  /// First instant at which the entry counts as stale, or +inf when
  /// ttl_s == 0 (staleness disabled). Exposed so every consumer —
  /// stale_at here, serve::GeoService::stale_prefixes, the longitudinal
  /// driver's TTL policy — derives the boundary from one definition.
  [[nodiscard]] double stale_horizon_s() const noexcept {
    return ttl_s > 0.0f
               ? measured_at_s + static_cast<double>(ttl_s)
               : std::numeric_limits<double>::infinity();
  }
  /// True when the entry has reached its staleness horizon at `now_s`:
  /// stale iff now_s >= measured_at_s + ttl_s (ttl_s == 0 never goes
  /// stale). The boundary is *inclusive* — an entry measured at the start
  /// of an epoch with ttl equal to the epoch length is due exactly at the
  /// next epoch. An earlier version used a strict `>`, so under exact
  /// epoch arithmetic (ttl == k * epoch_s) entries were never considered
  /// stale at the instant they were due and TTL-driven re-measurement
  /// silently skipped a full epoch.
  [[nodiscard]] bool stale_at(double now_s) const noexcept {
    return now_s >= stale_horizon_s();
  }
};

/// Copy a decoded entry back into owning form (to carry entries of one
/// snapshot into the next version's builder).
Record to_record(const SnapshotEntry& e);

/// Snapshot-level metadata stamped by the builder.
struct SnapshotMeta {
  std::uint32_t dataset_version = 1;
  double created_at_s = 0.0;  ///< simulated publication time
  std::string source;         ///< campaign / pipeline description
};

/// An immutable loaded snapshot. Thread-safe for concurrent reads.
class Snapshot {
 public:
  /// Parse and validate a framed snapshot from raw bytes (takes
  /// ownership). Returns nullptr and sets *error on any corruption.
  static std::shared_ptr<const Snapshot> from_bytes(
      std::vector<std::byte> bytes, std::string* error = nullptr);

  /// Map and validate a snapshot file (util::durable::read_framed_mapped).
  /// The snapshot aliases the mapping, which outlives a later replacement
  /// or unlink of `path`. A file that exists but fails validation — frame
  /// or semantic — is quarantined (renamed to `<path>.corrupt`, see
  /// util/durable.h) unless `quarantine_corrupt` is false, so the caller's
  /// republish path writes a fresh file instead of fighting the bad one.
  static std::shared_ptr<const Snapshot> load(const std::string& path,
                                              std::string* error = nullptr,
                                              bool quarantine_corrupt = true);

  [[nodiscard]] std::uint32_t dataset_version() const noexcept {
    return dataset_version_;
  }
  [[nodiscard]] double created_at_s() const noexcept { return created_at_s_; }
  [[nodiscard]] std::string_view source() const noexcept { return source_; }
  /// XXH64 of the payload, as stored in the frame trailer.
  [[nodiscard]] std::uint64_t checksum() const noexcept { return checksum_; }

  [[nodiscard]] std::size_t size() const noexcept { return entry_count_; }
  [[nodiscard]] bool empty() const noexcept { return entry_count_ == 0; }

  /// Decode entry `i` (entries are sorted by (network, prefix length)).
  /// Precondition: i < size().
  [[nodiscard]] SnapshotEntry entry(std::size_t i) const noexcept;

  /// Longest-prefix match over the snapshot's entries.
  [[nodiscard]] std::optional<SnapshotEntry> find(net::IPv4Address a) const;

  /// The flattened LPM index (entry indices as values), for callers that
  /// batch lookups or benchmark the structure directly.
  [[nodiscard]] const net::FlatLpm<std::uint32_t>& index() const noexcept {
    return index_;
  }

 private:
  Snapshot() = default;

  /// Semantic validation of a verified frame, shared by from_bytes and load.
  static std::shared_ptr<const Snapshot> parse(util::durable::FramedView view,
                                               std::string* error);

  std::shared_ptr<const void> keepalive_;  ///< owns the payload bytes
  const std::byte* entries_ = nullptr;
  const std::byte* pool_ = nullptr;
  std::size_t entry_count_ = 0;
  std::uint32_t dataset_version_ = 0;
  std::uint64_t checksum_ = 0;
  double created_at_s_ = 0.0;
  std::string_view source_;
  net::FlatLpm<std::uint32_t> index_;
};

/// Assembles records into the binary format. Records may be added in any
/// order; build() sorts by (network, prefix length) and, for duplicate
/// prefixes, keeps the *last* one added (so "carry over v1, then add the
/// refreshed entries" composes the way callers expect).
class SnapshotBuilder {
 public:
  void add(Record record);
  void add(std::span<const Record> records);

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }

  /// Serialize into one frame-sized buffer. Deterministic: equal inputs
  /// yield identical bytes.
  [[nodiscard]] std::vector<std::byte> build(const SnapshotMeta& meta) const;

  /// Serialize straight to a file, atomically: the bytes are staged at a
  /// temp path, fsync'd and renamed over `path` (util/durable.h), so a
  /// crash mid-publish never leaves a torn snapshot behind. Returns false
  /// and sets *error on I/O failure (the destination is then untouched).
  bool write_file(const std::string& path, const SnapshotMeta& meta,
                  std::string* error = nullptr) const;

 private:
  std::vector<Record> records_;
};

}  // namespace geoloc::publish
