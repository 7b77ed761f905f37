// Snapshot format: write -> read roundtrip (property-style, multiple
// seeds), determinism, the corruption battery — bad magic, bad checksums,
// truncation at every region, semantic invalidity, legacy files — and the
// lifetime of mmap-loaded snapshots. A rejected file must produce a clean
// error, never UB (the suite runs under the sanitize and tsan presets).
#include "publish/snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "serve/geo_service.h"
#include "util/durable.h"
#include "util/rng.h"

namespace geoloc::publish {
namespace {

using util::Pcg32;
namespace durable = util::durable;
namespace fs = std::filesystem;

/// Frame offset of the first entry: frame header, then the metadata block.
constexpr std::size_t kEntries = durable::kFrameHeaderBytes + kMetaBytes;

Record random_record(Pcg32& gen) {
  Record r;
  const int len = static_cast<int>(8 + gen.bounded(25));  // 8..32
  r.prefix = net::Prefix{net::IPv4Address{gen() | (gen.bounded(223) << 24)},
                         len};
  r.location.lat_deg = gen.uniform(-90.0, 90.0);
  r.location.lon_deg = gen.uniform(-180.0, 180.0);
  r.method = static_cast<Method>(gen.bounded(4));
  r.tier = static_cast<core::CbgVerdict>(gen.bounded(3));
  r.confidence_radius_km = static_cast<float>(gen.uniform(0.0, 5000.0));
  r.ttl_s = static_cast<float>(gen.uniform(0.0, 1e6));
  r.measured_at_s = gen.uniform(0.0, 1e8);
  const char* provenances[] = {"", "cbg/all-vps:obs=10723",
                               "geodb/IPinfo:geofeed", "street-level:tier=3",
                               "two-step:first=100,region-vps=17"};
  r.provenance = provenances[gen.bounded(5)];
  return r;
}

std::vector<Record> random_records(std::uint64_t seed, std::size_t n) {
  Pcg32 gen(seed);
  std::vector<Record> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) records.push_back(random_record(gen));
  return records;
}

std::vector<std::byte> build_bytes(const std::vector<Record>& records,
                                   const SnapshotMeta& meta) {
  SnapshotBuilder b;
  b.add(records);
  return b.build(meta);
}

SnapshotMeta test_meta() {
  return SnapshotMeta{.dataset_version = 7,
                      .created_at_s = 123456.5,
                      .source = "unit-test campaign"};
}

/// Re-seal the frame after deliberately corrupting payload bytes, so the
/// semantic validators (not the checksum) are what rejects the file.
void reseal(std::vector<std::byte>& bytes,
            std::uint32_t version = kFormatVersion) {
  durable::seal_frame(bytes, kSnapshotMagic, version);
}

/// Every decoded field of two snapshots' entries agrees, in order.
void expect_same_entries(const Snapshot& a, const Snapshot& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const SnapshotEntry x = a.entry(i);
    const SnapshotEntry y = b.entry(i);
    EXPECT_EQ(x.prefix, y.prefix) << i;
    EXPECT_EQ(x.location.lat_deg, y.location.lat_deg) << i;
    EXPECT_EQ(x.location.lon_deg, y.location.lon_deg) << i;
    EXPECT_EQ(x.method, y.method) << i;
    EXPECT_EQ(x.tier, y.tier) << i;
    EXPECT_EQ(x.confidence_radius_km, y.confidence_radius_km) << i;
    EXPECT_EQ(x.ttl_s, y.ttl_s) << i;
    EXPECT_EQ(x.measured_at_s, y.measured_at_s) << i;
    EXPECT_EQ(x.provenance, y.provenance) << i;
  }
}

TEST(SnapshotFormat, RoundtripIsBitIdenticalAcrossSeeds) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 20230415ULL, 999ULL, 7ULL}) {
    const auto records = random_records(seed, 200);
    const SnapshotMeta meta = test_meta();
    std::string error;
    const auto snap = Snapshot::from_bytes(build_bytes(records, meta), &error);
    ASSERT_NE(snap, nullptr) << "seed " << seed << ": " << error;

    EXPECT_EQ(snap->dataset_version(), meta.dataset_version);
    EXPECT_EQ(snap->created_at_s(), meta.created_at_s);
    EXPECT_EQ(snap->source(), meta.source);

    // The builder dedups by prefix (last wins); reconstruct the expectation.
    std::vector<const Record*> expected;
    for (const Record& r : records) {
      bool replaced = false;
      for (auto& e : expected) {
        if (e->prefix == r.prefix) {
          e = &r;
          replaced = true;
          break;
        }
      }
      if (!replaced) expected.push_back(&r);
    }
    ASSERT_EQ(snap->size(), expected.size()) << "seed " << seed;

    for (std::size_t i = 0; i < snap->size(); ++i) {
      const SnapshotEntry e = snap->entry(i);
      const Record* want = nullptr;
      for (const Record* r : expected) {
        if (r->prefix == e.prefix) {
          want = r;
          break;
        }
      }
      ASSERT_NE(want, nullptr);
      EXPECT_EQ(e.location.lat_deg, want->location.lat_deg);  // bit-exact
      EXPECT_EQ(e.location.lon_deg, want->location.lon_deg);
      EXPECT_EQ(e.method, want->method);
      EXPECT_EQ(e.tier, want->tier);
      EXPECT_EQ(e.confidence_radius_km, want->confidence_radius_km);
      EXPECT_EQ(e.ttl_s, want->ttl_s);
      EXPECT_EQ(e.measured_at_s, want->measured_at_s);
      EXPECT_EQ(e.provenance, want->provenance);
      if (i > 0) {
        const SnapshotEntry prev = snap->entry(i - 1);
        EXPECT_TRUE(prev.prefix.network() < e.prefix.network() ||
                    (prev.prefix.network() == e.prefix.network() &&
                     prev.prefix.length() < e.prefix.length()))
            << "entries must be strictly sorted";
      }
    }
  }
}

TEST(SnapshotFormat, BuildIsDeterministic) {
  const auto records = random_records(5, 64);
  const auto a = build_bytes(records, test_meta());
  const auto b = build_bytes(records, test_meta());
  EXPECT_EQ(a, b);
}

TEST(SnapshotFormat, DuplicatePrefixLastAddWins) {
  Record first;
  first.prefix = *net::Prefix::parse("10.0.0.0/24");
  first.location = {1.0, 1.0};
  first.provenance = "first";
  Record second = first;
  second.location = {2.0, 2.0};
  second.provenance = "second";
  SnapshotBuilder b;
  b.add(first);
  b.add(second);
  const auto snap = Snapshot::from_bytes(b.build(test_meta()));
  ASSERT_NE(snap, nullptr);
  ASSERT_EQ(snap->size(), 1u);
  EXPECT_EQ(snap->entry(0).location.lat_deg, 2.0);
  EXPECT_EQ(snap->entry(0).provenance, "second");
}

TEST(SnapshotFormat, FileRoundtrip) {
  const auto records = random_records(11, 50);
  SnapshotBuilder b;
  b.add(records);
  const std::string path =
      ::testing::TempDir() + "/geoloc-snapshot-roundtrip.bin";
  std::string error;
  ASSERT_TRUE(b.write_file(path, test_meta(), &error)) << error;
  const auto snap = Snapshot::load(path, &error);
  ASSERT_NE(snap, nullptr) << error;
  EXPECT_EQ(snap->size(), 50u);
  // checksum() is the frame trailer: XXH64 of everything between the
  // frame header and the trailer.
  const auto bytes = b.build(test_meta());
  const std::span<const std::byte> payload(
      bytes.data() + durable::kFrameHeaderBytes,
      bytes.size() - durable::kFrameOverheadBytes);
  EXPECT_EQ(snap->checksum(), durable::xxh64(payload));
  const auto in_memory = Snapshot::from_bytes(bytes);
  ASSERT_NE(in_memory, nullptr);
  EXPECT_EQ(in_memory->checksum(), snap->checksum());
  expect_same_entries(*snap, *in_memory);
  std::remove(path.c_str());
}

TEST(SnapshotFormat, FindAnswersLongestPrefix) {
  SnapshotBuilder b;
  Record wide;
  wide.prefix = *net::Prefix::parse("10.0.0.0/8");
  wide.location = {10.0, 0.0};
  Record narrow;
  narrow.prefix = *net::Prefix::parse("10.1.2.0/24");
  narrow.location = {20.0, 0.0};
  b.add(wide);
  b.add(narrow);
  const auto snap = Snapshot::from_bytes(b.build(test_meta()));
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->find(*net::IPv4Address::parse("10.1.2.3"))->location.lat_deg,
            20.0);
  EXPECT_EQ(snap->find(*net::IPv4Address::parse("10.9.9.9"))->location.lat_deg,
            10.0);
  EXPECT_FALSE(snap->find(*net::IPv4Address::parse("11.0.0.1")).has_value());
}

TEST(SnapshotFormat, EmptySnapshotIsValid) {
  SnapshotBuilder b;
  std::string error;
  const auto snap = Snapshot::from_bytes(b.build(test_meta()), &error);
  ASSERT_NE(snap, nullptr) << error;
  EXPECT_TRUE(snap->empty());
  EXPECT_FALSE(snap->find(net::IPv4Address{1}).has_value());
}

// -- corruption battery ----------------------------------------------------

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    bytes_ = build_bytes(random_records(3, 40), test_meta());
  }

  void expect_rejected(std::vector<std::byte> bytes,
                       const char* what) {
    std::string error;
    const auto snap = Snapshot::from_bytes(std::move(bytes), &error);
    EXPECT_EQ(snap, nullptr) << what;
    EXPECT_FALSE(error.empty()) << what;
  }

  std::vector<std::byte> bytes_;
};

TEST_F(SnapshotCorruption, BadMagic) {
  auto bytes = bytes_;
  bytes[0] = static_cast<std::byte>('X');
  expect_rejected(std::move(bytes), "frame magic");

  // A well-formed frame of some other artifact is not a snapshot either.
  bytes = bytes_;
  durable::seal_frame(bytes, kSnapshotMagic ^ 1, kFormatVersion);
  expect_rejected(std::move(bytes), "caller magic");
}

TEST_F(SnapshotCorruption, UnsupportedFormatVersion) {
  auto bytes = bytes_;
  reseal(bytes, 0x99);
  std::string error;
  EXPECT_EQ(Snapshot::from_bytes(std::move(bytes), &error), nullptr);
  EXPECT_NE(error.find("unsupported format version 153"), std::string::npos)
      << error;
}

TEST_F(SnapshotCorruption, HeaderBitFlip) {
  auto bytes = bytes_;
  bytes[17] = static_cast<std::byte>(static_cast<std::uint8_t>(bytes[17]) ^ 1);
  expect_rejected(std::move(bytes), "header checksum");
}

TEST_F(SnapshotCorruption, PayloadBitFlip) {
  // One flip in each payload region: metadata, entries, string pool.
  for (const std::size_t at : {durable::kFrameHeaderBytes + 3, kEntries + 9,
                               bytes_.size() - durable::kFrameTrailerBytes -
                                   1}) {
    auto bytes = bytes_;
    bytes[at] =
        static_cast<std::byte>(static_cast<std::uint8_t>(bytes[at]) ^ 0x40);
    expect_rejected(std::move(bytes),
                    ("payload checksum, byte " + std::to_string(at)).c_str());
  }
}

TEST_F(SnapshotCorruption, TruncationAtEveryRegion) {
  // Frame header cut short, metadata cut short, entries cut mid-record,
  // pool missing its tail, trailer gone, and the classic one-byte-short
  // copy.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{10}, durable::kFrameHeaderBytes - 1,
        durable::kFrameHeaderBytes + 17, kEntries + 17, bytes_.size() / 2,
        bytes_.size() - durable::kFrameTrailerBytes, bytes_.size() - 1}) {
    auto bytes = bytes_;
    bytes.resize(keep);
    expect_rejected(std::move(bytes),
                    ("truncated to " + std::to_string(keep)).c_str());
  }
}

TEST_F(SnapshotCorruption, TrailingGarbage) {
  auto bytes = bytes_;
  bytes.push_back(std::byte{0});
  expect_rejected(std::move(bytes), "trailing byte");
}

TEST_F(SnapshotCorruption, HostBitsSetInPrefix) {
  auto bytes = bytes_;
  // Entry 0's network field: force host bits below a /24 length.
  bytes[kEntries + 0] = std::byte{0xFF};
  bytes[kEntries + 4] = std::byte{24};
  reseal(bytes);
  expect_rejected(std::move(bytes), "host bits");
}

TEST_F(SnapshotCorruption, PrefixLengthOutOfRange) {
  auto bytes = bytes_;
  bytes[kEntries + 4] = std::byte{33};
  reseal(bytes);
  expect_rejected(std::move(bytes), "prefix length");
}

TEST_F(SnapshotCorruption, UnknownMethodAndTier) {
  auto bytes = bytes_;
  bytes[kEntries + 5] = std::byte{200};
  reseal(bytes);
  expect_rejected(std::move(bytes), "method");

  bytes = bytes_;
  bytes[kEntries + 6] = std::byte{200};
  reseal(bytes);
  expect_rejected(std::move(bytes), "tier");
}

TEST_F(SnapshotCorruption, ProvenanceOutOfPoolRange) {
  auto bytes = bytes_;
  for (int i = 0; i < 4; ++i) bytes[kEntries + 44 + i] = std::byte{0xFF};
  reseal(bytes);
  expect_rejected(std::move(bytes), "provenance range");
}

TEST_F(SnapshotCorruption, UnsortedEntriesRejected) {
  ASSERT_GE(bytes_.size(), kEntries + 2 * kEntryStride);
  auto bytes = bytes_;
  // Swap the first two 48-byte entry blocks, breaking strict ordering.
  for (std::size_t i = 0; i < kEntryStride; ++i) {
    std::swap(bytes[kEntries + i], bytes[kEntries + kEntryStride + i]);
  }
  reseal(bytes);
  expect_rejected(std::move(bytes), "unsorted");
}

TEST_F(SnapshotCorruption, EntryCountOverflowRejected) {
  auto bytes = bytes_;
  // Metadata offset 0: entry_count. 2^64 - 1 entries must not wrap the
  // size arithmetic into a plausible layout.
  for (int i = 0; i < 8; ++i) {
    bytes[durable::kFrameHeaderBytes + i] = std::byte{0xFF};
  }
  reseal(bytes);
  expect_rejected(std::move(bytes), "entry count overflow");
}

TEST_F(SnapshotCorruption, MissingFile) {
  std::string error;
  EXPECT_EQ(Snapshot::load(::testing::TempDir() + "/does-not-exist.bin",
                           &error),
            nullptr);
  EXPECT_FALSE(error.empty());
}

// -- files: quarantine, legacy format, mmap lifetime ------------------------

class SnapshotFile : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("geoloc-snapshot-" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST_F(SnapshotFile, LegacyGlsnFileIsRejectedAndQuarantined) {
  // A format-1 file: its own 64-byte "GLSN" header ahead of the entries,
  // no durable frame. There is no compatibility reader.
  std::vector<std::byte> legacy(64 + kEntryStride, std::byte{0});
  legacy[0] = std::byte{'G'};
  legacy[1] = std::byte{'L'};
  legacy[2] = std::byte{'S'};
  legacy[3] = std::byte{'N'};
  legacy[4] = std::byte{1};
  legacy[6] = std::byte{64};
  const std::string p = path("legacy.geosnap");
  ASSERT_TRUE(durable::atomic_write_file(p, legacy));

  std::string error;
  EXPECT_EQ(Snapshot::load(p, &error), nullptr);
  EXPECT_NE(error.find("bad frame magic"), std::string::npos) << error;
  EXPECT_FALSE(fs::exists(p));
  EXPECT_TRUE(fs::exists(durable::quarantine_path_for(p)));

  // Served through GeoService, the legacy file leaves the current version
  // in place.
  SnapshotBuilder b;
  b.add(random_records(21, 30));
  const auto serving = Snapshot::from_bytes(b.build(test_meta()));
  ASSERT_NE(serving, nullptr);
  serve::GeoService service(serving);
  ASSERT_TRUE(durable::atomic_write_file(p, legacy));
  EXPECT_FALSE(service.publish_from_file(p, &error));
  EXPECT_TRUE(fs::exists(durable::quarantine_path_for(p)));
  EXPECT_EQ(service.current(), serving);
}

TEST_F(SnapshotFile, FramedButSemanticallyInvalidFileIsQuarantined) {
  auto bytes = build_bytes(random_records(3, 40), test_meta());
  ASSERT_GE(bytes.size(), kEntries + 2 * kEntryStride);
  for (std::size_t i = 0; i < kEntryStride; ++i) {
    std::swap(bytes[kEntries + i], bytes[kEntries + kEntryStride + i]);
  }
  reseal(bytes);  // the frame is intact; only the content is wrong
  const std::string p = path("unsorted.geosnap");

  ASSERT_TRUE(durable::atomic_write_file(p, bytes));
  std::string error;
  EXPECT_EQ(Snapshot::load(p, &error, /*quarantine_corrupt=*/false), nullptr);
  EXPECT_NE(error.find("not strictly sorted"), std::string::npos) << error;
  EXPECT_TRUE(fs::exists(p)) << "quarantine was declined";

  EXPECT_EQ(Snapshot::load(p, &error), nullptr);
  EXPECT_FALSE(fs::exists(p));
  EXPECT_TRUE(fs::exists(durable::quarantine_path_for(p)));
}

TEST_F(SnapshotFile, MappedSnapshotOutlivesReplacementAndUnlink) {
  const auto v1_records = random_records(31, 120);
  SnapshotBuilder v1;
  v1.add(v1_records);
  const std::string p = path("served.geosnap");
  std::string error;
  ASSERT_TRUE(v1.write_file(p, test_meta(), &error)) << error;
  const auto loaded = Snapshot::load(p, &error);
  ASSERT_NE(loaded, nullptr) << error;

  // Publish the next version over the same path, then remove it entirely:
  // the loaded snapshot keeps answering from its own mapping.
  SnapshotBuilder v2;
  v2.add(random_records(32, 80));
  SnapshotMeta meta2 = test_meta();
  meta2.dataset_version = 8;
  ASSERT_TRUE(v2.write_file(p, meta2, &error)) << error;
  ASSERT_TRUE(fs::remove(p));

  const auto expected = Snapshot::from_bytes(v1.build(test_meta()));
  ASSERT_NE(expected, nullptr);
  EXPECT_EQ(loaded->dataset_version(), test_meta().dataset_version);
  EXPECT_EQ(loaded->source(), test_meta().source);
  EXPECT_EQ(loaded->checksum(), expected->checksum());
  expect_same_entries(*loaded, *expected);
  for (std::size_t i = 0; i < loaded->size(); i += 7) {
    const auto hit = loaded->find(loaded->entry(i).prefix.network());
    ASSERT_TRUE(hit.has_value());
  }
}

TEST_F(SnapshotFile, BufferedLoadMatchesMappedLoad) {
  SnapshotBuilder b;
  b.add(random_records(41, 150));
  const std::string p = path("both.geosnap");
  std::string error;
  ASSERT_TRUE(b.write_file(p, test_meta(), &error)) << error;

  const auto mapped = Snapshot::load(p, &error);
  ASSERT_NE(mapped, nullptr) << error;
  ::setenv("GEOLOC_DURABLE_NO_MMAP", "1", 1);
  const auto buffered = Snapshot::load(p, &error);
  ::unsetenv("GEOLOC_DURABLE_NO_MMAP");
  ASSERT_NE(buffered, nullptr) << error;

  EXPECT_EQ(buffered->dataset_version(), mapped->dataset_version());
  EXPECT_EQ(buffered->created_at_s(), mapped->created_at_s());
  EXPECT_EQ(buffered->source(), mapped->source());
  EXPECT_EQ(buffered->checksum(), mapped->checksum());
  expect_same_entries(*buffered, *mapped);
}

// -- staleness boundary semantics -------------------------------------------

TEST(SnapshotStaleness, BoundaryIsInclusive) {
  SnapshotEntry e;
  e.measured_at_s = 1'000.0;
  e.ttl_s = 500.0f;
  EXPECT_DOUBLE_EQ(e.stale_horizon_s(), 1'500.0);
  EXPECT_FALSE(e.stale_at(1'499.999));
  // Exactly at the horizon: STALE. The longitudinal loop measures at epoch
  // boundaries with ttl == k * epoch_s; a strict `>` here (the old
  // behaviour) made every such entry forever "fresh" at the instant it was
  // due and TTL-driven re-measurement never fired.
  EXPECT_TRUE(e.stale_at(1'500.0));
  EXPECT_TRUE(e.stale_at(1'500.001));
}

TEST(SnapshotStaleness, ZeroTtlNeverGoesStale) {
  SnapshotEntry e;
  e.measured_at_s = 0.0;
  e.ttl_s = 0.0f;
  EXPECT_FALSE(e.stale_at(0.0));
  EXPECT_FALSE(e.stale_at(1e12));
  EXPECT_EQ(e.stale_horizon_s(), std::numeric_limits<double>::infinity());
}

TEST(SnapshotStaleness, ExactBoundaryAtSimulatedYearsOfUptime) {
  // Regression for the timestamp-precision audit: measured_at_s is f64
  // end-to-end (entry, wire, checkpoint), so epoch arithmetic stays exact
  // far past f32's 2^24 integer range. Twenty simulated years in, a
  // 30-day TTL must still flip exactly at the boundary, not an ULP early
  // or late.
  const double twenty_years_s = 20.0 * 365.0 * 86'400.0;  // 6.3072e8
  const float month_s = 30.0f * 86'400.0f;                // 2.592e6, f32-exact
  SnapshotEntry e;
  e.measured_at_s = twenty_years_s;
  e.ttl_s = month_s;
  const double horizon = twenty_years_s + 2'592'000.0;
  EXPECT_DOUBLE_EQ(e.stale_horizon_s(), horizon);
  EXPECT_FALSE(e.stale_at(horizon - 1.0));
  EXPECT_FALSE(e.stale_at(std::nextafter(horizon, 0.0)));
  EXPECT_TRUE(e.stale_at(horizon));
}

TEST(SnapshotStaleness, TtlQuantisesAtFloatIntegerLimit) {
  // ttl_s IS f32 in the 48-byte wire entry: durations beyond 2^24 s
  // (~194 days) quantise to the nearest representable float. This is a
  // documented format property — the TTL ladder tops out at 30 days — and
  // the quantisation must at least be consistent: the entry goes stale at
  // the horizon computed from the *stored* (quantised) value.
  const float quantised = 16'777'217.0f;  // 2^24 + 1 rounds to 2^24
  EXPECT_EQ(quantised, 16'777'216.0f);
  SnapshotEntry e;
  e.measured_at_s = 0.0;
  e.ttl_s = quantised;
  EXPECT_TRUE(e.stale_at(16'777'216.0));
  EXPECT_FALSE(e.stale_at(16'777'215.0));

  // And the stored value survives the disk roundtrip bit-exactly.
  Record r;
  r.prefix = *net::Prefix::parse("10.0.0.0/24");
  r.ttl_s = quantised;
  r.measured_at_s = 6.3072e8;
  SnapshotBuilder b;
  b.add(r);
  std::string error;
  const auto s = Snapshot::from_bytes(b.build(test_meta()), &error);
  ASSERT_NE(s, nullptr) << error;
  EXPECT_EQ(s->entry(0).ttl_s, quantised);
  EXPECT_DOUBLE_EQ(s->entry(0).measured_at_s, 6.3072e8);
}

}  // namespace
}  // namespace geoloc::publish
