// The durable layer's own contract: XXH64 against published reference
// vectors, atomic replacement semantics, the framed roundtrip, and the
// corruption matrix on the frame itself — truncation at every 1/8 offset,
// bit-flips in header / payload / trailer, torn writes, trailing garbage.
// Every failure must come back as a clean status (and quarantine), never
// as UB — the suite runs under the sanitize and tsan presets
// (`ctest --preset sanitize -L durable`).
#include "util/durable.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace geoloc::util::durable {
namespace {

namespace fs = std::filesystem;

std::span<const std::byte> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

/// Fresh per-test scratch directory under the build tree.
class FramedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("geoloc-durable-" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

std::vector<std::byte> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(raw.size());
  std::memcpy(bytes.data(), raw.data(), raw.size());
  return bytes;
}

void write_all(const std::string& path, std::span<const std::byte> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

// -- XXH64 ------------------------------------------------------------------

TEST(Xxh64, MatchesPublishedReferenceVectors) {
  // Reference values from the canonical xxHash implementation.
  EXPECT_EQ(xxh64(as_bytes("")), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64(as_bytes("a")), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(xxh64(as_bytes("abc")), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(xxh64(as_bytes("Nobody inspects the spammish repetition")),
            0xFBCEA83C8A378BF1ULL);
}

TEST(Xxh64, SeedChangesTheHashAndLongInputsCoverTheStripedPath) {
  // > 32 bytes exercises the 4-lane striped loop, not just the tail.
  std::string long_input;
  for (int i = 0; i < 1000; ++i) long_input += static_cast<char>('a' + i % 26);
  const std::uint64_t h0 = xxh64(as_bytes(long_input), 0);
  const std::uint64_t h1 = xxh64(as_bytes(long_input), 1);
  EXPECT_NE(h0, h1);
  EXPECT_EQ(h0, xxh64(as_bytes(long_input), 0));  // deterministic

  // Single-bit sensitivity: flipping any one byte changes the hash.
  std::vector<std::byte> mutated(as_bytes(long_input).begin(),
                                 as_bytes(long_input).end());
  mutated[500] ^= std::byte{0x01};
  EXPECT_NE(xxh64(mutated), h0);
}

// -- path helpers -----------------------------------------------------------

TEST(DurablePaths, TmpIsPidSuffixedAndQuarantineIsDotCorrupt) {
  const std::string tmp = tmp_path_for("/x/y/data.bin");
  EXPECT_EQ(tmp.rfind("/x/y/data.bin.tmp.", 0), 0u);
  EXPECT_GT(tmp.size(), std::string("/x/y/data.bin.tmp.").size());
  EXPECT_EQ(quarantine_path_for("/x/y/data.bin"), "/x/y/data.bin.corrupt");
}

// -- atomic writes ----------------------------------------------------------

TEST_F(FramedTest, AtomicWriteRoundtripsAndLeavesNoStagingFile) {
  const std::string p = path("artifact.bin");
  const std::string payload = "hello, durable world";
  std::string error;
  ASSERT_TRUE(atomic_write_file(p, as_bytes(payload), &error)) << error;

  const auto got = read_all(p);
  ASSERT_EQ(got.size(), payload.size());
  EXPECT_EQ(std::memcmp(got.data(), payload.data(), payload.size()), 0);
  EXPECT_FALSE(fs::exists(tmp_path_for(p)));
}

TEST_F(FramedTest, AtomicWriteReplacesExistingContentCompletely) {
  const std::string p = path("artifact.bin");
  ASSERT_TRUE(atomic_write_file(p, as_bytes("a much longer first version")));
  ASSERT_TRUE(atomic_write_file(p, as_bytes("v2")));
  const auto got = read_all(p);
  ASSERT_EQ(got.size(), 2u);  // no remnant of the longer first version
}

TEST_F(FramedTest, AtomicWriteToUnwritableDirectoryFailsWithReason) {
  std::string error;
  EXPECT_FALSE(atomic_write_file(
      (dir_ / "no-such-subdir" / "f.bin").string(), as_bytes("x"), &error));
  EXPECT_FALSE(error.empty());
}

// -- framed roundtrip -------------------------------------------------------

constexpr std::uint64_t kTestMagic = 0x544553544D414749ULL;

std::vector<std::byte> test_payload(std::size_t n) {
  std::vector<std::byte> payload(n);
  for (std::size_t i = 0; i < n; ++i) {
    payload[i] = static_cast<std::byte>((i * 131 + 17) & 0xFF);
  }
  return payload;
}

TEST_F(FramedTest, FramedRoundtripPreservesPayloadAndVersion) {
  const std::string p = path("frame.bin");
  const auto payload = test_payload(1000);
  std::string error;
  ASSERT_TRUE(write_framed(p, kTestMagic, 7, payload, &error)) << error;
  EXPECT_EQ(fs::file_size(p), kFrameOverheadBytes + payload.size());

  const FramedRead r = read_framed(p, kTestMagic);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.version, 7u);
  EXPECT_EQ(r.payload, payload);
}

TEST_F(FramedTest, SealingInPlaceWritesTheSameFrameAsWriteFramed) {
  // Writers that lay their payload out in place (the snapshot builder) and
  // writers that hand over a finished payload produce identical files, and
  // open_frame sees the payload where it was written.
  const std::string p = path("sealed.bin");
  const auto payload = test_payload(333);
  ASSERT_TRUE(write_framed(p, kTestMagic, 9, payload));

  std::vector<std::byte> frame(kFrameOverheadBytes + payload.size());
  std::copy(payload.begin(), payload.end(),
            frame.begin() + kFrameHeaderBytes);
  seal_frame(frame, kTestMagic, 9);
  EXPECT_EQ(frame, read_all(p));

  const FramedView v = open_frame(frame, kTestMagic);
  ASSERT_TRUE(v.ok()) << v.error;
  EXPECT_EQ(v.version, 9u);
  EXPECT_EQ(v.payload.data(), frame.data() + kFrameHeaderBytes);
  EXPECT_TRUE(std::equal(v.payload.begin(), v.payload.end(), payload.begin(),
                         payload.end()));
  EXPECT_EQ(v.checksum, xxh64(payload));
  EXPECT_EQ(open_frame(frame, kTestMagic + 1).status, ReadStatus::Corrupt);
}

TEST_F(FramedTest, EmptyPayloadIsAValidFrame) {
  const std::string p = path("empty.bin");
  ASSERT_TRUE(write_framed(p, kTestMagic, 1, {}));
  const FramedRead r = read_framed(p, kTestMagic);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.payload.empty());
}

TEST_F(FramedTest, MissingFileIsNotFoundAndNeverQuarantines) {
  const std::string p = path("absent.bin");
  const FramedRead r = read_framed(p, kTestMagic);
  EXPECT_EQ(r.status, ReadStatus::NotFound);
  EXPECT_FALSE(fs::exists(quarantine_path_for(p)));
}

TEST_F(FramedTest, ForeignCallerMagicIsCorrupt) {
  const std::string p = path("foreign.bin");
  ASSERT_TRUE(write_framed(p, kTestMagic, 1, test_payload(64)));
  const FramedRead r = read_framed(p, kTestMagic ^ 1, /*quarantine=*/false);
  EXPECT_EQ(r.status, ReadStatus::Corrupt);
}

// -- the corruption matrix --------------------------------------------------

/// Expect a corrupt read that quarantines, then prove regeneration: the
/// quarantined original is out of the way, a fresh write lands cleanly and
/// the next read succeeds.
void expect_corrupt_then_regenerate(const std::string& p,
                                    std::span<const std::byte> payload) {
  const FramedRead r = read_framed(p, kTestMagic);
  EXPECT_EQ(r.status, ReadStatus::Corrupt) << r.error;
  EXPECT_FALSE(fs::exists(p)) << "corrupt file must be moved aside";
  EXPECT_TRUE(fs::exists(quarantine_path_for(p)));

  ASSERT_TRUE(write_framed(p, kTestMagic, 3, payload));
  const FramedRead again = read_framed(p, kTestMagic);
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_TRUE(std::equal(again.payload.begin(), again.payload.end(),
                         payload.begin(), payload.end()));
}

TEST_F(FramedTest, TruncationAtEveryEighthOffsetIsDetected) {
  const auto payload = test_payload(400);
  for (int eighth = 0; eighth < 8; ++eighth) {
    const std::string p =
        path("trunc-" + std::to_string(eighth) + ".bin");
    ASSERT_TRUE(write_framed(p, kTestMagic, 3, payload));
    const auto full = read_all(p);
    const std::size_t cut = full.size() * static_cast<std::size_t>(eighth) / 8;
    write_all(p, std::span<const std::byte>(full).first(cut));
    expect_corrupt_then_regenerate(p, payload);
  }
}

TEST_F(FramedTest, SingleBitFlipsAcrossHeaderPayloadAndTrailerAreDetected) {
  const auto payload = test_payload(256);
  const std::string clean = path("clean.bin");
  ASSERT_TRUE(write_framed(clean, kTestMagic, 3, payload));
  const auto full = read_all(clean);
  ASSERT_EQ(full.size(), kFrameOverheadBytes + payload.size());

  // One flip in every header byte, a spread of payload bytes, and every
  // trailer byte.
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) positions.push_back(i);
  for (std::size_t i = kFrameHeaderBytes; i < full.size() - kFrameTrailerBytes;
       i += 37) {
    positions.push_back(i);
  }
  for (std::size_t i = full.size() - kFrameTrailerBytes; i < full.size(); ++i) {
    positions.push_back(i);
  }
  for (const std::size_t pos : positions) {
    const std::string p = path("flip-" + std::to_string(pos) + ".bin");
    auto flipped = full;
    flipped[pos] ^= std::byte{0x40};
    write_all(p, flipped);
    expect_corrupt_then_regenerate(p, payload);
  }
}

TEST_F(FramedTest, TornWriteMixingOldAndNewFramesIsDetected) {
  // A non-atomic writer that died mid-overwrite would leave the new
  // frame's prefix over the old frame's suffix. The payload hash (or the
  // length check) must catch the seam wherever it lands.
  const auto old_payload = test_payload(300);
  std::vector<std::byte> new_payload = test_payload(300);
  for (auto& b : new_payload) b ^= std::byte{0xFF};

  const std::string old_p = path("old.bin");
  const std::string new_p = path("new.bin");
  ASSERT_TRUE(write_framed(old_p, kTestMagic, 3, old_payload));
  ASSERT_TRUE(write_framed(new_p, kTestMagic, 3, new_payload));
  const auto old_bytes = read_all(old_p);
  const auto new_bytes = read_all(new_p);
  ASSERT_EQ(old_bytes.size(), new_bytes.size());

  for (int eighth = 1; eighth < 8; ++eighth) {
    const std::string p = path("torn-" + std::to_string(eighth) + ".bin");
    const std::size_t seam =
        old_bytes.size() * static_cast<std::size_t>(eighth) / 8;
    std::vector<std::byte> torn(new_bytes.begin(),
                                new_bytes.begin() + static_cast<long>(seam));
    torn.insert(torn.end(), old_bytes.begin() + static_cast<long>(seam),
                old_bytes.end());
    write_all(p, torn);
    expect_corrupt_then_regenerate(p, new_payload);
  }
}

TEST_F(FramedTest, TrailingGarbageAfterTheTrailerIsCorrupt) {
  const std::string p = path("garbage.bin");
  const auto payload = test_payload(64);
  ASSERT_TRUE(write_framed(p, kTestMagic, 3, payload));
  auto full = read_all(p);
  full.push_back(std::byte{0xAB});
  write_all(p, full);
  expect_corrupt_then_regenerate(p, payload);
}

TEST_F(FramedTest, QuarantineCanBeDeclined) {
  const std::string p = path("keep.bin");
  ASSERT_TRUE(write_framed(p, kTestMagic, 3, test_payload(64)));
  auto full = read_all(p);
  full[kFrameHeaderBytes + 10] ^= std::byte{0x01};
  write_all(p, full);

  const FramedRead r = read_framed(p, kTestMagic, /*quarantine_corrupt=*/false);
  EXPECT_EQ(r.status, ReadStatus::Corrupt);
  EXPECT_TRUE(fs::exists(p)) << "declined quarantine must leave the file";
  EXPECT_FALSE(fs::exists(quarantine_path_for(p)));
}

TEST_F(FramedTest, RepeatedQuarantineReplacesTheEarlierEvidence) {
  const std::string p = path("twice.bin");
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(write_framed(p, kTestMagic, 3, test_payload(32)));
    auto full = read_all(p);
    full.back() ^= std::byte{0x01};
    write_all(p, full);
    EXPECT_EQ(read_framed(p, kTestMagic).status, ReadStatus::Corrupt);
  }
  EXPECT_TRUE(fs::exists(quarantine_path_for(p)));
  EXPECT_FALSE(fs::exists(p));
}

// -- payload codecs ---------------------------------------------------------

TEST(PayloadCodec, RoundtripsPodsAndRejectsShortReads) {
  PayloadWriter w;
  w.pod(std::uint64_t{0x1122334455667788ULL});
  w.pod(3.5);
  w.pod(std::uint8_t{9});

  PayloadReader in(w.data());
  std::uint64_t a = 0;
  double b = 0.0;
  std::uint8_t c = 0;
  EXPECT_TRUE(in.pod(a));
  EXPECT_TRUE(in.pod(b));
  EXPECT_TRUE(in.pod(c));
  EXPECT_EQ(a, 0x1122334455667788ULL);
  EXPECT_DOUBLE_EQ(b, 3.5);
  EXPECT_EQ(c, 9);
  EXPECT_TRUE(in.exhausted());

  // One byte past the end: the read fails, ok() latches false, and
  // exhausted() refuses too (a failed reader is never "cleanly done").
  std::uint8_t extra = 0;
  EXPECT_FALSE(in.pod(extra));
  EXPECT_FALSE(in.ok());
  EXPECT_FALSE(in.exhausted());
}

TEST(PayloadCodec, UnconsumedTrailingBytesAreNotExhausted) {
  PayloadWriter w;
  w.pod(std::uint32_t{1});
  w.pod(std::uint32_t{2});
  PayloadReader in(w.data());
  std::uint32_t v = 0;
  EXPECT_TRUE(in.pod(v));
  EXPECT_TRUE(in.ok());
  EXPECT_FALSE(in.exhausted());  // 4 bytes left: schema mismatch, not done
}

}  // namespace
}  // namespace geoloc::util::durable
