// Concurrency stress for the GeoService file-publish path: reader threads
// hammer lookups while a writer republishes from disk, alternating good
// snapshot files with freshly-rewritten corrupt ones. The invariants under
// fire: every lookup answers from some *complete* published version (the
// entry latitude encodes the dataset version, so a torn swap is instantly
// visible), a corrupt file never reaches readers (publish_from_file fails,
// quarantines, and the previous version keeps serving), and the whole dance
// is TSan-clean (`ctest --preset tsan -L serve` runs this file).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "publish/snapshot.h"
#include "serve/geo_service.h"
#include "util/durable.h"

namespace geoloc::serve {
namespace {

namespace fs = std::filesystem;

class ServePublishStress : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("geoloc-serve-publish-stress-" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// A snapshot file whose single entry's latitude encodes `version`.
  [[nodiscard]] std::string write_snapshot_file(const std::string& name,
                                                std::uint32_t version) const {
    publish::SnapshotBuilder b;
    publish::Record r;
    r.prefix = *net::Prefix::parse("10.1.0.0/16");
    r.location = {static_cast<double>(version), 0.0};
    r.provenance = "stress-v" + std::to_string(version);
    b.add(std::move(r));
    const std::string p = path(name);
    EXPECT_TRUE(b.write_file(
        p, publish::SnapshotMeta{.dataset_version = version,
                                 .source = "publish stress"}));
    return p;
  }

  fs::path dir_;
};

TEST_F(ServePublishStress, LookupsStayConsistentAcrossGoodAndCorruptPublishes) {
  const std::string v1 = write_snapshot_file("v1.geosnap", 1);
  const std::string v2 = write_snapshot_file("v2.geosnap", 2);
  const std::string bad = path("bad.geosnap");

  GeoService service;
  std::string error;
  ASSERT_TRUE(service.publish_from_file(v1, &error)) << error;

  const auto target = *net::IPv4Address::parse("10.1.2.3");
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const Answer a = service.lookup(target, /*now_s=*/0.0);
        // Always found (every published version covers the prefix), and
        // always internally consistent: latitude, provenance, and version
        // all come from the same complete snapshot.
        if (!a.found ||
            a.location.lat_deg != static_cast<double>(a.dataset_version) ||
            a.provenance !=
                "stress-v" + std::to_string(a.dataset_version)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  int good_publishes = 0;
  int rejected = 0;
  for (int i = 0; i < 150; ++i) {
    // A good version lands...
    if (service.publish_from_file(i % 2 == 0 ? v2 : v1, &error)) {
      ++good_publishes;
    }
    // ...then a freshly-rewritten corrupt file tries to. It must be
    // rejected (and quarantined) with the served version untouched.
    {
      std::ofstream f(bad, std::ios::binary | std::ios::trunc);
      f << "GEOSNAP? not even close " << i;
    }
    if (!service.publish_from_file(bad, &error)) ++rejected;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(good_publishes, 150);
  EXPECT_EQ(rejected, 150);
  EXPECT_FALSE(fs::exists(bad));  // always quarantined
  EXPECT_TRUE(fs::exists(util::durable::quarantine_path_for(bad)));
  EXPECT_EQ(service.stats().swaps, 151u);  // v1 + 150 good, 0 corrupt
  // And the service still answers from the last good version.
  const Answer final_answer = service.lookup(target, 0.0);
  EXPECT_TRUE(final_answer.found);
  EXPECT_EQ(final_answer.dataset_version, 1u);  // i=149 odd -> v1 last
}

}  // namespace
}  // namespace geoloc::serve
