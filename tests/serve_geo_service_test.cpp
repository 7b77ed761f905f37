// GeoService behaviour: serving answers with TTL/staleness handling, the
// RCU-style hot swap (including the TSan-exercised concurrent-read test),
// the re-measurement queue, and the full publish -> serve -> stale ->
// re-measure -> refresh -> diff loop on the shared small scenario.
#include "serve/geo_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "atlas/executor.h"
#include "atlas/platform.h"
#include "eval/publication.h"
#include "publish/compile.h"
#include "publish/diff.h"
#include "publish/snapshot.h"
#include "test_scenario.h"

namespace geoloc::serve {
namespace {

using publish::Method;
using publish::Record;
using publish::Snapshot;
using publish::SnapshotBuilder;
using publish::SnapshotMeta;

net::IPv4Address addr(const char* text) {
  return *net::IPv4Address::parse(text);
}

Record make_record(const char* prefix, double lat, float ttl_s,
                   double measured_at_s,
                   const char* provenance = "test") {
  Record r;
  r.prefix = *net::Prefix::parse(prefix);
  r.location = {lat, 0.0};
  r.method = Method::Cbg;
  r.tier = core::CbgVerdict::Ok;
  r.confidence_radius_km = 25.0f;
  r.ttl_s = ttl_s;
  r.measured_at_s = measured_at_s;
  r.provenance = provenance;
  return r;
}

std::shared_ptr<const Snapshot> make_snapshot(
    std::vector<Record> records, std::uint32_t version,
    double created_at_s = 0.0) {
  SnapshotBuilder b;
  for (auto& r : records) b.add(std::move(r));
  std::string error;
  auto snap = Snapshot::from_bytes(
      b.build(SnapshotMeta{.dataset_version = version,
                           .created_at_s = created_at_s,
                           .source = "unit test"}),
      &error);
  EXPECT_NE(snap, nullptr) << error;
  return snap;
}

TEST(GeoService, AnswersFreshStaleAndMiss) {
  GeoService service(make_snapshot(
      {make_record("10.0.0.0/24", 1.0, /*ttl_s=*/100.0f, /*measured_at=*/0.0),
       make_record("10.0.1.0/24", 2.0, /*ttl_s=*/0.0f, 0.0)},
      /*version=*/3));

  const Answer fresh = service.lookup(addr("10.0.0.7"), /*now_s=*/50.0);
  EXPECT_TRUE(fresh.found);
  EXPECT_FALSE(fresh.stale);
  EXPECT_EQ(fresh.location.lat_deg, 1.0);
  EXPECT_EQ(fresh.age_s, 50.0);
  EXPECT_EQ(fresh.dataset_version, 3u);
  EXPECT_EQ(fresh.provenance, "test");

  // Past the TTL: still answered, but flagged and queued.
  const Answer stale = service.lookup(addr("10.0.0.7"), /*now_s=*/250.0);
  EXPECT_TRUE(stale.found);
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(service.remeasure_queue().size(), 1u);

  // ttl_s == 0 means never stale.
  const Answer eternal = service.lookup(addr("10.0.1.9"), /*now_s=*/1e9);
  EXPECT_TRUE(eternal.found);
  EXPECT_FALSE(eternal.stale);

  const Answer miss = service.lookup(addr("192.168.0.1"), 0.0);
  EXPECT_FALSE(miss.found);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.lookups, 4u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stale_hits, 1u);
}

TEST(GeoService, LookupBeforeFirstPublishMisses) {
  GeoService service;
  EXPECT_EQ(service.current(), nullptr);
  const Answer a = service.lookup(addr("1.2.3.4"), 0.0);
  EXPECT_FALSE(a.found);
  EXPECT_EQ(service.stats().misses, 1u);
}

TEST(GeoService, AnswerSurvivesHotSwap) {
  GeoService service(make_snapshot(
      {make_record("10.0.0.0/24", 1.0, 0.0f, 0.0, "from-v1")}, 1));
  const Answer before = service.lookup(addr("10.0.0.1"), 0.0);
  ASSERT_TRUE(before.found);

  service.publish(make_snapshot(
      {make_record("10.0.0.0/24", 2.0, 0.0f, 0.0, "from-v2")}, 2));
  // The old answer's provenance view must still be readable: it pins the
  // v1 snapshot via its `source` member.
  EXPECT_EQ(before.provenance, "from-v1");
  EXPECT_EQ(before.dataset_version, 1u);

  const Answer after = service.lookup(addr("10.0.0.1"), 0.0);
  EXPECT_EQ(after.provenance, "from-v2");
  EXPECT_EQ(after.dataset_version, 2u);
  EXPECT_EQ(service.stats().swaps, 1u);  // the ctor snapshot is not a swap
}

TEST(GeoService, BatchServesOneConsistentVersion) {
  GeoService service(make_snapshot(
      {make_record("10.0.0.0/24", 1.0, 0.0f, 0.0),
       make_record("10.0.1.0/24", 2.0, 0.0f, 0.0)},
      1));
  const std::vector<net::IPv4Address> addrs = {
      addr("10.0.0.1"), addr("10.0.1.1"), addr("99.0.0.1")};
  std::vector<Answer> out(addrs.size());
  service.lookup_batch(addrs, 0.0, out);
  EXPECT_TRUE(out[0].found);
  EXPECT_TRUE(out[1].found);
  EXPECT_FALSE(out[2].found);
  EXPECT_EQ(out[0].dataset_version, out[1].dataset_version);
}

TEST(GeoService, StalePrefixScanFindsExpiredEntries) {
  GeoService service(make_snapshot(
      {make_record("10.0.0.0/24", 1.0, /*ttl_s=*/10.0f, /*measured_at=*/0.0),
       make_record("10.0.1.0/24", 2.0, /*ttl_s=*/1000.0f, 0.0),
       make_record("10.0.2.0/24", 3.0, /*ttl_s=*/0.0f, 0.0)},
      1));
  const auto stale = service.stale_prefixes(/*now_s=*/500.0);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], *net::Prefix::parse("10.0.0.0/24"));
}

TEST(GeoService, StalenessBoundaryAgreesEndToEnd) {
  // ttl == 100, measured at 0: the entry is due at EXACTLY now == 100, and
  // every consumer must agree — the lookup's stale flag, the proactive
  // stale_prefixes scan, and (via the queue they both feed) what
  // plan_remeasurement gets to work with. Before the inclusive-boundary
  // fix, an entry whose ttl equals the re-measurement cadence was never
  // due at the cadence tick.
  GeoService service(make_snapshot(
      {make_record("10.0.0.0/24", 1.0, /*ttl_s=*/100.0f, /*measured_at=*/0.0)},
      1));

  // One tick before the horizon: fresh everywhere.
  EXPECT_FALSE(service.lookup(addr("10.0.0.7"), 99.999).stale);
  EXPECT_TRUE(service.stale_prefixes(99.999).empty());
  EXPECT_EQ(service.remeasure_queue().size(), 0u);

  // Exactly at the horizon: stale everywhere.
  const Answer at_horizon = service.lookup(addr("10.0.0.7"), 100.0);
  EXPECT_TRUE(at_horizon.stale);
  EXPECT_EQ(service.remeasure_queue().size(), 1u);
  const auto scan = service.stale_prefixes(100.0);
  ASSERT_EQ(scan.size(), 1u);
  EXPECT_EQ(scan[0], *net::Prefix::parse("10.0.0.0/24"));

  // The queue and the scan hand the same prefix to the campaign planner.
  const auto queued = service.remeasure_queue().drain();
  ASSERT_EQ(queued.size(), 1u);
  EXPECT_EQ(queued[0], scan[0]);
}

TEST(RemeasureQueue, DedupsUntilDrained) {
  RemeasureQueue q;
  const auto p1 = *net::Prefix::parse("10.0.0.0/24");
  const auto p2 = *net::Prefix::parse("10.0.1.0/24");
  EXPECT_TRUE(q.push(p1));
  EXPECT_FALSE(q.push(p1));  // already pending
  EXPECT_TRUE(q.push(p2));
  EXPECT_EQ(q.size(), 2u);

  const auto drained = q.drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], p1);
  EXPECT_EQ(drained[1], p2);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.push(p1));  // drain resets the pending set
}

TEST(RemeasureQueue, DropsAtCapacityAndCountsTheDrops) {
  RemeasureQueue q(/*max_pending=*/2);
  EXPECT_EQ(q.capacity(), 2u);
  const auto p1 = *net::Prefix::parse("10.0.0.0/24");
  const auto p2 = *net::Prefix::parse("10.0.1.0/24");
  const auto p3 = *net::Prefix::parse("10.0.2.0/24");
  EXPECT_TRUE(q.push(p1));
  EXPECT_TRUE(q.push(p2));
  EXPECT_FALSE(q.push(p3));  // at capacity: shed, not queued
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.size(), 2u);
  // A re-push of an already-pending prefix is a dedup, not a drop.
  EXPECT_FALSE(q.push(p1));
  EXPECT_EQ(q.dropped(), 1u);

  // Draining frees capacity; the shed prefix simply re-queues on its next
  // stale hit.
  EXPECT_EQ(q.drain().size(), 2u);
  EXPECT_TRUE(q.push(p3));
  EXPECT_EQ(q.dropped(), 1u);  // cumulative, not reset by drain
}

TEST(RemeasureQueue, DefaultCapacityComesFromEnv) {
  RemeasureQueue q;
  EXPECT_EQ(q.capacity(), RemeasureQueue::kDefaultCapacity);
  EXPECT_EQ(RemeasureQueue::kDefaultCapacity, 65536u);
  EXPECT_EQ(q.dropped(), 0u);
}

// The TSan target: many readers hammering lookups while a writer hot-swaps
// versions. Each version encodes its number in the entry latitude, so a
// torn or mixed read would show up as version/latitude disagreement.
TEST(GeoService, HotSwapUnderConcurrentReaders) {
  auto v1 = make_snapshot({make_record("10.0.0.0/24", 1.0, 0.0f, 0.0)}, 1);
  auto v2 = make_snapshot({make_record("10.0.0.0/24", 2.0, 0.0f, 0.0)}, 2);
  GeoService service(v1);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  constexpr int kReaders = 4;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      const net::IPv4Address a = addr("10.0.0.5");
      while (!stop.load(std::memory_order_relaxed)) {
        const Answer ans = service.lookup(a, 0.0);
        if (!ans.found ||
            ans.location.lat_deg != static_cast<double>(ans.dataset_version)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (int i = 0; i < 2000; ++i) {
    service.publish(i % 2 == 0 ? v2 : v1);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(service.stats().swaps, 2000u);
}

// End-to-end on the shared small scenario: compile a snapshot, serve it,
// let it go stale, plan + run the re-measurement campaign, refresh, diff.
TEST(GeoServiceEndToEnd, StalenessLoopRefreshesEntries) {
  const auto& s = geoloc::testing::small_scenario();

  publish::CompileOptions opts;
  opts.measured_at_s = 0.0;
  opts.ok_ttl_s = 100.0f;        // everything goes stale quickly
  opts.degraded_ttl_s = 100.0f;
  opts.fallback_ttl_s = 100.0f;
  const auto records = compile_entries(s, opts);
  ASSERT_GT(records.size(), 0u);
  EXPECT_EQ(records.size(), s.targets().size());

  auto v1 = make_snapshot(records, 1);
  GeoService service(v1);

  // Quality gate: the published snapshot must actually geolocate.
  const auto quality = eval::evaluate_snapshot(s, *v1);
  EXPECT_EQ(quality.covered, s.targets().size());
  EXPECT_LT(quality.median_error_km, 100.0);

  // Everything is stale at t=1000s; take a few prefixes through the loop.
  auto stale = service.stale_prefixes(/*now_s=*/1000.0);
  ASSERT_GT(stale.size(), 0u);
  stale.resize(std::min<std::size_t>(stale.size(), 5));

  const auto requests =
      plan_remeasurement(s, stale, /*vps_per_target=*/30, /*packets=*/3);
  ASSERT_GT(requests.size(), 0u);

  atlas::Platform platform(s.world(), s.latency(), {});
  atlas::CampaignExecutor executor(platform);
  const auto report = executor.execute(requests);
  EXPECT_GT(report.results.size(), 0u);

  publish::CompileOptions refresh_opts;
  refresh_opts.measured_at_s = 1000.0;
  refresh_opts.ok_ttl_s = 100.0f;
  const auto refreshed = refresh_entries(s, report, refresh_opts);
  ASSERT_GT(refreshed.size(), 0u);

  // v2 = v1 records overlaid with the refreshed ones (builder: last wins).
  publish::SnapshotBuilder b;
  b.add(records);
  b.add(refreshed);
  std::string error;
  auto v2 = publish::Snapshot::from_bytes(
      b.build(publish::SnapshotMeta{.dataset_version = 2,
                                    .created_at_s = 1000.0,
                                    .source = "refresh"}),
      &error);
  ASSERT_NE(v2, nullptr) << error;
  service.publish(v2);

  const auto diff = publish::diff_snapshots(*v1, *v2);
  EXPECT_EQ(diff.from_entries, v1->size());
  EXPECT_EQ(diff.to_entries, v2->size());
  EXPECT_EQ(diff.added, 0u);
  EXPECT_EQ(diff.removed, 0u);
  EXPECT_GE(diff.refreshed, refreshed.size());

  // Served answers now come from v2.
  const auto& world = s.world();
  const Answer a =
      service.lookup(world.host(s.targets().front()).addr, /*now_s=*/1000.0);
  EXPECT_TRUE(a.found);
  EXPECT_EQ(a.dataset_version, 2u);
}

}  // namespace
}  // namespace geoloc::serve
