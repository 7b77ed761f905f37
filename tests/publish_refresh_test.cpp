// publish::refresh_entries solves its targets' CBG on the deterministic
// pool and drops Unlocatable ones afterwards, in order. The records must
// equal the serial oracle's (tests/oracles/refresh_entries_reference.h)
// field for field and in the same order, at 1 and at 8 workers, on
// campaigns whose weather leaves some targets unlocatable mid-list.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "atlas/executor.h"
#include "geo/constants.h"
#include "oracles/refresh_entries_reference.h"
#include "publish/compile.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "util/parallel.h"

namespace geoloc::publish {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { util::set_thread_count(0); }
};

void expect_records_equal(const std::vector<Record>& want,
                          const std::vector<Record>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(want[i].prefix, got[i].prefix);
    EXPECT_EQ(want[i].location.lat_deg, got[i].location.lat_deg);
    EXPECT_EQ(want[i].location.lon_deg, got[i].location.lon_deg);
    EXPECT_EQ(want[i].method, got[i].method);
    EXPECT_EQ(want[i].tier, got[i].tier);
    EXPECT_EQ(want[i].confidence_radius_km, got[i].confidence_radius_km);
    EXPECT_EQ(want[i].ttl_s, got[i].ttl_s);
    EXPECT_EQ(want[i].measured_at_s, got[i].measured_at_s);
    EXPECT_EQ(want[i].provenance, got[i].provenance);
  }
}

TEST(PublishRefresh, PooledRefreshMatchesSerialOracleAcrossSeedsAndWeather) {
  ThreadGuard guard;
  std::size_t dropped_mid_list = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    auto cfg = scenario::small_config(seed);
    cfg.cache_dir = "";
    cfg.build_web = false;
    const scenario::Scenario s(cfg);
    for (const atlas::FaultConfig& weather :
         {scenario::drizzle_weather(seed), scenario::stormy_weather(seed)}) {
      atlas::Platform platform(s.world(), s.latency());
      const atlas::FaultModel faults(s.world(), weather);
      platform.set_fault_model(&faults);
      atlas::CampaignExecutor executor(platform);
      const atlas::CampaignReport report =
          executor.execute_full_mesh(s.vps(), s.targets(), 3);

      // The production 2/3 c, and the street-level paper's 4/9 c with no
      // fallback, whose tighter disks leave some targets with an empty
      // intersection (Unlocatable) in the middle of the list.
      CompileOptions opts;
      opts.measured_at_s = 86'400.0 * static_cast<double>(seed);
      std::vector<Record> want;
      for (const double soi :
           {geo::kSoiTwoThirdsKmPerMs, geo::kSoiFourNinthsKmPerMs}) {
        opts.cbg.soi_km_per_ms = soi;
        want = oracle::refresh_entries_reference(s, report, opts);
        for (const unsigned threads : {1u, 8u}) {
          SCOPED_TRACE(testing::Message() << "seed " << seed << ", soi "
                                          << soi << ", " << threads
                                          << " thread(s)");
          util::set_thread_count(threads);
          expect_records_equal(want, refresh_entries(s, report, opts));
        }
        util::set_thread_count(0);
      }

      // Walk the 4/9 c run's answered targets in the refresh's (target) order against
      // the records: a target with no record followed by one that has a
      // record is a drop the in-order compaction had to skip over.
      std::set<sim::HostId> answered;
      for (const auto& m : report.results) {
        if (m.answered()) answered.insert(m.target);
      }
      std::size_t next = 0;
      for (const sim::HostId t : answered) {
        if (next < want.size() &&
            want[next].prefix == net::slash24_of(s.world().host(t).addr)) {
          ++next;
        } else if (next < want.size()) {
          ++dropped_mid_list;
        }
      }
    }
  }
  EXPECT_GT(dropped_mid_list, 0u);
}

}  // namespace
}  // namespace geoloc::publish
