// The zero-perturbation contract (DESIGN.md §10): turning the obs layer's
// tracing on or off, at any thread count, must not move a single byte of
// any experiment output. Metrics writers only touch registry-owned
// atomics and spans only record wall durations, so a CampaignReport, an
// eval sweep, the CBG solves, a streaming campaign and a published
// snapshot must be bit-identical across {trace off, trace on} x
// {1 thread, 8 threads}.
//
// Fresh scenarios (disk cache disabled, no web ecosystem) per run, same
// as parallel_determinism_test.cpp, so nothing leaks between settings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "atlas/executor.h"
#include "core/cbg.h"
#include "core/streaming_campaign.h"
#include "eval/experiments.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "publish/compile.h"
#include "publish/snapshot.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "scenario/tile_source.h"
#include "util/parallel.h"

namespace geoloc {
namespace {

scenario::ScenarioConfig fresh_config() {
  auto cfg = scenario::small_config();
  cfg.cache_dir = "";     // never mix results through the disk cache
  cfg.build_web = false;  // the web ecosystem plays no part here
  return cfg;
}

/// Run fn at `threads` workers with tracing forced to `trace`, restoring
/// both to their defaults (pool default size, tracing off) afterwards.
template <typename Fn>
auto with_obs(bool trace, unsigned threads, Fn&& fn) {
  obs::set_trace_enabled(trace);
  util::set_thread_count(threads);
  auto result = fn();
  util::set_thread_count(0);
  obs::set_trace_enabled(false);
  (void)obs::flush_spans();  // drop whatever the run recorded
  return result;
}

void expect_reports_equal(const atlas::CampaignReport& a,
                          const atlas::CampaignReport& b) {
  EXPECT_EQ(a.requested, b.requested);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.abandoned, b.abandoned);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.rejections, b.rejections);
  EXPECT_EQ(a.no_replies, b.no_replies);
  EXPECT_EQ(a.outage_deferrals, b.outage_deferrals);
  EXPECT_EQ(a.vp_reassignments, b.vp_reassignments);
  EXPECT_EQ(a.round_failures, b.round_failures);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.credits_spent, b.credits_spent);
  EXPECT_EQ(a.credits_wasted, b.credits_wasted);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.backoff_wait_s, b.backoff_wait_s);
  ASSERT_EQ(a.results.size(), b.results.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    if (a.results[i].vp != b.results[i].vp ||
        a.results[i].target != b.results[i].target ||
        a.results[i].min_rtt_ms != b.results[i].min_rtt_ms ||
        a.results[i].packets_received != b.results[i].packets_received) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(ObsDeterminismTest, StormyCampaignReportInvariantUnderTracing) {
  const scenario::Scenario s(fresh_config());
  const std::size_t vp_count = std::min<std::size_t>(s.vps().size(), 60);
  const std::span<const sim::HostId> vps(s.vps().data(), vp_count);
  const std::span<const sim::HostId> spares(s.vps().data() + vp_count,
                                            s.vps().size() - vp_count);
  const auto run = [&](bool trace, unsigned threads) {
    return with_obs(trace, threads, [&] {
      atlas::Platform platform(s.world(), s.latency());
      const atlas::FaultModel faults(s.world(), scenario::stormy_weather());
      platform.set_fault_model(&faults);
      atlas::CampaignExecutor executor(platform);
      return executor.execute_full_mesh(vps, s.targets(), 3, spares);
    });
  };
  const atlas::CampaignReport baseline = run(/*trace=*/false, /*threads=*/1);
  expect_reports_equal(baseline, run(/*trace=*/true, /*threads=*/1));
  expect_reports_equal(baseline, run(/*trace=*/true, /*threads=*/8));
}

TEST(ObsDeterminismTest, EvalSweepInvariantUnderTracing) {
  const scenario::Scenario s(fresh_config());
  (void)s.target_rtts();  // shared pre-materialisation, as in the eval tests
  (void)s.representative_rtts();
  const int sizes[] = {50, 150};
  const auto run = [&](bool trace, unsigned threads) {
    return with_obs(trace, threads, [&] {
      return eval::run_subset_size_sweep(s, sizes, /*trials=*/3);
    });
  };
  const auto baseline = run(/*trace=*/false, /*threads=*/1);
  for (const auto& [trace, threads] :
       {std::pair{true, 1u}, std::pair{true, 8u}, std::pair{false, 8u}}) {
    const auto other = run(trace, threads);
    ASSERT_EQ(baseline.size(), other.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(baseline[i].subset_size, other[i].subset_size);
      EXPECT_EQ(baseline[i].trial_median_errors_km,
                other[i].trial_median_errors_km);
    }
  }
}

TEST(ObsDeterminismTest, SnapshotBytesInvariantUnderTracing) {
  // Full pipeline per setting: fresh scenario, matrix materialisation,
  // record compilation, serialization — every instrumented layer runs
  // under the setting being tested.
  const auto build_bytes = [](bool trace, unsigned threads) {
    return with_obs(trace, threads, [] {
      const scenario::Scenario s(fresh_config());
      publish::SnapshotBuilder builder;
      builder.add(publish::compile_entries(s));
      return builder.build(publish::SnapshotMeta{
          .dataset_version = 1, .source = "obs determinism test"});
    });
  };
  const std::vector<std::byte> baseline =
      build_bytes(/*trace=*/false, /*threads=*/1);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(baseline, build_bytes(/*trace=*/true, /*threads=*/1));
  EXPECT_EQ(baseline, build_bytes(/*trace=*/true, /*threads=*/8));
  EXPECT_EQ(baseline, build_bytes(/*trace=*/false, /*threads=*/8));
}

TEST(ObsDeterminismTest, CbgSolvesInvariantUnderTracing) {
  // Every target solved from its full column of VP observations, fanned
  // out on the pool (as refresh_entries does): the CBG counters tick on
  // every worker, the results must not move.
  const scenario::Scenario s(fresh_config());
  const scenario::RttMatrix& rtts = s.target_rtts();
  std::vector<std::vector<core::VpObservation>> columns(s.targets().size());
  for (std::size_t col = 0; col < columns.size(); ++col) {
    for (std::size_t row = 0; row < s.vps().size(); ++row) {
      const float rtt = rtts.at(row, col);
      if (scenario::RttMatrix::is_missing(rtt)) continue;
      columns[col].push_back(core::VpObservation{
          s.world().host(s.vps()[row]).reported_location, rtt});
    }
  }
  const auto run = [&](bool trace, unsigned threads) {
    return with_obs(trace, threads, [&] {
      return util::parallel_map<core::CbgResult>(
          columns.size(),
          [&](std::size_t col) { return core::cbg_geolocate(columns[col]); });
    });
  };
  const auto baseline = run(/*trace=*/false, /*threads=*/1);
  for (const auto& [trace, threads] :
       {std::pair{true, 1u}, std::pair{true, 8u}, std::pair{false, 8u}}) {
    const auto other = run(trace, threads);
    ASSERT_EQ(baseline.size(), other.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(baseline[i].verdict, other[i].verdict);
      EXPECT_EQ(baseline[i].estimate, other[i].estimate);
      EXPECT_EQ(baseline[i].confidence_radius_km,
                other[i].confidence_radius_km);
      EXPECT_EQ(baseline[i].region.radius_km, other[i].region.radius_km);
      EXPECT_EQ(baseline[i].region.area_km2, other[i].region.area_km2);
      EXPECT_EQ(baseline[i].region.samples, other[i].region.samples);
    }
  }
}

TEST(ObsDeterminismTest, StreamingCampaignInvariantUnderTracing) {
  const scenario::Scenario s(fresh_config());
  const auto run = [&](bool trace, unsigned threads) {
    return with_obs(trace, threads, [&] {
      const scenario::TileShape shape{16, 64};
      scenario::RttTileSource reps =
          scenario::RttTileSource::for_representatives(s, shape);
      scenario::RttTileSource targets =
          scenario::RttTileSource::for_targets(s, shape);
      return core::run_streaming_campaign(reps, targets);
    });
  };
  const core::StreamingCampaignOutcome baseline =
      run(/*trace=*/false, /*threads=*/1);
  ASSERT_GT(baseline.located, 0u);
  // The bounded sweep synthesises some rep cells and prunes others.
  ASSERT_GT(baseline.rep_stats.synthesised_cells, 0u);
  ASSERT_LT(baseline.rep_stats.synthesised_cells, baseline.rep_cells);
  for (const auto& [trace, threads] :
       {std::pair{true, 1u}, std::pair{true, 8u}, std::pair{false, 8u}}) {
    const core::StreamingCampaignOutcome other = run(trace, threads);
    EXPECT_EQ(baseline.targets, other.targets);
    EXPECT_EQ(baseline.located, other.located);
    EXPECT_EQ(baseline.failed, other.failed);
    EXPECT_EQ(baseline.errors_km, other.errors_km);
    EXPECT_EQ(baseline.rep_cells, other.rep_cells);
    EXPECT_EQ(baseline.target_cells, other.target_cells);
    EXPECT_EQ(baseline.rep_stats.synthesised_cells,
              other.rep_stats.synthesised_cells);
  }
}

}  // namespace
}  // namespace geoloc
