#include "core/street_level.h"

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "geo/geodesy.h"
#include "test_scenario.h"
#include "util/stats.h"

namespace geoloc::core {
namespace {

using geoloc::testing::small_scenario;

const StreetLevel& street() {
  static const StreetLevel s(small_scenario());
  return s;
}

TEST(StreetLevel, DefaultSpeedsAreTheStreetLevelPapers) {
  EXPECT_DOUBLE_EQ(street().config().tier1.soi_km_per_ms,
                   geo::kSoiFourNinthsKmPerMs);
  EXPECT_DOUBLE_EQ(street().config().tier1.fallback_soi_km_per_ms,
                   geo::kSoiTwoThirdsKmPerMs);
}

TEST(StreetLevel, ExplicitConfigIsRespected) {
  StreetLevelConfig cfg;
  cfg.tier1.soi_km_per_ms = geo::kSoiTwoThirdsKmPerMs;
  cfg.tier1.fallback_soi_km_per_ms = 1.0;
  const StreetLevel custom(small_scenario(), cfg);
  EXPECT_DOUBLE_EQ(custom.config().tier1.fallback_soi_km_per_ms, 1.0);
}

TEST(StreetLevel, GeolocatesWithBoundedError) {
  const auto& s = small_scenario();
  const StreetLevelResult r = street().geolocate(0);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.estimate.valid());
  EXPECT_LT(eval::error_km(s, 0, r.estimate), 3'000.0);
}

TEST(StreetLevel, CostsAreAccounted) {
  const StreetLevelResult r = street().geolocate(1);
  EXPECT_GT(r.elapsed_seconds, 0.0);
  EXPECT_GT(r.traceroutes, 0u);
  EXPECT_GT(r.tier2.geocode_queries + r.tier3.geocode_queries, 0u);
  EXPECT_GT(r.tier2.sample_points, 0u);
}

TEST(StreetLevel, Tier3UsesFinerSampling) {
  const auto& cfg = street().config();
  EXPECT_LT(cfg.tier3_ring_km, cfg.tier2_ring_km);
  EXPECT_GT(cfg.tier3_points_per_circle, cfg.tier2_points_per_circle);
}

TEST(StreetLevel, LandmarkMeasurementsAreConsistent) {
  for (std::size_t col : {0u, 2u, 4u}) {
    const StreetLevelResult r = street().geolocate(col);
    for (const auto* tier : {&r.tier2, &r.tier3}) {
      for (const LandmarkMeasurement& m : tier->landmarks) {
        EXPECT_LE(m.negative_pairs, m.pair_count);
        EXPECT_LE(m.vps_used, m.pair_count);
        if (m.usable) {
          EXPECT_GE(m.min_d1d2_ms, 0.0);
          EXPECT_GE(m.measured_distance_km, 0.0);
        }
        EXPECT_GE(m.geographic_distance_km, 0.0);
      }
    }
  }
}

TEST(StreetLevel, FinalEstimateIsAChosenLandmarkOrCbg) {
  const auto& s = small_scenario();
  const StreetLevelResult r = street().geolocate(3);
  ASSERT_TRUE(r.ok);
  if (r.fell_back_to_cbg) {
    EXPECT_EQ(r.estimate, r.tier1.estimate);
  } else {
    // The estimate must be one of the measured landmarks' claimed spots.
    bool found = false;
    for (const auto* tier : {&r.tier2, &r.tier3}) {
      for (const LandmarkMeasurement& m : tier->landmarks) {
        found |= m.claimed_location == r.estimate;
      }
    }
    EXPECT_TRUE(found);
  }
  (void)s;
}

TEST(StreetLevel, ChosenLandmarkHasSmallestUsableDelay) {
  const StreetLevelResult r = street().geolocate(5);
  if (r.fell_back_to_cbg || !r.ok) GTEST_SKIP();
  double chosen_delay = -1.0;
  double min_usable = 1e18;
  // tier 3 is preferred; fall back to tier 2 exactly like the pipeline.
  const auto* source = &r.tier3;
  bool any_usable_tier3 = false;
  for (const auto& m : r.tier3.landmarks) any_usable_tier3 |= m.usable;
  if (!any_usable_tier3) source = &r.tier2;
  for (const LandmarkMeasurement& m : source->landmarks) {
    if (!m.usable) continue;
    min_usable = std::min(min_usable, m.min_d1d2_ms);
    if (m.claimed_location == r.estimate) chosen_delay = m.min_d1d2_ms;
  }
  if (chosen_delay >= 0.0) {
    EXPECT_DOUBLE_EQ(chosen_delay, min_usable);
  }
}

TEST(StreetLevel, CbgBaselineIsReasonable) {
  const auto& s = small_scenario();
  std::vector<double> errors;
  for (std::size_t col = 0; col < s.targets().size(); ++col) {
    const CbgResult r = street().cbg_baseline(col);
    if (r.ok) errors.push_back(eval::error_km(s, col, r.estimate));
  }
  ASSERT_GT(errors.size(), s.targets().size() * 9 / 10);
  EXPECT_LT(util::median(errors), 200.0);
}

TEST(StreetLevel, OracleBeatsThePipeline) {
  // Figure 5a: the closest-landmark oracle lower-bounds the error.
  const auto& s = small_scenario();
  std::vector<double> street_err, oracle_err;
  for (std::size_t col = 0; col < 30; ++col) {
    const auto oracle = street().closest_landmark_oracle(col);
    if (!oracle) continue;
    const StreetLevelResult r = street().geolocate(col);
    if (!r.ok) continue;
    street_err.push_back(eval::error_km(s, col, r.estimate));
    oracle_err.push_back(eval::error_km(s, col, *oracle));
  }
  ASSERT_GT(oracle_err.size(), 10u);
  EXPECT_LT(util::median(oracle_err), util::median(street_err));
}

TEST(StreetLevel, OracleRadiusIsRespected) {
  const auto& s = small_scenario();
  for (std::size_t col = 0; col < 20; ++col) {
    const auto oracle = street().closest_landmark_oracle(col, 50.0);
    if (!oracle) continue;
    EXPECT_LE(eval::error_km(s, col, *oracle), 60.0);
  }
}

TEST(StreetLevel, DeterministicPerTarget) {
  const StreetLevelResult a = street().geolocate(7);
  const StreetLevelResult b = street().geolocate(7);
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.traceroutes, b.traceroutes);
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
}

}  // namespace
}  // namespace geoloc::core
