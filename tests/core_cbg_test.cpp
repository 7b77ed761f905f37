#include "core/cbg.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "geo/geodesy.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace geoloc::core {
namespace {

constexpr geo::GeoPoint kParis{48.8566, 2.3522};
constexpr geo::GeoPoint kLyon{45.7640, 4.8357};
constexpr geo::GeoPoint kBerlin{52.5200, 13.4050};

/// SOI-safe synthetic observation: the RTT a VP at `vp` would plausibly
/// measure toward `truth`.
VpObservation observe(const geo::GeoPoint& vp, const geo::GeoPoint& truth,
                      double inflation = 1.2, double extra_ms = 0.5) {
  const double d = geo::distance_km(vp, truth);
  return {vp, geo::distance_to_min_rtt_ms(d) * inflation + extra_ms};
}

TEST(ConstraintDisks, RadiusFollowsSpeed) {
  const VpObservation o{kParis, 10.0};
  const auto disks =
      constraint_disks({&o, 1}, geo::kSoiTwoThirdsKmPerMs, 0);
  ASSERT_EQ(disks.size(), 1u);
  EXPECT_NEAR(disks[0].radius_km, 10.0 / 2.0 * geo::kSoiTwoThirdsKmPerMs,
              1e-9);
}

TEST(ConstraintDisks, BudgetKeepsSmallest) {
  std::vector<VpObservation> obs;
  for (int i = 0; i < 50; ++i) {
    obs.push_back({kParis, 100.0 - i});  // decreasing RTTs
  }
  const auto disks = constraint_disks(obs, geo::kSoiTwoThirdsKmPerMs, 8);
  ASSERT_EQ(disks.size(), 8u);
  for (const auto& d : disks) {
    EXPECT_LE(d.radius_km,
              geo::rtt_to_max_distance_km(58.0, geo::kSoiTwoThirdsKmPerMs));
  }
}

TEST(Cbg, EmptyObservationsFail) {
  EXPECT_FALSE(cbg_geolocate({}).ok);
}

TEST(Cbg, CountsEveryCall) {
  obs::Counter& calls = obs::Registry::instance().counter("core.cbg_calls");
  const std::uint64_t before = calls.value();
  (void)cbg_geolocate({});
  const VpObservation o = observe(kParis, kLyon);
  (void)cbg_geolocate({&o, 1});
  EXPECT_EQ(calls.value() - before, 2u);
}

TEST(Cbg, SingleVpEstimatesAtTheVp) {
  const VpObservation o = observe(kParis, kLyon);
  const CbgResult r = cbg_geolocate({&o, 1});
  ASSERT_TRUE(r.ok);
  EXPECT_LT(geo::distance_km(r.estimate, kParis), 20.0);
}

TEST(Cbg, TriangulationBeatsSingleVp) {
  const geo::GeoPoint truth{47.5, 5.0};  // between the three cities
  const std::vector<VpObservation> one{observe(kParis, truth)};
  const std::vector<VpObservation> three{
      observe(kParis, truth), observe(kLyon, truth), observe(kBerlin, truth)};
  const CbgResult r1 = cbg_geolocate(one);
  const CbgResult r3 = cbg_geolocate(three);
  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r3.ok);
  EXPECT_LT(geo::distance_km(r3.estimate, truth),
            geo::distance_km(r1.estimate, truth));
}

TEST(Cbg, RegionContainsTruthForSoundObservations) {
  const geo::GeoPoint truth{47.5, 5.0};
  const std::vector<VpObservation> obs{
      observe(kParis, truth), observe(kLyon, truth), observe(kBerlin, truth)};
  const CbgResult r = cbg_geolocate(obs);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(geo::region_contains(r.disks, truth));
}

TEST(Cbg, FallbackSpeedRescuesEmptyIntersection) {
  // At 4/9 c these honest 2/3-c observations may produce disjoint disks;
  // craft RTTs right at the 2/3-c bound so 4/9-c disks cannot reach.
  const geo::GeoPoint truth = geo::midpoint(kParis, kBerlin);
  std::vector<VpObservation> obs;
  for (const auto& vp : {kParis, kBerlin}) {
    const double d = geo::distance_km(vp, truth);
    obs.push_back({vp, geo::distance_to_min_rtt_ms(d) * 1.01});
  }
  CbgConfig strict;
  strict.soi_km_per_ms = geo::kSoiFourNinthsKmPerMs;
  const CbgResult no_fallback = cbg_geolocate(obs, strict);
  EXPECT_FALSE(no_fallback.ok);

  CbgConfig with_fallback = strict;
  with_fallback.fallback_soi_km_per_ms = geo::kSoiTwoThirdsKmPerMs;
  const CbgResult rescued = cbg_geolocate(obs, with_fallback);
  ASSERT_TRUE(rescued.ok);
  EXPECT_TRUE(rescued.used_fallback_soi);
  EXPECT_LT(geo::distance_km(rescued.estimate, truth), 200.0);
}

TEST(Cbg, TighterObservationsShrinkRegion) {
  const geo::GeoPoint truth{47.5, 5.0};
  std::vector<VpObservation> loose{observe(kParis, truth, 1.8, 5.0),
                                   observe(kLyon, truth, 1.8, 5.0)};
  std::vector<VpObservation> tight{observe(kParis, truth, 1.05, 0.2),
                                   observe(kLyon, truth, 1.05, 0.2)};
  const CbgResult rl = cbg_geolocate(loose);
  const CbgResult rt = cbg_geolocate(tight);
  ASSERT_TRUE(rl.ok);
  ASSERT_TRUE(rt.ok);
  EXPECT_LT(rt.region.area_km2, rl.region.area_km2);
}

// One test per degradation tier: the verdict tells callers running under
// platform weather how much to trust a fix built from whatever
// measurements survived.
TEST(CbgDegradation, FullConstraintsVerdictOk) {
  const geo::GeoPoint truth{47.5, 5.0};
  const std::vector<VpObservation> obs{
      observe(kParis, truth), observe(kLyon, truth), observe(kBerlin, truth)};
  const CbgResult r = cbg_geolocate(obs);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.verdict, CbgVerdict::Ok);
  EXPECT_EQ(r.surviving_constraints, 3u);
  // No widening: the confidence radius is the region's equivalent circle.
  EXPECT_NEAR(r.confidence_radius_km,
              std::sqrt(r.region.area_km2 / geo::kPi), 1e-6);
  EXPECT_GT(r.confidence_radius_km, 0.0);
}

TEST(CbgDegradation, StarvedConstraintsVerdictDegradedWithWidenedRadius) {
  const geo::GeoPoint truth{47.5, 5.0};
  const std::vector<VpObservation> two{observe(kParis, truth),
                                       observe(kLyon, truth)};
  const CbgResult r2 = cbg_geolocate(two);
  ASSERT_TRUE(r2.ok);  // still produces an estimate...
  EXPECT_EQ(r2.verdict, CbgVerdict::Degraded);  // ...but flags it
  EXPECT_EQ(r2.surviving_constraints, 2u);
  const double equivalent = std::sqrt(r2.region.area_km2 / geo::kPi);
  EXPECT_NEAR(r2.confidence_radius_km, equivalent * 2.0, 1e-6);  // 1 missing

  const std::vector<VpObservation> one{observe(kParis, truth)};
  const CbgResult r1 = cbg_geolocate(one);
  ASSERT_TRUE(r1.ok);
  EXPECT_EQ(r1.verdict, CbgVerdict::Degraded);
  // Two constraints missing widens further than one.
  EXPECT_NEAR(r1.confidence_radius_km,
              std::sqrt(r1.region.area_km2 / geo::kPi) * 3.0, 1e-6);
}

TEST(CbgDegradation, NoObservationsVerdictUnlocatable) {
  const CbgResult r = cbg_geolocate({});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.verdict, CbgVerdict::Unlocatable);
  EXPECT_EQ(r.surviving_constraints, 0u);
  EXPECT_DOUBLE_EQ(r.confidence_radius_km, 0.0);
}

TEST(CbgDegradation, EmptyIntersectionVerdictUnlocatable) {
  // The disjoint-disk construction from the fallback test, without the
  // rescue speed: no region, so no verdict better than Unlocatable.
  const geo::GeoPoint truth = geo::midpoint(kParis, kBerlin);
  std::vector<VpObservation> obs;
  for (const auto& vp : {kParis, kBerlin}) {
    const double d = geo::distance_km(vp, truth);
    obs.push_back({vp, geo::distance_to_min_rtt_ms(d) * 1.01});
  }
  CbgConfig strict;
  strict.soi_km_per_ms = geo::kSoiFourNinthsKmPerMs;
  const CbgResult r = cbg_geolocate(obs, strict);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.verdict, CbgVerdict::Unlocatable);
}

TEST(CbgDegradation, VerdictNamesRoundTrip) {
  EXPECT_EQ(to_string(CbgVerdict::Ok), "ok");
  EXPECT_EQ(to_string(CbgVerdict::Degraded), "degraded");
  EXPECT_EQ(to_string(CbgVerdict::Unlocatable), "unlocatable");
}

// Property sweep: randomized SOI-safe observation sets always produce a
// region that contains the truth, with the estimate bounded by the tightest
// constraint.
class CbgProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CbgProperty, EstimateBoundedByTightestConstraint) {
  auto gen = util::Pcg32{GetParam()};
  const geo::GeoPoint truth{gen.uniform(-55.0, 55.0),
                            gen.uniform(-170.0, 170.0)};
  std::vector<VpObservation> obs;
  double min_radius = 1e12;
  const int n = 2 + static_cast<int>(gen.bounded(12));
  for (int i = 0; i < n; ++i) {
    const geo::GeoPoint vp = geo::destination(
        truth, gen.uniform(0.0, 360.0), gen.uniform(1.0, 3'000.0));
    const VpObservation o =
        observe(vp, truth, gen.uniform(1.03, 1.6), gen.uniform(0.1, 4.0));
    min_radius = std::min(
        min_radius,
        geo::rtt_to_max_distance_km(o.min_rtt_ms, geo::kSoiTwoThirdsKmPerMs));
    obs.push_back(o);
  }
  const CbgResult r = cbg_geolocate(obs);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(geo::region_contains(r.disks, truth));
  EXPECT_LE(geo::distance_km(r.estimate, truth), 2.0 * min_radius + 1.0);
}

INSTANTIATE_TEST_SUITE_P(RandomObservationSets, CbgProperty,
                         ::testing::Range<std::uint64_t>(100, 124));

}  // namespace
}  // namespace geoloc::core
