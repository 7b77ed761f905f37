// Property tests against brute-force reference implementations: the flat
// LPM versus a linear scan, the region engine versus Monte-Carlo
// membership, and geodesy invariants under random sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "geo/geodesy.h"
#include "geo/region.h"
#include "net/flat_lpm.h"
#include "oracles/lpm_scan_reference.h"
#include "util/rng.h"

namespace geoloc {
namespace {

// --------------------------------------------------------------------------
// FlatLpm vs a linear-scan reference.
class FlatLpmVsReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlatLpmVsReference, LongestPrefixMatchAgrees) {
  auto gen = util::Pcg32{GetParam()};
  std::vector<std::pair<net::Prefix, int>> entries;
  oracle::LpmScan<int> reference;

  for (int i = 0; i < 300; ++i) {
    const net::IPv4Address addr{gen()};
    const int len = 4 + static_cast<int>(gen.bounded(29));  // 4..32
    const net::Prefix p{addr, len};
    entries.emplace_back(p, i);
    reference.insert(p, i);
  }
  const auto lpm = net::FlatLpm<int>::build(entries);

  EXPECT_EQ(lpm.size(), reference.size());
  for (int i = 0; i < 1'000; ++i) {
    // Half the probes reuse inserted networks to guarantee hits.
    net::IPv4Address probe{gen()};
    if (gen.chance(0.5) && reference.size() > 0) {
      const auto& p = reference.entries()[gen.index(reference.size())].first;
      probe = net::IPv4Address{p.network().value() + gen.bounded(16)};
    }
    const auto* got = lpm.lookup(probe);
    const auto want = reference.lookup(probe);
    ASSERT_EQ(got != nullptr, want.has_value()) << probe.to_string();
    if (got) {
      EXPECT_EQ(got->prefix, want->first) << probe.to_string();
      EXPECT_EQ(got->value, want->second) << probe.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatLpmVsReference,
                         ::testing::Values(3, 7, 31, 127, 8191));

// --------------------------------------------------------------------------
// Region centroid vs Monte-Carlo membership: the centroid the sampler
// reports must itself satisfy every constraint, and the Monte-Carlo area
// estimate over the seed disk must agree with the sampler's within noise.
class RegionVsMonteCarlo : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegionVsMonteCarlo, AreaEstimatesAgree) {
  auto gen = util::Pcg32{GetParam()};
  const geo::GeoPoint truth{gen.uniform(-50.0, 50.0),
                            gen.uniform(-160.0, 160.0)};
  std::vector<geo::Disk> disks;
  for (int i = 0; i < 4; ++i) {
    const double d = gen.uniform(50.0, 800.0);
    const geo::GeoPoint vp =
        geo::destination(truth, gen.uniform(0.0, 360.0), d);
    disks.push_back(geo::Disk{vp, d * gen.uniform(1.1, 1.6) + 40.0});
  }

  const geo::Region region = geo::intersect_disks(disks);
  ASSERT_FALSE(region.empty);
  EXPECT_TRUE(geo::region_contains(disks, region.centroid));

  // Monte-Carlo estimate over the smallest (seed) disk.
  const auto pruned = geo::prune_dominated(disks);
  const geo::Disk& seed = pruned.front();
  const int n = 4'000;
  int inside = 0;
  for (int i = 0; i < n; ++i) {
    // Uniform over the disk: r ~ sqrt(u) * R.
    const double r = seed.radius_km * std::sqrt(gen.uniform());
    const geo::GeoPoint p =
        geo::destination(seed.center, gen.uniform(0.0, 360.0), r);
    inside += geo::region_contains(disks, p);
  }
  const double mc_area = geo::kPi * seed.radius_km * seed.radius_km *
                         static_cast<double>(inside) / n;
  // Two coarse estimators of the same area: agree within 25% + a floor.
  EXPECT_NEAR(region.area_km2, mc_area,
              0.25 * std::max(region.area_km2, mc_area) + 2'000.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegionVsMonteCarlo,
                         ::testing::Values(11, 22, 44, 88, 176));

// --------------------------------------------------------------------------
// Geodesy invariants under random sweeps.
class GeodesyInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeodesyInvariants, TriangleInequalityHolds) {
  auto gen = util::Pcg32{GetParam()};
  for (int i = 0; i < 200; ++i) {
    const geo::GeoPoint a{gen.uniform(-80.0, 80.0), gen.uniform(-179.0, 179.0)};
    const geo::GeoPoint b{gen.uniform(-80.0, 80.0), gen.uniform(-179.0, 179.0)};
    const geo::GeoPoint c{gen.uniform(-80.0, 80.0), gen.uniform(-179.0, 179.0)};
    EXPECT_LE(geo::distance_km(a, c),
              geo::distance_km(a, b) + geo::distance_km(b, c) + 1e-6);
  }
}

TEST_P(GeodesyInvariants, BearingPointsTowardDestination) {
  auto gen = util::Pcg32{GetParam() + 1000};
  for (int i = 0; i < 200; ++i) {
    const geo::GeoPoint a{gen.uniform(-70.0, 70.0), gen.uniform(-170.0, 170.0)};
    const geo::GeoPoint b{gen.uniform(-70.0, 70.0), gen.uniform(-170.0, 170.0)};
    const double d = geo::distance_km(a, b);
    if (d < 1.0 || d > 15'000.0) continue;
    // Travelling 10% of the distance along the initial bearing must close
    // the gap by roughly that amount.
    const geo::GeoPoint step =
        geo::destination(a, geo::initial_bearing_deg(a, b), d * 0.1);
    EXPECT_NEAR(geo::distance_km(step, b), d * 0.9, d * 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeodesyInvariants, ::testing::Values(5, 50));

}  // namespace
}  // namespace geoloc
