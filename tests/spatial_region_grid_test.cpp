// Byte-identity of the filtered CBG region kernel.
//
// intersect_disks tests each polar-grid point by dot product against every
// constraint and runs the exact haversine (Disk::contains) only for points
// inside a 1e-6 rad band around some constraint's boundary; the oracle
// (tests/oracles/intersect_disks_reference.h) builds every point with
// destination() and tests every constraint exactly. The band is far wider
// than the filter's rounding, so the two must agree bit-for-bit on every
// Region field — including the exact feasible sample list and the
// floating-point centroid. The boundary battery puts constraint edges
// exactly on grid points (and one ulp either side), where a missing band
// or a skipped exact test would flip a sample.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <vector>

#include "geo/constants.h"
#include "geo/geodesy.h"
#include "geo/region.h"
#include "obs/metrics.h"
#include "oracles/intersect_disks_reference.h"

namespace geoloc::geo {
namespace {

std::mt19937 rng(2024);

GeoPoint random_point() {
  std::uniform_real_distribution<double> lat(-85.0, 85.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  return GeoPoint{lat(rng), lon(rng)};
}

/// Bitwise equality: NaN-free doubles compared with ==, samples in order.
void expect_identical(const Region& a, const Region& b) {
  ASSERT_EQ(a.empty, b.empty);
  EXPECT_EQ(a.centroid.lat_deg, b.centroid.lat_deg);
  EXPECT_EQ(a.centroid.lon_deg, b.centroid.lon_deg);
  EXPECT_EQ(a.radius_km, b.radius_km);
  EXPECT_EQ(a.area_km2, b.area_km2);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_EQ(a.samples[i].lat_deg, b.samples[i].lat_deg);
    EXPECT_EQ(a.samples[i].lon_deg, b.samples[i].lon_deg);
  }
}

void expect_kernel_matches_reference(std::span<const Disk> disks,
                                     const RegionOptions& options = {}) {
  expect_identical(intersect_disks(disks, options),
                   oracle::intersect_disks_reference(disks, options));
}

TEST(SpatialRegionGrid, EmptyAndSingleDiskInputs) {
  expect_kernel_matches_reference({});
  const Disk one{GeoPoint{48.2, 16.37}, 350.0};
  expect_kernel_matches_reference(std::vector<Disk>{one});
}

TEST(SpatialRegionGrid, DisjointDisksBothReportEmpty) {
  const std::vector<Disk> disks{{GeoPoint{0.0, 0.0}, 100.0},
                                {GeoPoint{40.0, 90.0}, 100.0}};
  expect_kernel_matches_reference(disks);
  EXPECT_TRUE(intersect_disks(disks).empty);
}

TEST(SpatialRegionGrid, ThinLensIntersection) {
  // Two disks whose centres are almost radius-sum apart: the feasible
  // region is a thin lens, exercising the retry-at-double-resolution path.
  const GeoPoint a{10.0, 20.0};
  const GeoPoint b = destination(a, 90.0, 995.0);
  const std::vector<Disk> disks{{a, 500.0}, {b, 500.0}};
  expect_kernel_matches_reference(disks);
}

TEST(SpatialRegionGrid, PolarAndAntimeridianWindows) {
  {
    const std::vector<Disk> disks{{GeoPoint{88.5, 10.0}, 600.0},
                                  {GeoPoint{87.0, -120.0}, 700.0}};
    expect_kernel_matches_reference(disks);
  }
  {
    const std::vector<Disk> disks{{GeoPoint{-5.0, 179.6}, 400.0},
                                  {GeoPoint{-4.0, -179.2}, 450.0},
                                  {GeoPoint{-6.0, 178.0}, 900.0}};
    expect_kernel_matches_reference(disks);
  }
}

TEST(SpatialRegionGrid, RandomConstraintSetsAcrossSizes) {
  for (int trial = 0; trial < 60; ++trial) {
    const GeoPoint anchor = random_point();
    std::uniform_int_distribution<int> n_disks(2, 12);
    std::uniform_real_distribution<double> offset(0.0, 600.0);
    std::uniform_real_distribution<double> bearing(0.0, 360.0);
    std::uniform_real_distribution<double> radius(200.0, 2500.0);
    std::vector<Disk> disks;
    const int n = n_disks(rng);
    for (int i = 0; i < n; ++i) {
      disks.push_back(Disk{destination(anchor, bearing(rng), offset(rng)),
                           radius(rng)});
    }
    expect_kernel_matches_reference(disks);
  }
}

TEST(SpatialRegionGrid, NonDefaultResolutionOptions) {
  const std::vector<Disk> disks{{GeoPoint{51.5, -0.1}, 800.0},
                                {GeoPoint{48.9, 2.35}, 700.0},
                                {GeoPoint{52.5, 13.4}, 1200.0}};
  for (const RegionOptions options :
       {RegionOptions{4, 8, 0}, RegionOptions{20, 40, 2},
        RegionOptions{12, 24, 3}}) {
    expect_kernel_matches_reference(disks, options);
  }
}

TEST(SpatialRegionGrid, ManyConstraintsTightRegion) {
  // A CBG-like pile of 24 disks all containing a common point; the
  // filtered grid must keep the same survivors after prune_dominated.
  const GeoPoint truth{37.77, -122.42};
  std::uniform_real_distribution<double> vp_off(100.0, 4000.0);
  std::uniform_real_distribution<double> bearing(0.0, 360.0);
  std::uniform_real_distribution<double> slack(50.0, 800.0);
  std::vector<Disk> disks;
  for (int i = 0; i < 24; ++i) {
    const GeoPoint vp = destination(truth, bearing(rng), vp_off(rng));
    disks.push_back(Disk{vp, distance_km(vp, truth) + slack(rng)});
  }
  expect_kernel_matches_reference(disks);
  EXPECT_FALSE(intersect_disks(disks).empty);
}

// --- The hoisted grid -------------------------------------------------------

TEST(SpatialRegionGrid, HoistedGridPointsEqualDestinationBitwise) {
  // Over many windows — random, polar, pole-centred, anti-meridian, tiny
  // and near-hemisphere radii — every grid point the kernel builds from
  // its hoisted tables is destination()'s answer to the last bit.
  std::vector<Disk> windows;
  std::uniform_real_distribution<double> radius(1e-3, 19'000.0);
  for (int i = 0; i < 200; ++i) windows.push_back({random_point(), radius(rng)});
  for (const double lat : {90.0, -90.0, 89.9999, -89.99999, 0.0}) {
    for (const double lon : {-180.0, -179.9999, 0.0, 179.9999}) {
      windows.push_back({GeoPoint{lat, lon}, 750.0});
      windows.push_back({GeoPoint{lat, lon}, 1e-3});
    }
  }
  std::size_t points = 0;
  for (const Disk& w : windows) {
    for (const auto& [rings, sectors] :
         {std::pair{12, 24}, std::pair{24, 48}, std::pair{5, 7}}) {
      const PolarGrid grid(w, rings, sectors);
      for (int ri = 1; ri <= rings; ++ri) {
        for (int si = 0; si < sectors; ++si) {
          const double bearing = 360.0 * static_cast<double>(si) /
                                 static_cast<double>(sectors);
          const double r = w.radius_km * static_cast<double>(ri) /
                           static_cast<double>(rings);
          const GeoPoint want = destination(w.center, bearing, r);
          const GeoPoint got = grid.point(ri, si);
          ASSERT_EQ(want.lat_deg, got.lat_deg) << to_string(w.center);
          ASSERT_EQ(want.lon_deg, got.lon_deg) << to_string(w.center);
          ++points;
        }
      }
    }
  }
  EXPECT_GT(points, 100'000u);
}

TEST(SpatialRegionGrid, RotatedUnitVectorsTrackTheGridPoints) {
  // The filter's premise: away from the poles, the trig-free rotated
  // vector is within rounding of the exact grid point's unit vector —
  // orders of magnitude inside the 1e-6 rad band.
  double worst = 0.0;
  for (int i = 0; i < 300; ++i) {
    std::uniform_real_distribution<double> radius(1.0, 19'000.0);
    const PolarGrid grid(Disk{random_point(), radius(rng)}, 12, 24);
    for (int ri = 1; ri <= 12; ++ri) {
      for (int si = 0; si < 24; ++si) {
        const Vec3 a = grid.unit(ri, si);
        const Vec3 b = unit_vector(grid.point(ri, si));
        worst = std::max({worst, std::abs(a.x - b.x), std::abs(a.y - b.y),
                          std::abs(a.z - b.z)});
      }
    }
  }
  EXPECT_LT(worst, 1e-12);
}

TEST(SpatialRegionGrid, CountersTallyGridPointsAndBandPoints) {
  obs::Counter& points = obs::Registry::instance().counter("geo.region_points");
  obs::Counter& exact =
      obs::Registry::instance().counter("geo.region_exact_tests");
  // Two overlapping disks, one refinement: two 1 + 12 x 24 grids. The
  // level-0 outer ring lies on the seed's own edge, so its feasible
  // points are band points; no other point is within 6 m of an edge.
  const std::vector<Disk> disks{{GeoPoint{10.0, 10.0}, 400.0},
                                {GeoPoint{10.0, 13.0}, 600.0}};
  const std::uint64_t points0 = points.value(), exact0 = exact.value();
  ASSERT_FALSE(intersect_disks(disks).empty);
  EXPECT_EQ(points.value() - points0, 2u * (1 + 12 * 24));
  EXPECT_GT(exact.value() - exact0, 0u);
  EXPECT_LE(exact.value() - exact0, 24u);
  // Empty and disjoint inputs sample nothing.
  const std::uint64_t points1 = points.value();
  (void)intersect_disks({});
  (void)intersect_disks(std::vector<Disk>{{GeoPoint{0.0, 0.0}, 10.0},
                                          {GeoPoint{0.0, 90.0}, 10.0}});
  EXPECT_EQ(points.value(), points1);
}

// --- Boundary battery -------------------------------------------------------

/// A constraint centred at `center` whose radius is exactly the haversine
/// distance to `on`, nudged `ulps` representable doubles up or down.
Disk through(const GeoPoint& center, const GeoPoint& on, int ulps) {
  double r = distance_km(center, on);
  const double dir = ulps < 0 ? 0.0 : std::numeric_limits<double>::infinity();
  for (int i = 0; i < std::abs(ulps); ++i) r = std::nextafter(r, dir);
  return Disk{center, r};
}

TEST(SpatialRegionGrid, ConstraintEdgesThroughGridPointsAndOneUlpEitherSide) {
  // The seed disk fixes the level-0 grid; a second constraint is then
  // drawn so its boundary passes exactly through one grid point (and one
  // ulp inside/outside it). Only the exact test can tell those apart.
  std::size_t cases = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Disk seed{random_point(), 300.0 + 40.0 * trial};
    const PolarGrid grid(seed, 12, 24);
    std::uniform_int_distribution<int> ring(1, 12), sector(0, 23);
    std::uniform_real_distribution<double> bearing(0.0, 360.0);
    std::uniform_real_distribution<double> away(100.0, 3000.0);
    const GeoPoint on = grid.point(ring(rng), sector(rng));
    const GeoPoint vp = destination(on, bearing(rng), away(rng));
    for (const int ulps : {-1, 0, 1}) {
      const Disk edge = through(vp, on, ulps);
      if (edge.radius_km <= seed.radius_km) continue;  // keep seed first
      for (const RegionOptions options :
           {RegionOptions{12, 24, 0}, RegionOptions{12, 24, 1}}) {
        expect_kernel_matches_reference(std::vector<Disk>{seed, edge},
                                        options);
        ++cases;
      }
    }
  }
  EXPECT_GT(cases, 150u);
}

TEST(SpatialRegionGrid, ManyEdgesThroughOneGridPoint) {
  // Eight constraints from every direction all pass exactly through the
  // same grid point: it survives only if every exact test passes.
  for (int trial = 0; trial < 20; ++trial) {
    const Disk seed{random_point(), 500.0};
    const GeoPoint on = PolarGrid(seed, 12, 24).point(7, trial % 24);
    for (const int ulps : {-1, 0, 1}) {
      std::vector<Disk> disks{seed};
      for (int k = 0; k < 8; ++k) {
        const GeoPoint vp = destination(on, 45.0 * k + 3.0, 700.0 + 90.0 * k);
        disks.push_back(through(vp, on, ulps));
      }
      expect_kernel_matches_reference(disks, RegionOptions{12, 24, 0});
    }
  }
}

TEST(SpatialRegionGrid, SeedBoundaryRingSitsOnItsOwnEdge) {
  // The outer ring of the level-0 grid lies on the seed's own boundary;
  // a huge second constraint leaves the seed edge as the only decider.
  for (int trial = 0; trial < 30; ++trial) {
    const Disk seed{random_point(), 50.0 + 97.0 * trial};
    const Disk wide{seed.center, 25'000.0};
    expect_kernel_matches_reference(std::vector<Disk>{seed, wide},
                                    RegionOptions{12, 24, 0});
    expect_kernel_matches_reference(std::vector<Disk>{seed, wide});
  }
}

TEST(SpatialRegionGrid, RadiiBelowTheBandAtAndAbovePi) {
  const double band_km = 1e-6 * kEarthRadiusKm;
  const double pi_km = kPi * kEarthRadiusKm;
  const GeoPoint a{12.5, -45.25};
  for (const double r : {0.0, band_km / 4.0, band_km, 2.0 * band_km}) {
    // Tiny seeds: every constraint is all band or nothing.
    expect_kernel_matches_reference(
        std::vector<Disk>{{a, r}, {destination(a, 10.0, 1.0), 500.0}});
    expect_kernel_matches_reference(std::vector<Disk>{{a, r}});
  }
  for (const double r : {std::nextafter(pi_km, 0.0), pi_km,
                         std::nextafter(pi_km, 1e9), pi_km + band_km,
                         pi_km + 2.0 * band_km, 30'000.0}) {
    // Whole-sphere constraints next to an ordinary seed.
    expect_kernel_matches_reference(
        std::vector<Disk>{{a, 800.0}, {GeoPoint{-12.5, 134.75}, r}});
    expect_kernel_matches_reference(
        std::vector<Disk>{{a, 800.0}, {destination(a, 70.0, 300.0), r}});
  }
}

TEST(SpatialRegionGrid, AntipodalConstraintCentres) {
  // A constraint centred at the antipode of the seed has its boundary
  // where cos is flattest; radii put its edge across the seed window.
  for (int trial = 0; trial < 20; ++trial) {
    const GeoPoint a = random_point();
    const GeoPoint anti{-a.lat_deg, normalize_lon(a.lon_deg + 180.0)};
    const double pi_km = kPi * kEarthRadiusKm;
    const Disk seed{a, 600.0};
    const GeoPoint on = PolarGrid(seed, 12, 24).point(6, trial % 24);
    for (const int ulps : {-1, 0, 1}) {
      expect_kernel_matches_reference(
          std::vector<Disk>{seed, through(anti, on, ulps)});
    }
    expect_kernel_matches_reference(
        std::vector<Disk>{seed, {anti, pi_km - 300.0}});
    expect_kernel_matches_reference(
        std::vector<Disk>{seed, {anti, pi_km - 600.0}});
  }
}

TEST(SpatialRegionGrid, PoleCentredAndAntimeridianWindows) {
  for (const double lat : {90.0, -90.0, 89.99999, -89.9999}) {
    const GeoPoint pole{lat, 0.0};
    const Disk seed{pole, 400.0};
    const GeoPoint on = PolarGrid(seed, 12, 24).point(9, 5);
    for (const int ulps : {-1, 0, 1}) {
      const GeoPoint vp = destination(on, 200.0, 900.0);
      for (const RegionOptions options :
           {RegionOptions{12, 24, 0}, RegionOptions{}, RegionOptions{6, 10, 3}}) {
        expect_kernel_matches_reference(
            std::vector<Disk>{seed, through(vp, on, ulps)}, options);
      }
    }
  }
  for (const double lon : {-180.0, 179.99, 180.0 - 1e-12}) {
    const Disk seed{GeoPoint{-20.0, lon}, 350.0};
    const GeoPoint on = PolarGrid(seed, 12, 24).point(12, 6);
    for (const int ulps : {-1, 0, 1}) {
      expect_kernel_matches_reference(std::vector<Disk>{
          seed, through(GeoPoint{-21.0, -175.0}, on, ulps),
          {GeoPoint{-19.0, 178.5}, 800.0}});
    }
  }
}

TEST(SpatialRegionGrid, RefineLevelsResolutionsAndTheDoubleResolutionRetry) {
  // Refine levels 0-3 at several resolutions, with one constraint edge on
  // a grid point; then thin lenses that only the double-resolution retry
  // finds, with a third edge through the retry-grid point it found.
  const Disk seed{GeoPoint{45.0, 7.0}, 650.0};
  const GeoPoint on = PolarGrid(seed, 8, 16).point(5, 3);
  for (int levels = 0; levels <= 3; ++levels) {
    for (const auto& [rings, sectors] :
         {std::pair{8, 16}, std::pair{12, 24}, std::pair{3, 5}}) {
      for (const int ulps : {-1, 0, 1}) {
        const std::vector<Disk> disks{
            seed, through(GeoPoint{40.0, 15.0}, on, ulps),
            {GeoPoint{47.0, 3.0}, 900.0}};
        expect_kernel_matches_reference(disks,
                                        RegionOptions{rings, sectors, levels});
      }
    }
  }
  std::size_t retried = 0;
  for (int trial = 0; trial < 48; ++trial) {
    // A lens ~0.7 km deep on the seed's edge, along a bearing only the
    // retry grid samples (odd sectors of 48): the coarse grid misses it.
    const GeoPoint a = random_point();
    const double bearing = 7.5 + 15.0 * trial;
    const std::vector<Disk> lens{{a, 500.0},
                                 {destination(a, bearing, 999.5), 500.2}};
    const std::vector<GeoPoint> fine =
        oracle::feasible_samples_reference(lens[0], lens, 24, 48);
    if (fine.empty()) continue;  // the lens point rounded outside the seed
    ASSERT_TRUE(
        oracle::feasible_samples_reference(lens[0], lens, 12, 24).empty());
    ++retried;
    const RegionOptions options{12, 24, trial % 4};
    expect_kernel_matches_reference(lens, options);
    for (const int ulps : {-1, 0, 1}) {
      std::vector<Disk> disks = lens;
      disks.push_back(through(destination(fine.front(), 40.0 * trial, 1500.0),
                              fine.front(), ulps));
      expect_kernel_matches_reference(disks, options);
    }
  }
  EXPECT_GT(retried, 5u);
}

}  // namespace
}  // namespace geoloc::geo
