#include "spatial/covering.h"

#include <gtest/gtest.h>

#include <random>

#include "geo/geodesy.h"

namespace geoloc::spatial {
namespace {

std::mt19937 rng(7);

geo::GeoPoint random_point() {
  std::uniform_real_distribution<double> lat(-90.0, 90.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  return geo::GeoPoint{lat(rng), lon(rng)};
}

/// True when `p` lies in exactly one cell of the covering.
int cells_containing(const std::vector<CellId>& cover,
                     const geo::GeoPoint& p) {
  int n = 0;
  const std::uint64_t leaf = CellId::leaf_token(p);
  for (const CellId& cell : cover) {
    if (leaf >= cell.token_lo() && leaf < cell.token_hi()) ++n;
  }
  return n;
}

void expect_sorted_disjoint(const std::vector<CellId>& cover) {
  for (std::size_t i = 1; i < cover.size(); ++i) {
    EXPECT_LE(cover[i - 1].token_hi(), cover[i].token_lo())
        << cover[i - 1].to_string() << " vs " << cover[i].to_string();
  }
}

TEST(SpatialCovering, DiskCoveringIsASupersetOfTheDisk) {
  for (int trial = 0; trial < 40; ++trial) {
    const geo::Disk disk{random_point(),
                         std::uniform_real_distribution<double>(1.0, 2000.0)(rng)};
    const auto cover = cover_disk(disk);
    ASSERT_FALSE(cover.empty());
    expect_sorted_disjoint(cover);
    // Random points inside the disk land in exactly one covering cell.
    std::uniform_real_distribution<double> r(0.0, disk.radius_km);
    std::uniform_real_distribution<double> b(0.0, 360.0);
    for (int i = 0; i < 50; ++i) {
      const geo::GeoPoint p = geo::destination(disk.center, b(rng), r(rng));
      EXPECT_EQ(cells_containing(cover, p), 1)
          << "disk at " << disk.center.lat_deg << "," << disk.center.lon_deg
          << " r=" << disk.radius_km;
    }
  }
}

TEST(SpatialCovering, DiskCoveringRespectsTheBudget) {
  static_assert(kCoveringMaxCells == 64);
  static_assert(kCoveringMaxLevel == 16);
  for (const double radius_km : {1.0, 120.0, 2000.0}) {
    const auto cover = cover_disk(geo::Disk{{48.85, 2.35}, radius_km});
    EXPECT_LE(static_cast<int>(cover.size()), kCoveringMaxCells);
    EXPECT_FALSE(cover.empty());
    for (const CellId& cell : cover) {
      EXPECT_LE(cell.level(), kCoveringMaxLevel);
    }
  }
}

TEST(SpatialCovering, DiskCoveringIsDeterministic) {
  const geo::Disk disk{{-33.9, 151.2}, 300.0};
  const auto a = cover_disk(disk);
  const auto b = cover_disk(disk);
  EXPECT_EQ(a, b);
}

TEST(SpatialCovering, PolarDiskIsCovered) {
  const geo::Disk disk{{89.5, 0.0}, 200.0};
  const auto cover = cover_disk(disk);
  ASSERT_FALSE(cover.empty());
  // Points around the pole (every longitude!) stay covered.
  for (double lon = -180.0; lon < 180.0; lon += 15.0) {
    EXPECT_EQ(cells_containing(cover, {89.2, lon}), 1) << "lon " << lon;
  }
  EXPECT_EQ(cells_containing(cover, {90.0, 0.0}), 1);
}

TEST(SpatialCovering, AntiMeridianDiskIsCovered) {
  const geo::Disk disk{{10.0, 179.8}, 100.0};
  const auto cover = cover_disk(disk);
  EXPECT_EQ(cells_containing(cover, {10.0, 179.9}), 1);
  EXPECT_EQ(cells_containing(cover, {10.0, -179.7}), 1);  // across the seam
}

TEST(SpatialCovering, RectCoveringIsExactInDegreeSpace) {
  for (int trial = 0; trial < 40; ++trial) {
    const geo::GeoPoint c = random_point();
    const auto rect = LatLonRect::from_degrees(c.lat_deg - 2.0, c.lat_deg + 2.0,
                                               c.lon_deg - 3.0, c.lon_deg + 3.0);
    const auto cover = cover_rect(rect);
    ASSERT_FALSE(cover.empty());
    expect_sorted_disjoint(cover);
    for (int i = 0; i < 50; ++i) {
      std::uniform_real_distribution<double> dlat(-1.99, 1.99);
      std::uniform_real_distribution<double> dlon(-2.99, 2.99);
      const geo::GeoPoint p{
          std::clamp(c.lat_deg + dlat(rng), -90.0, 90.0),
          geo::normalize_lon(c.lon_deg + dlon(rng))};
      if (!rect.contains(p)) continue;  // wrapped edge cases
      EXPECT_EQ(cells_containing(cover, p), 1)
          << p.lat_deg << "," << p.lon_deg;
    }
  }
}

TEST(SpatialCovering, WrappedRectCoversBothSidesOfTheSeam) {
  const auto rect = LatLonRect::from_degrees(-10.0, 10.0, 175.0, 185.0);
  EXPECT_TRUE(rect.wraps());
  EXPECT_TRUE(rect.contains({0.0, 179.0}));
  EXPECT_TRUE(rect.contains({0.0, -178.0}));
  EXPECT_FALSE(rect.contains({0.0, 0.0}));
  const auto cover = cover_rect(rect);
  EXPECT_EQ(cells_containing(cover, {0.0, 179.0}), 1);
  EXPECT_EQ(cells_containing(cover, {0.0, -178.0}), 1);
}

TEST(SpatialCovering, FullLongitudeRect) {
  const auto rect = LatLonRect::from_degrees(80.0, 90.0, -200.0, 200.0);
  EXPECT_TRUE(rect.full_lon);
  const auto cover = cover_rect(rect);
  for (double lon = -180.0; lon < 180.0; lon += 30.0) {
    EXPECT_EQ(cells_containing(cover, {85.0, lon}), 1);
  }
  EXPECT_EQ(cells_containing(cover, {0.0, 0.0}), 0);  // outside in latitude
}

TEST(SpatialCovering, EmptyRectHasNoCovering) {
  LatLonRect rect = LatLonRect::from_degrees(10.0, 20.0, 0.0, 1.0);
  rect.lat_lo = 20.0;
  rect.lat_hi = 10.0;  // inverted = empty
  EXPECT_TRUE(cover_rect(rect).empty());
}

}  // namespace
}  // namespace geoloc::spatial
