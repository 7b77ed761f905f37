#include "spatial/interval_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "geo/geodesy.h"
#include "util/parallel.h"

namespace geoloc::spatial {
namespace {

std::vector<geo::GeoPoint> random_points(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> lat(-90.0, 90.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::vector<geo::GeoPoint> out(n);
  for (auto& p : out) p = geo::GeoPoint{lat(rng), lon(rng)};
  return out;
}

TEST(SpatialIntervalIndex, DiskCandidatesAreASupersetAndExactAfterFilter) {
  const auto points = random_points(2000, 1);
  const IntervalIndex idx = IntervalIndex::build(points);
  EXPECT_EQ(idx.size(), points.size());

  std::mt19937 rng(2);
  std::uniform_real_distribution<double> lat(-85.0, 85.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::uniform_real_distribution<double> radius(10.0, 1500.0);
  for (int trial = 0; trial < 25; ++trial) {
    const geo::Disk disk{{lat(rng), lon(rng)}, radius(rng)};
    const auto cand = idx.candidates_in_disk(disk);

    // Exact filter over the candidates == brute force over all points.
    std::vector<std::uint32_t> got;
    for (const std::uint32_t id : cand) {
      if (geo::distance_km(points[id], disk.center) <= disk.radius_km) {
        got.push_back(id);
      }
    }
    std::sort(got.begin(), got.end());
    std::vector<std::uint32_t> want;
    for (std::uint32_t i = 0; i < points.size(); ++i) {
      if (geo::distance_km(points[i], disk.center) <= disk.radius_km) {
        want.push_back(i);
      }
    }
    EXPECT_EQ(got, want) << "disk " << disk.center.lat_deg << ","
                         << disk.center.lon_deg << " r=" << disk.radius_km;
  }
}

TEST(SpatialIntervalIndex, CandidatesNeverDuplicate) {
  const auto points = random_points(500, 3);
  const IntervalIndex idx = IntervalIndex::build(points);
  const auto cand =
      idx.candidates_in_disk(geo::Disk{{0.0, 0.0}, 5000.0});
  auto sorted = cand;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(SpatialIntervalIndex, AtTokenReturnsAscendingBucket) {
  // Several payloads at the same location share a leaf token; the bucket
  // must come back ascending regardless of insertion order.
  const geo::GeoPoint p{12.0, 34.0};
  std::vector<IntervalIndex::Item> items;
  for (const std::uint32_t id : {7u, 3u, 9u, 1u}) items.push_back({p, id});
  items.push_back({{13.0, 34.0}, 5u});
  const IntervalIndex idx = IntervalIndex::build(items);
  const auto bucket = idx.at_token(CellId::leaf_token(p));
  ASSERT_EQ(bucket.size(), 4u);
  EXPECT_TRUE(std::is_sorted(bucket.begin(), bucket.end()));
  EXPECT_EQ(bucket[0], 1u);
  EXPECT_EQ(bucket[3], 9u);
  EXPECT_TRUE(idx.at_token(CellId::leaf_token({50.0, 50.0})).empty());
}

TEST(SpatialIntervalIndex, EmptyIndexAnswersEverythingEmpty) {
  const IntervalIndex idx;
  EXPECT_TRUE(idx.empty());
  EXPECT_TRUE(idx.at_token(0).empty());
  EXPECT_TRUE(idx.candidates_in_disk(geo::Disk{{0.0, 0.0}, 1000.0}).empty());
  EXPECT_TRUE(
      idx.candidates_in_rect(LatLonRect::from_degrees(-90, 90, -180, 180))
          .empty());
}

TEST(SpatialIntervalIndex, BuildIsByteIdenticalAtAnyThreadCount) {
  const auto points = random_points(10'000, 4);
  util::set_thread_count(1);
  const IntervalIndex serial = IntervalIndex::build(points);
  util::set_thread_count(8);
  const IntervalIndex parallel = IntervalIndex::build(points);
  util::set_thread_count(0);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace geoloc::spatial
