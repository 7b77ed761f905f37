// The central contract of the spatial subsystem: every call site routed
// through the bucket index returns *exactly* what the legacy linear /
// hash-grid scan returned — same contents, same order, on every input,
// including the degenerate ones (poles, anti-meridian, cell boundaries,
// malformed zips, empty worlds).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "dataset/population_grid.h"
#include "geo/geodesy.h"
#include "geo/geopoint.h"
#include "landmark/ecosystem.h"
#include "landmark/mapping_service.h"
#include "oracles/population_grid_reference.h"
#include "oracles/web_ecosystem_reference.h"
#include "sim/world.h"
#include "test_scenario.h"

namespace geoloc {
namespace {

using dataset::oracle::kernel_indices_near_scan;
using landmark::WebEcosystem;
using landmark::WebsiteId;
using landmark::oracle::passing_near_scan;
using landmark::oracle::websites_in_zip_scan;

std::vector<WebsiteId> to_vector(std::span<const WebsiteId> s) {
  return {s.begin(), s.end()};
}

/// Query points that exercise every geometric edge the index must handle.
std::vector<geo::GeoPoint> edge_points() {
  std::vector<geo::GeoPoint> pts = {
      {90.0, 0.0},      {-90.0, 0.0},        // poles
      {90.0, 180.0},    {-90.0, -180.0},     // pole + date-line corners
      {0.0, 180.0},     {0.0, -180.0},       // anti-meridian
      {10.0, 179.95},   {-10.0, -179.95},    // near the seam
      {0.0, 0.0},                            // origin (face boundary)
      {0.0, -0.0001},                        // just west of Greenwich
      {89.999, 45.0},   {-89.999, -45.0},    // near-polar
  };
  // Exact multiples of the 0.045-degree zip cell and the 1-degree
  // ecosystem cell — points *on* grid lines.
  for (const double lat : {0.045, 0.09, 45.0, -33.0}) {
    for (const double lon : {0.045, -0.045, 120.0, -73.0}) {
      pts.push_back({lat, lon});
    }
  }
  return pts;
}

TEST(SpatialEquivalence, WebsitesInZipMatchesScanForEveryRecordedZip) {
  const auto& s = testing::small_scenario();
  const WebEcosystem& eco = s.web();
  ASSERT_GT(eco.total_count(), 0u);

  std::set<std::string> zips;
  for (const auto& w : eco.websites()) zips.insert(w.recorded_zip);
  ASSERT_FALSE(zips.empty());
  for (const std::string& zip : zips) {
    const auto indexed = to_vector(eco.websites_in_zip(zip));
    const auto scanned = websites_in_zip_scan(eco, zip);
    ASSERT_EQ(indexed, scanned) << zip;
    EXPECT_FALSE(indexed.empty()) << zip;
    // A zero-widened spelling parses to the same zone key, but only the
    // canonical spelling is the recorded zip.
    const std::string widened = "Z0" + zip.substr(1);
    ASSERT_EQ(to_vector(eco.websites_in_zip(widened)),
              websites_in_zip_scan(eco, widened))
        << widened;
  }
}

TEST(SpatialEquivalence, WebsitesInZipMatchesScanForForeignAndGarbageZips) {
  const auto& s = testing::small_scenario();
  const WebEcosystem& eco = s.web();
  const landmark::MappingService& mapping = s.mapping();

  std::vector<std::string> zips;
  for (const geo::GeoPoint& p : edge_points()) {
    zips.push_back(mapping.zone_of(p));
  }
  zips.insert(zips.end(), {"", "garbage", "Z1x2", "Z00001x00002junk",
                           "Z-0001x00002", "Z99999x99999", "Z00000x00000"});
  for (const std::string& zip : zips) {
    EXPECT_EQ(to_vector(eco.websites_in_zip(zip)),
              websites_in_zip_scan(eco, zip))
        << "\"" << zip << "\"";
  }
}

TEST(SpatialEquivalence, WebsitesNearZipConcatenatesNeighborZones) {
  const auto& s = testing::small_scenario();
  const WebEcosystem& eco = s.web();
  const landmark::MappingService& mapping = s.mapping();

  int checked = 0;
  for (const auto& w : eco.websites()) {
    if (++checked > 50) break;
    const auto got = eco.websites_near_zip(mapping, w.recorded_zip);
    std::vector<WebsiteId> want;
    for (const std::string& zone : mapping.neighbor_zones(w.recorded_zip)) {
      const auto scanned = websites_in_zip_scan(eco, zone);
      want.insert(want.end(), scanned.begin(), scanned.end());
    }
    ASSERT_EQ(got, want) << w.recorded_zip;
  }
}

TEST(SpatialEquivalence, PassingNearMatchesScanAtScenarioPlaces) {
  const auto& s = testing::small_scenario();
  const WebEcosystem& eco = s.web();
  ASSERT_GT(eco.passing_count(), 0u);

  std::mt19937 rng(42);
  std::uniform_real_distribution<double> jitter(-0.8, 0.8);
  int checked = 0;
  for (const sim::Place& place : s.world().places()) {
    if (++checked > 40) break;
    for (const double radius_km : {1.0, 25.0, 120.0, 400.0}) {
      const geo::GeoPoint q{place.location.lat_deg + jitter(rng),
                            geo::normalize_lon(place.location.lon_deg +
                                               jitter(rng))};
      const auto indexed = eco.passing_near(q, radius_km);
      const auto scanned = passing_near_scan(eco, q, radius_km);
      ASSERT_EQ(indexed, scanned)
          << q.lat_deg << "," << q.lon_deg << " r=" << radius_km;
    }
  }

  // A polar query whose probe ring spans more than 360 degrees of
  // longitude visits some cells twice, and the scan emits their sites
  // twice. Aim the doubled cells at the northernmost passing site of an
  // ecosystem with one passing site per city, which keeps the oracle's
  // probe x site scan cheap.
  sim::World world;
  landmark::EcosystemConfig cfg;
  cfg.websites_per_1k_pop = 0.0;
  cfg.min_websites_per_city = 1;
  cfg.local_share = 1.0;
  cfg.chain_rate = 0.0;
  cfg.zip_mismatch_rate = 0.0;
  cfg.local_false_detect_rate = 0.0;
  const WebEcosystem sparse = WebEcosystem::build(world, s.mapping(), cfg);
  ASSERT_EQ(sparse.passing_count(), world.cities().size());
  const landmark::Website* north = &sparse.websites().front();
  for (const auto& w : sparse.websites()) {
    if (w.poi_location.lat_deg > north->poi_location.lat_deg) north = &w;
  }
  const geo::GeoPoint q{
      89.999, geo::normalize_lon(north->poi_location.lon_deg + 180.0)};
  const double radius_km =
      std::max(3700.0, geo::distance_km(q, north->poi_location) + 1.0);
  const auto scanned = passing_near_scan(sparse, q, radius_km);
  EXPECT_EQ(std::count(scanned.begin(), scanned.end(), north->id), 2);
  EXPECT_EQ(sparse.passing_near(q, radius_km), scanned) << "r=" << radius_km;
}

// One ctest entry per edge point, so a parallel run spreads the oracle's
// probe x site scans (costliest at 2 000 km near the poles) across workers.
class PassingNearAtEdge : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PassingNearAtEdge, MatchesScan) {
  const auto& s = testing::small_scenario();
  const WebEcosystem& eco = s.web();
  const geo::GeoPoint q = edge_points()[GetParam()];
  for (const double radius_km : {0.0, 5.0, 200.0, 2000.0}) {
    EXPECT_EQ(eco.passing_near(q, radius_km),
              passing_near_scan(eco, q, radius_km))
        << q.lat_deg << "," << q.lon_deg << " r=" << radius_km;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SpatialEquivalence, PassingNearAtEdge,
    ::testing::Range<std::size_t>(0, edge_points().size()));

TEST(SpatialEquivalence, ReverseGeocodeAgreesWithZoneArithmeticEverywhere) {
  const landmark::MappingService mapping;
  const spatial::ZipGrid& grid = mapping.grid();
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> lat(-90.0, 90.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::vector<geo::GeoPoint> pts = edge_points();
  for (int i = 0; i < 500; ++i) pts.push_back({lat(rng), lon(rng)});
  for (const geo::GeoPoint& p : pts) {
    const std::string zip = mapping.reverse_geocode(p);
    EXPECT_EQ(zip, grid.format(grid.key_of(p)))
        << p.lat_deg << "," << p.lon_deg;
    // Every produced zone key parses back to its own canonical spelling —
    // the one websites_in_zip answers for.
    const auto key = spatial::ZipGrid::parse(zip);
    ASSERT_TRUE(key.has_value()) << zip;
    EXPECT_EQ(grid.format(*key), zip);
  }
}

TEST(SpatialEquivalence, PopulationKernelsMatchScanEverywhere) {
  const auto& s = testing::small_scenario();
  // The scenario's places plus kernels within 2 degrees of a pole (two of
  // them beside the anti-meridian), whose clamped halos repeat cells.
  std::vector<sim::Place> places(s.world().places().begin(),
                                 s.world().places().end());
  for (const geo::GeoPoint& c : {geo::GeoPoint{89.5, 0.5},
                                 geo::GeoPoint{88.2, -179.7},
                                 geo::GeoPoint{-89.5, 179.9},
                                 geo::GeoPoint{-88.3, 45.2}}) {
    sim::Place polar;
    polar.location = c;
    polar.population_k = 10.0;
    places.push_back(polar);
  }
  const dataset::PopulationGrid grid(places);
  ASSERT_GT(grid.kernel_count(), 0u);

  std::mt19937 rng(9);
  std::uniform_real_distribution<double> lat(-90.0, 90.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::vector<geo::GeoPoint> pts = edge_points();
  for (int i = 0; i < 200; ++i) pts.push_back({lat(rng), lon(rng)});
  for (const sim::Place& place : places) pts.push_back(place.location);
  for (const geo::GeoPoint& p : pts) {
    ASSERT_EQ(grid.kernel_indices_near(p), kernel_indices_near_scan(places, p))
        << p.lat_deg << "," << p.lon_deg;
  }
}

TEST(SpatialEquivalence, EmptyEcosystemQueriesAgreeOnEmpty) {
  // A config that produces zero websites: the index is empty, and every
  // query — including the degenerate ones — must agree with the scan on
  // "nothing here".
  sim::World world;
  const landmark::MappingService mapping;
  landmark::EcosystemConfig cfg;
  cfg.websites_per_1k_pop = 0.0;
  cfg.min_websites_per_city = 0;
  cfg.max_websites_per_place = 0;
  const WebEcosystem eco = WebEcosystem::build(world, mapping, cfg);
  EXPECT_EQ(eco.total_count(), 0u);
  EXPECT_EQ(eco.passing_count(), 0u);
  for (const geo::GeoPoint& q : edge_points()) {
    EXPECT_TRUE(eco.passing_near(q, 500.0).empty());
    EXPECT_EQ(eco.passing_near(q, 500.0),
              passing_near_scan(eco, q, 500.0));
    const std::string zip = mapping.zone_of(q);
    EXPECT_TRUE(eco.websites_in_zip(zip).empty());
    EXPECT_EQ(to_vector(eco.websites_in_zip(zip)),
              websites_in_zip_scan(eco, zip));
    EXPECT_EQ(eco.websites_near_zip(mapping, zip),
              std::vector<WebsiteId>{});
  }
}

}  // namespace
}  // namespace geoloc
