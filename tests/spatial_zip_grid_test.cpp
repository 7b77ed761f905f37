#include "spatial/zip_grid.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "geo/geopoint.h"

namespace geoloc::spatial {
namespace {

TEST(SpatialZipGrid, FormatsTheLegacyZoneKey) {
  const ZipGrid grid(0.045);
  EXPECT_EQ(grid.format({0, 0}), "Z00000x00000");
  EXPECT_EQ(grid.format({123, 4567}), "Z00123x04567");
  EXPECT_EQ(grid.format({12345, 67890}), "Z12345x67890");
}

TEST(SpatialZipGrid, KeyOfMatchesTheFloorFormulas) {
  const ZipGrid grid(0.045);
  const geo::GeoPoint p{48.8566, 2.3522};
  const ZipGrid::Key key = grid.key_of(p);
  EXPECT_EQ(key.lat_cell,
            static_cast<int>((p.lat_deg + 90.0) / 0.045));
  EXPECT_EQ(key.lon_cell,
            static_cast<int>((p.lon_deg + 180.0) / 0.045));
  // cell_deg 0.25 is exact in binary: the world is exactly 720 x 1440
  // cells, and the far corner floors to the boundary cell 720 / 1440.
  const ZipGrid quarter(0.25);
  EXPECT_EQ(quarter.key_of({90.0, 180.0}), (ZipGrid::Key{720, 1440}));
}

TEST(SpatialZipGrid, ParseRoundTripsFormat) {
  const ZipGrid grid(0.045);
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> lat(-90.0, 90.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  for (int i = 0; i < 200; ++i) {
    const ZipGrid::Key key = grid.key_of({lat(rng), lon(rng)});
    const auto parsed = ZipGrid::parse(grid.format(key));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, key);
  }
}

TEST(SpatialZipGrid, ParseAcceptsWideAndNegativeFields) {
  // The formatter emits all digits for values wider than 5 ("%05d" is a
  // minimum width), and negative cells for out-of-world floors; the parser
  // must round-trip both.
  const auto wide = ZipGrid::parse("Z123456x00001");
  ASSERT_TRUE(wide.has_value());
  EXPECT_EQ(wide->lat_cell, 123456);
  const auto negative = ZipGrid::parse("Z-0001x00002");
  ASSERT_TRUE(negative.has_value());
  EXPECT_EQ(negative->lat_cell, -1);
  EXPECT_EQ(negative->lon_cell, 2);
}

TEST(SpatialZipGrid, ParseRejectsMalformedKeys) {
  for (const char* bad : {
           "",                 // empty
           "Z",                // no fields
           "Z1x2",             // fields too short
           "Z0001x00002",      // lat field only 4 chars
           "Z00001x0002",      // lon field only 4 chars
           "z00001x00002",     // lowercase prefix
           "00001x00002",      // missing prefix
           "Z00001y00002",     // wrong separator
           "Z00001x00002junk", // trailing garbage
           "Z00001x00002 ",    // trailing space
           "Z 0001x00002",     // embedded space
           "Z+0001x00002",     // explicit plus sign
           "Zabcdex00002",     // non-numeric field
           "Z00001x",          // missing lon field
           "Z00001x00002x3",   // extra separator
       }) {
    EXPECT_FALSE(ZipGrid::parse(bad).has_value()) << "\"" << bad << "\"";
  }
}

TEST(SpatialZipGrid, NeighborZonesKeepTheLegacyScanOrder) {
  const ZipGrid grid(0.045);
  const auto zones = grid.neighbor_zones("Z02000x03000");
  ASSERT_EQ(zones.size(), 9u);
  // (dlat, dlon) scans dlat -1..1 outer, dlon -1..1 inner.
  EXPECT_EQ(zones[0], "Z01999x02999");
  EXPECT_EQ(zones[1], "Z01999x03000");
  EXPECT_EQ(zones[4], "Z02000x03000");
  EXPECT_EQ(zones[8], "Z02001x03001");
}

TEST(SpatialZipGrid, NeighborZonesOfMalformedKeyEchoTheKey) {
  const ZipGrid grid(0.045);
  const auto zones = grid.neighbor_zones("not-a-zone");
  ASSERT_EQ(zones.size(), 1u);
  EXPECT_EQ(zones[0], "not-a-zone");
}

}  // namespace
}  // namespace geoloc::spatial
