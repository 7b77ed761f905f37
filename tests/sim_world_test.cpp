#include "sim/world.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <unordered_set>

#include "geo/geodesy.h"
#include "sim/city.h"

namespace geoloc::sim {
namespace {

TEST(Gazetteer, HasAllContinentsAndSaneCoordinates) {
  std::set<Continent> continents;
  for (const CityRecord& c : gazetteer()) {
    continents.insert(c.continent);
    EXPECT_TRUE((geo::GeoPoint{c.lat_deg, c.lon_deg}).valid()) << c.name;
    EXPECT_GT(c.population_k, 0.0) << c.name;
    EXPECT_EQ(c.country.size(), 2u) << c.name;
  }
  EXPECT_EQ(continents.size(), 6u);
  EXPECT_GE(gazetteer().size(), 250u);
}

TEST(Gazetteer, SpotCheckCoordinates) {
  // Paris must exist and be in Europe at the expected coordinates.
  bool found = false;
  for (const CityRecord& c : gazetteer()) {
    if (c.name == "Paris") {
      found = true;
      EXPECT_EQ(c.continent, Continent::EU);
      EXPECT_NEAR(c.lat_deg, 48.86, 0.1);
      EXPECT_NEAR(c.lon_deg, 2.35, 0.1);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Continent, NamesRoundTrip) {
  EXPECT_EQ(to_string(Continent::EU), "EU");
  EXPECT_EQ(to_string(Continent::SA), "SA");
  EXPECT_EQ(all_continents().size(), 6u);
}

class WorldTest : public ::testing::Test {
 protected:
  World world_;  // default config
};

TEST_F(WorldTest, PlacesIncludeCitiesAndSatellites) {
  EXPECT_GT(world_.places().size(), world_.cities().size());
  std::size_t satellites = 0;
  for (const Place& p : world_.places()) {
    if (p.satellite) {
      ++satellites;
      const Place& parent = world_.place(p.parent);
      EXPECT_FALSE(parent.satellite);
      const double d = geo::distance_km(p.location, parent.location);
      EXPECT_GE(d, world_.config().satellite_min_km - 1.0);
      EXPECT_LE(d, world_.config().satellite_max_km + 1.0);
      EXPECT_LT(p.population_k, parent.population_k);
    } else {
      EXPECT_EQ(world_.place(p.parent).name, p.name);  // parent is self
    }
  }
  EXPECT_GT(satellites, 100u);
}

TEST_F(WorldTest, SameSeedSameWorld) {
  World other_;  // same default seed
  ASSERT_EQ(world_.places().size(), other_.places().size());
  for (std::size_t i = 0; i < world_.places().size(); ++i) {
    EXPECT_EQ(world_.places()[i].location, other_.places()[i].location);
  }
}

TEST_F(WorldTest, DifferentSeedDifferentSatellites) {
  WorldConfig cfg;
  cfg.seed = 999;
  World other(cfg);
  bool any_difference =
      other.places().size() != world_.places().size();
  for (std::size_t i = 0;
       !any_difference && i < std::min(other.places().size(),
                                       world_.places().size());
       ++i) {
    any_difference = !(other.places()[i].location ==
                       world_.places()[i].location);
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(WorldTest, CreateAsAssignsUniqueAsns) {
  const net::Asn a = world_.create_as(AsCategory::Content, 0);
  const net::Asn b = world_.create_as(AsCategory::Access, 1);
  EXPECT_NE(a.value, b.value);
  EXPECT_EQ(world_.as_info(a).category, AsCategory::Content);
  EXPECT_EQ(world_.as_info(b).sector, 1);
  EXPECT_THROW(static_cast<void>(world_.as_info(net::Asn{1})),
               std::out_of_range);
}

TEST_F(WorldTest, SitePrefixesAreUniqueSlash24sOfTheAs) {
  const net::Asn a = world_.create_as(AsCategory::Content, 0);
  std::set<std::uint32_t> networks;
  for (int i = 0; i < 300; ++i) {  // crosses a /16 boundary (256 sites)
    const net::Prefix p = world_.allocate_site_prefix(a);
    EXPECT_EQ(p.length(), 24);
    EXPECT_TRUE(networks.insert(p.network().value()).second);
    const auto origin = world_.bgp_lookup(p.address_at(7));
    ASSERT_TRUE(origin.has_value());
    EXPECT_EQ(origin->second.value, a.value);
  }
}

TEST_F(WorldTest, SlashSixteenPlanEndsWithoutWrapping) {
  // 1.0.0.0/16 .. 255.255.0.0/16: 255 x 256 blocks, one per fresh AS.
  constexpr std::uint32_t kBlocks = 255 * 256;
  net::Asn last_as;
  net::Prefix last;
  for (std::uint32_t k = 0; k < kBlocks; ++k) {
    last_as = world_.create_as(AsCategory::Access, 0);
    last = world_.allocate_site_prefix(last_as);
  }
  EXPECT_EQ(last.network().value(), 0xFFFF0000u);
  const auto origin = world_.bgp_lookup(last.address_at(1));
  ASSERT_TRUE(origin.has_value());
  EXPECT_EQ(origin->second.value, last_as.value);
  const net::Asn next = world_.create_as(AsCategory::Access, 0);
  EXPECT_THROW(static_cast<void>(world_.allocate_site_prefix(next)),
               std::length_error);
}

TEST_F(WorldTest, BgpMoreSpecificsExist) {
  const net::Asn a = world_.create_as(AsCategory::Content, 0);
  int more_specifics = 0;
  for (int i = 0; i < 200; ++i) {
    const net::Prefix p = world_.allocate_site_prefix(a);
    const auto origin = world_.bgp_lookup(p.address_at(1));
    ASSERT_TRUE(origin.has_value());
    if (origin->first.length() == 24) ++more_specifics;
  }
  // ~30% of sites announce their /24 (config default).
  EXPECT_GT(more_specifics, 30);
  EXPECT_LT(more_specifics, 110);
}

TEST_F(WorldTest, AddHostAssignsIdsAndIndexes) {
  Host h;
  h.addr = net::IPv4Address{1, 2, 3, 4};
  h.kind = HostKind::Probe;
  h.true_location = geo::GeoPoint{10.0, 20.0};
  h.reported_location = h.true_location;
  const HostId id = world_.add_host(h);
  EXPECT_EQ(world_.host(id).id, id);
  EXPECT_EQ(world_.find_by_addr(net::IPv4Address{1, 2, 3, 4}), id);
  EXPECT_FALSE(world_.find_by_addr(net::IPv4Address{9, 9, 9, 9}).has_value());
}

TEST_F(WorldTest, MisgeolocateKeepsTrueLocation) {
  Host h;
  h.addr = net::IPv4Address{1, 2, 3, 5};
  h.true_location = geo::GeoPoint{10.0, 20.0};
  h.reported_location = h.true_location;
  const HostId id = world_.add_host(h);
  world_.misgeolocate(id, geo::GeoPoint{-30.0, 50.0});
  EXPECT_TRUE(world_.host(id).misgeolocated);
  EXPECT_EQ(world_.host(id).true_location, (geo::GeoPoint{10.0, 20.0}));
  EXPECT_EQ(world_.host(id).reported_location, (geo::GeoPoint{-30.0, 50.0}));
}

TEST_F(WorldTest, RouterOfIsIdempotentAndPlaced) {
  const HostId r1 = world_.router_of(3);
  const HostId r2 = world_.router_of(3);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(world_.host(r1).kind, HostKind::Router);
  EXPECT_EQ(world_.host(r1).place, 3u);
  const World& const_world = world_;
  EXPECT_EQ(const_world.router_of(3), r1);
}

TEST_F(WorldTest, EveryRealCityHasARouterSatellitesDoNot) {
  const World& const_world = world_;
  for (PlaceId city : world_.cities()) {
    EXPECT_NE(const_world.router_of(city), kInvalidHost);
  }
  // Satellite towns get routers only when hosts move in.
  for (PlaceId p = 0; p < world_.places().size(); ++p) {
    if (world_.place(p).satellite) {
      EXPECT_EQ(const_world.router_of(p), kInvalidHost);
      break;
    }
  }
}

TEST_F(WorldTest, SamplePlaceRespectsContinent) {
  auto gen = world_.rng().fork("test").gen();
  for (int i = 0; i < 200; ++i) {
    const PlaceId p = world_.sample_place(Continent::AF, 0.5, gen);
    EXPECT_EQ(world_.place(p).continent, Continent::AF);
  }
}

TEST_F(WorldTest, SampleLocationStaysNearPlace) {
  auto gen = world_.rng().fork("test2").gen();
  const PlaceId place = world_.cities()[0];
  for (int i = 0; i < 100; ++i) {
    const geo::GeoPoint p = world_.sample_location(place, 5.0, gen);
    EXPECT_LT(geo::distance_km(p, world_.place(place).location), 120.0);
  }
}

TEST_F(WorldTest, HotspotsAreDeterministicAndNearCentre) {
  const PlaceId place = world_.cities()[1];
  const int n = world_.hotspot_count(place);
  EXPECT_GE(n, 3);
  for (int k = 0; k < n; ++k) {
    const geo::GeoPoint h1 = world_.hotspot(place, k);
    const geo::GeoPoint h2 = world_.hotspot(place, k);
    EXPECT_EQ(h1, h2);
    EXPECT_LT(geo::distance_km(h1, world_.place(place).location), 80.0);
  }
  EXPECT_EQ(world_.hotspot(place, 0), world_.place(place).location);
}

TEST_F(WorldTest, UrbanSamplingConcentratesAtHotspots) {
  auto gen = world_.rng().fork("urban").gen();
  const PlaceId place = world_.cities()[2];
  int near_hotspot = 0;
  const int trials = 300;
  for (int i = 0; i < trials; ++i) {
    const geo::GeoPoint p =
        world_.sample_urban_location(place, 1.0, 0.5, 10.0, gen);
    for (int k = 0; k < world_.hotspot_count(place); ++k) {
      if (geo::distance_km(p, world_.hotspot(place, k)) < 2.0) {
        ++near_hotspot;
        break;
      }
    }
  }
  EXPECT_GT(near_hotspot, trials / 2);
}

TEST_F(WorldTest, AccessPenaltyIsPerParentCity) {
  ASSERT_FALSE(world_.poorly_connected_cities().empty());
  const PlaceId poor = world_.poorly_connected_cities()[0];
  EXPECT_GT(world_.access_penalty_ms(poor),
            world_.config().access_penalty_floor_ms - 1e-9);
  // Find a satellite of the poor city: it inherits the penalty.
  for (const Place& p : world_.places()) {
    if (p.satellite && p.parent == poor) {
      const auto id = static_cast<PlaceId>(&p - world_.places().data());
      EXPECT_DOUBLE_EQ(world_.access_penalty_ms(id),
                       world_.access_penalty_ms(poor));
      break;
    }
  }
}

TEST_F(WorldTest, AsCategoryAndSectorTables) {
  EXPECT_EQ(all_as_categories().size(), 6u);
  EXPECT_EQ(as_sector_names().size(), 16u);
  EXPECT_EQ(to_string(AsCategory::TransitAccess), "Transit/Access");
  EXPECT_EQ(as_sector_names()[0], "Computer and Information Technology");
}

}  // namespace
}  // namespace geoloc::sim
