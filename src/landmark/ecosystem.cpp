#include "landmark/ecosystem.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geo/geodesy.h"
#include "obs/metrics.h"

namespace geoloc::landmark {

std::string_view to_string(HostingType t) noexcept {
  switch (t) {
    case HostingType::Local: return "local";
    case HostingType::Cdn: return "cdn";
    case HostingType::RemoteDatacenter: return "remote";
  }
  return "?";
}

namespace {

/// The `n` most populous real cities — CDN edge / datacenter hub locations.
std::vector<sim::PlaceId> top_cities(const sim::World& world, int n) {
  std::vector<sim::PlaceId> cities(world.cities().begin(),
                                   world.cities().end());
  std::sort(cities.begin(), cities.end(),
            [&world](sim::PlaceId a, sim::PlaceId b) {
              return world.place(a).population_k > world.place(b).population_k;
            });
  if (static_cast<int>(cities.size()) > n) {
    cities.resize(static_cast<std::size_t>(n));
  }
  return cities;
}

sim::PlaceId nearest_of(const sim::World& world,
                        const std::vector<sim::PlaceId>& candidates,
                        const geo::GeoPoint& p) {
  sim::PlaceId best = candidates.front();
  double best_d = std::numeric_limits<double>::infinity();
  for (sim::PlaceId c : candidates) {
    const double d = geo::distance_km(world.place(c).location, p);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

/// The original coarse 1-degree cell key.
std::int64_t cell_key(const geo::GeoPoint& p) noexcept {
  const auto lat = static_cast<std::int64_t>(std::floor(p.lat_deg)) + 90;
  const auto lon = static_cast<std::int64_t>(std::floor(p.lon_deg)) + 180;
  return lat * 4096 + lon;
}

/// A recorded-zip zone key as a bucket key.
std::uint64_t zone_key(const spatial::ZipGrid::Key& key) noexcept {
  return std::uint64_t{static_cast<std::uint32_t>(key.lat_cell)} << 32 |
         static_cast<std::uint32_t>(key.lon_cell);
}

/// The 1-degree cell keys the original hash-grid scan probes for a
/// passing_near query, in its (lat, lon) scan order, duplicates preserved.
std::vector<std::int64_t> probe_cells(const geo::GeoPoint& p,
                                      double radius_km) {
  const double dlat = radius_km / 111.0;
  const double dlon =
      radius_km / std::max(20.0, 111.0 * std::cos(geo::deg_to_rad(p.lat_deg)));
  const int lat_lo = static_cast<int>(std::floor(p.lat_deg - dlat));
  const int lat_hi = static_cast<int>(std::floor(p.lat_deg + dlat));
  const int lon_lo = static_cast<int>(std::floor(p.lon_deg - dlon));
  const int lon_hi = static_cast<int>(std::floor(p.lon_deg + dlon));
  std::vector<std::int64_t> probes;
  probes.reserve(static_cast<std::size_t>(lat_hi - lat_lo + 1) *
                 static_cast<std::size_t>(lon_hi - lon_lo + 1));
  for (int lat = lat_lo; lat <= lat_hi; ++lat) {
    for (int lon = lon_lo; lon <= lon_hi; ++lon) {
      const geo::GeoPoint probe{
          static_cast<double>(lat) + 0.5,
          geo::normalize_lon(static_cast<double>(lon) + 0.5)};
      probes.push_back(cell_key(probe));
    }
  }
  return probes;
}

}  // namespace

WebEcosystem WebEcosystem::build(sim::World& world,
                                 const MappingService& mapping,
                                 const EcosystemConfig& config) {
  WebEcosystem eco;
  eco.grid_ = mapping.grid();
  auto gen = world.rng().fork("web-ecosystem").gen();

  const auto cdn_pops = top_cities(world, config.cdn_pop_count);
  const auto hubs = top_cities(world, config.datacenter_hub_count);

  // One AS for the CDN, one per datacenter hub region, one generic hosting
  // AS for local sites (their connectivity is the POI's own uplink).
  const net::Asn cdn_as = world.create_as(sim::AsCategory::Content, 0);
  const net::Asn hosting_as = world.create_as(sim::AsCategory::Content, 0);
  const net::Asn local_as = world.create_as(sim::AsCategory::Enterprise, 0);

  const std::size_t nplaces = world.places().size();
  for (sim::PlaceId place = 0; place < nplaces; ++place) {
    const sim::Place& pl = world.place(place);
    int count = static_cast<int>(pl.population_k * config.websites_per_1k_pop);
    if (!pl.satellite) count = std::max(count, config.min_websites_per_city);
    count = std::min(count, config.max_websites_per_place);

    for (int i = 0; i < count; ++i) {
      Website w;
      w.id = static_cast<WebsiteId>(eco.websites_.size());
      w.place = place;
      w.poi_location = world.sample_urban_location(
          place, config.hotspot_prob, config.hotspot_spread_km,
          config.loose_spread_km, gen);

      const double u = gen.uniform();
      w.hosting = u < config.local_share ? HostingType::Local
                  : u < config.local_share + config.cdn_share
                      ? HostingType::Cdn
                      : HostingType::RemoteDatacenter;

      w.chain = gen.chance(config.chain_rate);
      w.zip_mismatch = gen.chance(config.zip_mismatch_rate);
      // The recorded postal address: usually the POI's own zone; chains and
      // HQ-registered sites record another zone (here: the place centre's).
      w.recorded_zip = w.zip_mismatch
                           ? mapping.zone_of(pl.location)
                           : mapping.zone_of(w.poi_location);

      switch (w.hosting) {
        case HostingType::Local:
          w.detected_nonlocal = gen.chance(config.local_false_detect_rate);
          break;
        case HostingType::Cdn:
          w.detected_nonlocal = gen.chance(config.cdn_detect_rate);
          break;
        case HostingType::RemoteDatacenter:
          w.detected_nonlocal = gen.chance(config.remote_detect_rate);
          break;
      }

      // Test 1 (zip consistency) compares the recorded zip with the zone of
      // the POI coordinates; tests 2-3 are the CDN and multi-zip checks.
      const bool zip_ok =
          w.recorded_zip == mapping.zone_of(w.poi_location);
      w.passes_tests = zip_ok && !w.detected_nonlocal && !w.chain;

      if (w.passes_tests) {
        // Materialise the serving host. For false landmarks (CDN/remote
        // sites that slipped through) it is far from the postal address.
        sim::Host server;
        server.kind = sim::HostKind::WebServer;
        switch (w.hosting) {
          case HostingType::Local: {
            server.asn = local_as;
            server.place = place;
            server.true_location = w.poi_location;
            break;
          }
          case HostingType::Cdn: {
            server.asn = cdn_as;
            server.place = nearest_of(world, cdn_pops, w.poi_location);
            server.true_location = world.sample_location(server.place, 3.0, gen);
            break;
          }
          case HostingType::RemoteDatacenter: {
            server.asn = hosting_as;
            server.place = hubs[gen.index(hubs.size())];
            server.true_location = world.sample_location(server.place, 5.0, gen);
            break;
          }
        }
        server.reported_location = server.true_location;
        server.last_mile_ms = gen.uniform(config.webserver_last_mile_min_ms,
                                          config.webserver_last_mile_max_ms);
        server.addr = net::IPv4Address{0xB0000000 + w.id};  // 176.0.0.0 + id
        world.router_of(server.place);
        w.server = world.add_host(server);

        ++eco.passing_count_;
      }

      eco.websites_.push_back(std::move(w));
    }
  }

  // Index construction (the generation loop above is untouched so the RNG
  // draw sequence — and with it every existing artifact — is preserved).
  std::vector<spatial::BucketIndex::Entry> zip_entries;
  std::vector<spatial::BucketIndex::Entry> passing_entries;
  zip_entries.reserve(eco.websites_.size());
  passing_entries.reserve(eco.passing_count_);
  for (const Website& w : eco.websites_) {
    // recorded_zip came from ZipGrid::format, so it always parses.
    if (const auto key = spatial::ZipGrid::parse(w.recorded_zip)) {
      zip_entries.emplace_back(zone_key(*key), w.id);
    }
    if (w.passes_tests) {
      passing_entries.emplace_back(cell_key(w.poi_location), w.id);
    }
  }
  eco.zip_index_ = spatial::BucketIndex(std::move(zip_entries));
  eco.passing_index_ = spatial::BucketIndex(std::move(passing_entries));
  return eco;
}

std::span<const WebsiteId> WebEcosystem::websites_in_zip(
    const std::string& zip) const {
  const auto key = spatial::ZipGrid::parse(zip);
  if (!key || grid_.format(*key) != zip) return {};
  return zip_index_.at(zone_key(*key));
}

std::vector<WebsiteId> WebEcosystem::websites_near_zip(
    const MappingService& mapping, const std::string& zip) const {
  std::vector<WebsiteId> out;
  for (const std::string& zone : mapping.neighbor_zones(zip)) {
    const auto ids = websites_in_zip(zone);
    out.insert(out.end(), ids.begin(), ids.end());
  }
  return out;
}

std::vector<WebsiteId> WebEcosystem::passing_near(const geo::GeoPoint& p,
                                                  double radius_km) const {
  static obs::Counter& queries =
      obs::Registry::instance().counter("spatial.eco.passing_near");
  queries.add();

  std::vector<WebsiteId> out;
  for (const std::int64_t key : probe_cells(p, radius_km)) {
    for (const WebsiteId id : passing_index_.at(key)) {
      if (geo::distance_km(websites_[id].poi_location, p) <= radius_km) {
        out.push_back(id);
      }
    }
  }
  return out;
}

}  // namespace geoloc::landmark
