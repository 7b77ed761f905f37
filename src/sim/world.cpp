#include "sim/world.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "geo/geodesy.h"

namespace geoloc::sim {

std::string_view to_string(AsCategory c) noexcept {
  switch (c) {
    case AsCategory::Content: return "Content";
    case AsCategory::Access: return "Access";
    case AsCategory::TransitAccess: return "Transit/Access";
    case AsCategory::Enterprise: return "Enterprise";
    case AsCategory::Tier1: return "Tier-1";
    case AsCategory::Unknown: return "Unknown";
  }
  return "?";
}

std::span<const AsCategory> all_as_categories() noexcept {
  static constexpr std::array<AsCategory, 6> kAll = {
      AsCategory::Content,    AsCategory::Access, AsCategory::TransitAccess,
      AsCategory::Enterprise, AsCategory::Tier1,  AsCategory::Unknown};
  return kAll;
}

std::span<const std::string_view> as_sector_names() noexcept {
  // ASdb taxonomy (Ziv et al., IMC 2021), 16 top-level categories.
  static constexpr std::array<std::string_view, 16> kSectors = {
      "Computer and Information Technology",
      "Education and Research",
      "Finance and Insurance",
      "Media, Publishing, and Broadcasting",
      "Government and Public Administration",
      "Retail Stores, Wholesale, and E-commerce Sites",
      "Manufacturing",
      "Health Care Services",
      "Utilities (Excluding Internet Service)",
      "Freight, Shipment, and Postal Services",
      "Travel and Accommodation",
      "Construction and Real Estate",
      "Museums, Libraries, and Entertainment",
      "Community Groups and Nonprofits",
      "Agriculture, Mining, and Refineries",
      "Service",
  };
  return kSectors;
}

std::string_view to_string(HostKind k) noexcept {
  switch (k) {
    case HostKind::Anchor: return "anchor";
    case HostKind::Probe: return "probe";
    case HostKind::Representative: return "representative";
    case HostKind::WebServer: return "webserver";
    case HostKind::Router: return "router";
  }
  return "?";
}

World::World(const WorldConfig& config)
    : config_(config), rng_(config.seed) {
  build_places();
  // A dedicated backbone AS owns all topology routers. Every real city gets
  // its router up front so traceroute paths always have their waypoints;
  // satellite-town routers appear when hosts move in.
  router_as_ = create_as(AsCategory::Tier1, 0);
  for (PlaceId city : cities_) router_of(city);
}

void World::build_places() {
  const auto records = gazetteer();
  places_.reserve(records.size() * 4);
  cities_.reserve(records.size());

  for (const CityRecord& r : records) {
    Place p;
    p.name = std::string(r.name);
    p.country = std::string(r.country);
    p.continent = r.continent;
    p.location = geo::GeoPoint{r.lat_deg, r.lon_deg};
    p.population_k = r.population_k;
    p.satellite = false;
    p.parent = static_cast<PlaceId>(places_.size());
    cities_.push_back(p.parent);
    places_.push_back(std::move(p));
  }
  satellites_of_.resize(places_.size());

  // Procedural satellite towns: the long tail of locations and a finer
  // population surface. Count scales gently with the parent's population.
  auto gen = rng_.fork("satellites").gen();
  const std::size_t ncities = places_.size();
  for (PlaceId city = 0; city < ncities; ++city) {
    const Place parent = places_[city];
    const double scale =
        std::clamp(std::log10(std::max(parent.population_k, 10.0)) / 4.0, 0.3, 1.5);
    const int count = static_cast<int>(
        std::floor(config_.satellites_per_city * scale + gen.uniform()));
    for (int i = 0; i < count; ++i) {
      Place sat;
      sat.name = parent.name + " / town-" + std::to_string(i + 1);
      sat.country = parent.country;
      sat.continent = parent.continent;
      const double r =
          gen.uniform(config_.satellite_min_km, config_.satellite_max_km);
      sat.location = geo::destination(parent.location, gen.uniform(0.0, 360.0), r);
      sat.population_k =
          parent.population_k * gen.uniform(0.01, 0.12);
      sat.satellite = true;
      sat.parent = city;
      satellites_of_[city].push_back(static_cast<PlaceId>(places_.size()));
      places_.push_back(std::move(sat));
    }
  }
  satellites_of_.resize(places_.size());

  // Regional access quality: draw each real city's tromboning penalty.
  {
    auto qgen = rng_.fork("city-quality").gen();
    city_penalty_ms_.assign(cities_.size(), 0.0);
    city_local_peering_.assign(cities_.size(), 1);
    for (PlaceId city : cities_) {
      const auto cont = static_cast<std::size_t>(places_[city].continent);
      if (qgen.chance(config_.poorly_connected_city_prob[cont])) {
        city_penalty_ms_[city] = config_.access_penalty_floor_ms +
                                 qgen.exponential(config_.access_penalty_mean_ms);
        city_local_peering_[city] =
            qgen.chance(config_.local_peering_rate) ? 1 : 0;
        poor_cities_.push_back(city);
      }
    }
  }

  // Population-weighted city sampling tables per continent.
  for (PlaceId city : cities_) {
    const auto key = static_cast<std::uint8_t>(places_[city].continent);
    city_by_continent_[key].push_back(city);
    auto& cum = city_cumweight_[key];
    const double prev = cum.empty() ? 0.0 : cum.back();
    // sqrt damping: without it the biggest metros soak up nearly all hosts.
    cum.push_back(prev + std::sqrt(places_[city].population_k));
  }
}

double World::access_penalty_ms(PlaceId place) const {
  const PlaceId parent = places_.at(place).parent;
  return parent < city_penalty_ms_.size() ? city_penalty_ms_[parent] : 0.0;
}

bool World::has_local_peering(PlaceId place) const {
  const PlaceId parent = places_.at(place).parent;
  return parent >= city_local_peering_.size() ||
         city_local_peering_[parent] != 0;
}

net::Asn World::create_as(AsCategory category, int sector) {
  const net::Asn asn{static_cast<std::uint32_t>(64500 + ases_.size())};
  as_index_[asn.value] = ases_.size();
  ases_.push_back(AsInfo{asn, category, sector});
  return asn;
}

const AsInfo& World::as_info(net::Asn asn) const {
  const auto it = as_index_.find(asn.value);
  if (it == as_index_.end()) throw std::out_of_range("unknown ASN");
  return ases_[it->second];
}

net::Prefix World::allocate_site_prefix(net::Asn asn) {
  auto block_it = as_current_block_.find(asn.value);
  if (block_it == as_current_block_.end() || as_next_site_[asn.value] >= 256) {
    // Allocate a fresh /16 to this AS and announce it. The plan ends at
    // 255.255.0.0/16: past it the counter would wrap to 0.0.0.0/16 and then
    // reissue 1.0.0.0/16.
    if (next_block16_ == 0) {
      throw std::length_error("allocate_site_prefix: /16 plan exhausted");
    }
    const std::uint32_t base = next_block16_;
    next_block16_ += 0x10000;
    as_current_block_[asn.value] = base;
    as_next_site_[asn.value] = 0;
    bgp_blocks_.push_back(AnnouncedBlock{asn, {}});
    block_it = as_current_block_.find(asn.value);
  }
  const std::uint32_t site = as_next_site_[asn.value]++;
  const net::Prefix p{net::IPv4Address{block_it->second + (site << 8)}, 24};
  // Some sites are separately announced as more-specifics; this is what the
  // landmark/target same-BGP-prefix analysis (Section 5.2.3) observes.
  auto gen = rng_.fork("announce", p.network().value()).gen();
  if (gen.chance(config_.more_specific_announce_rate)) {
    bgp_blocks_[(block_it->second - kFirstBlock16) >> 16].announced_sites.set(
        site);
  }
  return p;
}

std::optional<std::pair<net::Prefix, net::Asn>> World::bgp_lookup(
    net::IPv4Address addr) const {
  // Unsigned wrap: addresses below 1.0.0.0 index past every block.
  const std::uint32_t block = (addr.value() - kFirstBlock16) >> 16;
  if (block >= bgp_blocks_.size()) return std::nullopt;
  const AnnouncedBlock& b = bgp_blocks_[block];
  const bool more_specific = b.announced_sites.test((addr.value() >> 8) & 0xFF);
  return std::pair{net::Prefix{addr, more_specific ? 24 : 16}, b.asn};
}

HostId World::add_host(Host host) {
  host.id = static_cast<HostId>(hosts_.size());
  if (host.reported_location == geo::GeoPoint{} && !host.misgeolocated) {
    host.reported_location = host.true_location;
  }
  host_by_addr_[host.addr.value()] = host.id;
  hosts_.push_back(host);
  return host.id;
}

std::optional<HostId> World::find_by_addr(net::IPv4Address a) const {
  const auto it = host_by_addr_.find(a.value());
  if (it == host_by_addr_.end()) return std::nullopt;
  return it->second;
}

void World::misgeolocate(HostId id, const geo::GeoPoint& reported) {
  Host& h = hosts_.at(id);
  h.reported_location = reported;
  h.misgeolocated = true;
}

void World::relocate_host(HostId id, PlaceId place, const geo::GeoPoint& location) {
  router_of(place);  // the new place joins the topology before hosts land
  Host& h = hosts_.at(id);
  h.place = place;
  h.true_location = location;
  if (!h.misgeolocated) h.reported_location = location;
}

void World::set_responsive(HostId id, bool responsive) {
  hosts_.at(id).responsive = responsive;
}

HostId World::router_of(PlaceId place) {
  const auto it = router_by_place_.find(place);
  if (it != router_by_place_.end()) return it->second;
  Host router;
  router.kind = HostKind::Router;
  router.asn = router_as_;
  router.place = place;
  router.true_location = places_.at(place).location;
  router.reported_location = router.true_location;
  router.addr = net::IPv4Address{0xC0000000 + place};  // 192.0.0.0 + place id
  router.last_mile_ms = 0.0;
  const HostId id = add_host(router);
  router_by_place_[place] = id;
  return id;
}

HostId World::router_of(PlaceId place) const noexcept {
  const auto it = router_by_place_.find(place);
  return it == router_by_place_.end() ? kInvalidHost : it->second;
}

PlaceId World::sample_place(Continent continent, double satellite_bias,
                            util::Pcg32& gen) const {
  const auto key = static_cast<std::uint8_t>(continent);
  const auto cum_it = city_cumweight_.find(key);
  const auto cities_it = city_by_continent_.find(key);
  if (cum_it == city_cumweight_.end() || cum_it->second.empty()) {
    throw std::out_of_range("no cities on continent");
  }
  const auto& cum = cum_it->second;
  const double u = gen.uniform(0.0, cum.back());
  const auto pos = std::lower_bound(cum.begin(), cum.end(), u);
  const std::size_t idx = static_cast<std::size_t>(pos - cum.begin());
  const PlaceId city = cities_it->second[std::min(idx, cum.size() - 1)];
  if (gen.chance(satellite_bias) && !satellites_of_[city].empty()) {
    return satellites_of_[city][gen.index(satellites_of_[city].size())];
  }
  return city;
}

geo::GeoPoint World::sample_location(PlaceId place, double mean_offset_km,
                                     util::Pcg32& gen) const {
  const Place& p = places_.at(place);
  const double r = gen.exponential(mean_offset_km);
  return geo::destination(p.location, gen.uniform(0.0, 360.0), r);
}

int World::hotspot_count(PlaceId place) const {
  const Place& p = places_.at(place);
  if (p.satellite) return 2;
  return 3 + std::min(9, static_cast<int>(p.population_k / 1200.0));
}

geo::GeoPoint World::hotspot(PlaceId place, int k) const {
  const Place& p = places_.at(place);
  auto gen = rng_.fork("hotspot", (std::uint64_t{place} << 8) |
                                      static_cast<std::uint64_t>(k))
                 .gen();
  // Hotspot 0 is the centre itself; the rest ring the core.
  if (k == 0) return p.location;
  const double r = 1.0 + gen.exponential(4.0);
  return geo::destination(p.location, gen.uniform(0.0, 360.0), r);
}

geo::GeoPoint World::sample_urban_location(PlaceId place, double hotspot_prob,
                                           double tight_km, double loose_km,
                                           util::Pcg32& gen) const {
  if (gen.chance(hotspot_prob)) {
    const int k = static_cast<int>(
        gen.bounded(static_cast<std::uint32_t>(hotspot_count(place))));
    const geo::GeoPoint h = hotspot(place, k);
    return geo::destination(h, gen.uniform(0.0, 360.0),
                            gen.exponential(tight_km));
  }
  return sample_location(place, loose_km, gen);
}

}  // namespace geoloc::sim
