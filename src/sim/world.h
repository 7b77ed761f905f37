// The simulated Internet's static structure: places (real cities plus
// procedurally generated satellite towns), autonomous systems, hosts,
// address allocation and a BGP-style origin table.
//
// The World holds no latency logic (see sim/latency_model.h) and no
// measurement logic (see atlas/platform.h); it is the registry those
// components read.
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geo/geopoint.h"
#include "net/ipv4.h"
#include "sim/city.h"
#include "util/rng.h"

namespace geoloc::sim {

/// CAIDA-style AS business categories (paper Table 2).
enum class AsCategory : std::uint8_t {
  Content,
  Access,
  TransitAccess,
  Enterprise,
  Tier1,
  Unknown,
};
std::string_view to_string(AsCategory c) noexcept;
std::span<const AsCategory> all_as_categories() noexcept;

/// ASdb-style sector labels (16 categories; paper Section 4.4.1).
std::span<const std::string_view> as_sector_names() noexcept;

struct AsInfo {
  net::Asn asn;
  AsCategory category = AsCategory::Unknown;
  int sector = 0;  ///< index into as_sector_names()
};

/// Index into World::places().
using PlaceId = std::uint32_t;

/// A city or satellite town where hosts can be located.
struct Place {
  std::string name;
  std::string country;
  Continent continent = Continent::EU;
  geo::GeoPoint location;
  double population_k = 0.0;
  bool satellite = false;   ///< procedurally generated town
  PlaceId parent = 0;       ///< the real city this satellite orbits (self for cities)
};

/// Index into World::hosts().
using HostId = std::uint32_t;
inline constexpr HostId kInvalidHost = ~HostId{0};

enum class HostKind : std::uint8_t {
  Anchor,          ///< RIPE Atlas anchor (target and VP)
  Probe,           ///< RIPE Atlas probe (VP only)
  Representative,  ///< hitlist address in a target's /24
  WebServer,       ///< hosts a website (landmark candidate)
  Router,          ///< topology waypoint
};
std::string_view to_string(HostKind k) noexcept;

struct Host {
  HostId id = kInvalidHost;
  net::IPv4Address addr;
  net::Asn asn;
  PlaceId place = 0;
  HostKind kind = HostKind::Router;
  geo::GeoPoint true_location;
  geo::GeoPoint reported_location;  ///< differs when misgeolocated
  double last_mile_ms = 0.0;        ///< deterministic access-delay component
  bool misgeolocated = false;
  bool responsive = true;
};

struct WorldConfig {
  std::uint64_t seed = 20230415;      ///< the study's measurement period
  double satellites_per_city = 2.5;   ///< mean satellite towns per real city
  double satellite_min_km = 12.0;     ///< satellite distance band
  double satellite_max_km = 75.0;
  double more_specific_announce_rate = 0.3;  ///< sites announcing their /24 in BGP

  /// Regional access quality. In a "poorly connected" city, traffic to or
  /// from ANY local host detours through remote exchange points
  /// (tromboning), adding a flat per-endpoint delay. This is the mechanism
  /// behind the IMC'23 paper's high-error targets whose *close* probes
  /// still reported ~8 ms (Section 5.1.5), and the model's main lever on
  /// the all-VP CBG city-level fraction (73% in the paper).
  std::array<double, 6> poorly_connected_city_prob = {
      // indexed by Continent: AF, AS, EU, NA, OC, SA
      0.04, 0.58, 0.40, 0.50, 0.62, 0.62};
  double access_penalty_floor_ms = 2.0;
  double access_penalty_mean_ms = 4.5;  ///< exponential above the floor
  /// Fraction of poorly connected cities that still have a metro exchange:
  /// intra-city traffic stays local (no penalty) even though every
  /// inter-city path trombones.
  double local_peering_rate = 0.5;
};

/// The static world. Built incrementally by dataset/scenario builders,
/// then treated as immutable by measurement engines.
class World {
 public:
  explicit World(const WorldConfig& config = {});

  // -- places ------------------------------------------------------------
  [[nodiscard]] std::span<const Place> places() const noexcept { return places_; }
  [[nodiscard]] const Place& place(PlaceId id) const { return places_.at(id); }
  /// Ids of non-satellite (real-city) places.
  [[nodiscard]] std::span<const PlaceId> cities() const noexcept { return cities_; }

  /// Per-endpoint tromboning delay of the place's parent city (0 for well
  /// connected cities). Added to every RTT with an endpoint there.
  [[nodiscard]] double access_penalty_ms(PlaceId place) const;
  /// True when the place's parent city keeps intra-city traffic local (its
  /// access penalty is waived for same-city pairs).
  [[nodiscard]] bool has_local_peering(PlaceId place) const;
  /// Cities with a non-zero access penalty.
  [[nodiscard]] std::span<const PlaceId> poorly_connected_cities()
      const noexcept {
    return poor_cities_;
  }

  // -- autonomous systems -------------------------------------------------
  /// Mint a new AS with the given category and sector.
  net::Asn create_as(AsCategory category, int sector);
  [[nodiscard]] const AsInfo& as_info(net::Asn asn) const;
  [[nodiscard]] std::span<const AsInfo> ases() const noexcept { return ases_; }

  // -- addressing ---------------------------------------------------------
  /// Allocate the next /24 site prefix owned by `asn`; registers the
  /// covering /16 (and sometimes the /24 itself) in the BGP table. The
  /// /16s run from 1.0.0.0 to 255.255.0.0; throws std::length_error when
  /// a new one is needed past the last.
  net::Prefix allocate_site_prefix(net::Asn asn);
  /// BGP-style origin lookup: the longest announced prefix covering `addr`
  /// (the site's /24 when it was announced, else its /16), or nullopt.
  [[nodiscard]] std::optional<std::pair<net::Prefix, net::Asn>> bgp_lookup(
      net::IPv4Address addr) const;

  // -- hosts --------------------------------------------------------------
  /// Register a host; fills in its id and returns it.
  HostId add_host(Host host);
  [[nodiscard]] const Host& host(HostId id) const { return hosts_.at(id); }
  [[nodiscard]] std::span<const Host> hosts() const noexcept { return hosts_; }
  [[nodiscard]] std::size_t host_count() const noexcept { return hosts_.size(); }
  [[nodiscard]] std::optional<HostId> find_by_addr(net::IPv4Address a) const;

  /// Mark a host as misgeolocated: its reported location is moved to
  /// `reported` while its true location (and therefore its latencies)
  /// stay put. Used to seed the Section 4.3 sanitisation experiment.
  void misgeolocate(HostId id, const geo::GeoPoint& reported);

  /// Move a host to a new place (tenancy change: the address now terminates
  /// somewhere else, so its latencies change from the next measurement on).
  /// The reported location follows the true one unless the host was
  /// misgeolocated — a liar keeps lying from its new home. Ensures the new
  /// place has a topology router. Used by the churn model (sim/churn.h).
  void relocate_host(HostId id, PlaceId place, const geo::GeoPoint& location);

  /// (De)commission a host: an unresponsive host answers no echo request
  /// until recommissioned. Used by the churn model for retired anchors/VPs.
  void set_responsive(HostId id, bool responsive);

  /// The topology router serving a place (created on demand).
  HostId router_of(PlaceId place);
  /// Const lookup; kInvalidHost when the place has no router yet.
  [[nodiscard]] HostId router_of(PlaceId place) const noexcept;

  // -- misc ---------------------------------------------------------------
  [[nodiscard]] const WorldConfig& config() const noexcept { return config_; }
  [[nodiscard]] util::RngStream rng() const noexcept { return rng_; }

  /// Pick a place for a new host: a real city chosen with probability
  /// proportional to population within `continent`, then possibly displaced
  /// to one of its satellites with probability `satellite_bias`.
  PlaceId sample_place(Continent continent, double satellite_bias,
                       util::Pcg32& gen) const;

  /// A concrete location for a host in `place`: the place centre displaced
  /// by an exponential radial offset with the given mean.
  geo::GeoPoint sample_location(PlaceId place, double mean_offset_km,
                                util::Pcg32& gen) const;

  /// Urban fabric: every place has a deterministic set of hotspots
  /// (business districts, campuses, datacenter parks). Anchors and locally
  /// hosted websites both concentrate there — the spatial correlation
  /// behind the street-level paper's "there is a landmark near the target"
  /// insight and our Figure 5b calibration.
  [[nodiscard]] int hotspot_count(PlaceId place) const;
  [[nodiscard]] geo::GeoPoint hotspot(PlaceId place, int k) const;

  /// Sample a location that sits near a hotspot with probability
  /// `hotspot_prob` (displaced exponentially with mean `tight_km`),
  /// otherwise anywhere around the place centre (mean `loose_km`).
  geo::GeoPoint sample_urban_location(PlaceId place, double hotspot_prob,
                                      double tight_km, double loose_km,
                                      util::Pcg32& gen) const;

 private:
  void build_places();

  WorldConfig config_;
  util::RngStream rng_;
  std::vector<Place> places_;
  std::vector<PlaceId> cities_;
  std::vector<double> city_penalty_ms_;  // indexed by city PlaceId
  std::vector<char> city_local_peering_;  // indexed by city PlaceId
  std::vector<PlaceId> poor_cities_;
  // population-weighted sampling: per continent, cumulative weights over cities_
  std::unordered_map<std::uint8_t, std::vector<double>> city_cumweight_;
  std::unordered_map<std::uint8_t, std::vector<PlaceId>> city_by_continent_;
  // satellites of each city
  std::vector<std::vector<PlaceId>> satellites_of_;

  std::vector<AsInfo> ases_;
  std::unordered_map<std::uint32_t, std::size_t> as_index_;
  std::unordered_map<std::uint32_t, std::uint32_t> as_current_block_;  // asn -> /16 base
  std::unordered_map<std::uint32_t, std::uint32_t> as_next_site_;     // asn -> next /24 index
  // The BGP table. Announcements follow the address plan: each is a /16
  // handed out in order from kFirstBlock16, or a /24 inside its AS's own
  // /16. So the longest match is exact without a general LPM: one entry
  // per allocated /16, indexed by (addr - kFirstBlock16) >> 16, recording
  // its AS and which of its 256 /24s were announced as more-specifics.
  struct AnnouncedBlock {
    net::Asn asn;
    std::bitset<256> announced_sites;
  };
  static constexpr std::uint32_t kFirstBlock16 = 0x01000000;  // 1.0.0.0
  std::uint32_t next_block16_ = kFirstBlock16;  // advances by /16
  std::vector<AnnouncedBlock> bgp_blocks_;

  std::vector<Host> hosts_;
  std::unordered_map<std::uint32_t, HostId> host_by_addr_;
  std::unordered_map<PlaceId, HostId> router_by_place_;
  net::Asn router_as_{};
};

}  // namespace geoloc::sim
