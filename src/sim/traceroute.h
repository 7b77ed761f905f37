// Hop-by-hop traceroute synthesis.
//
// A path from src to dst traverses: the access router of src's place, zero
// or more backbone waypoint routers (deterministic function of the two
// endpoint cities, so two traceroutes from one VP share their path prefix
// exactly as the street-level paper's Figure 1c assumes), the access router
// of dst's place, and the destination itself.
//
// Router hop RTTs come from LatencyModel::router_hop_rtt_ms (reverse-path
// asymmetry + ICMP generation delay); the destination hop is an end-to-end
// ping. This is what makes the D1/D2 subtraction of the street-level paper
// noisy in our replication, as in the original study (Section 5.2.3 and
// Appendix B).
#pragma once

#include <optional>
#include <vector>

#include "geo/nearest.h"
#include "sim/latency_model.h"
#include "sim/world.h"
#include "util/rng.h"

namespace geoloc::sim {

struct TraceHop {
  HostId host = kInvalidHost;
  net::IPv4Address addr;
  double rtt_ms = 0.0;
  bool responded = true;  ///< false: '*' hop (no reply)
};

struct Traceroute {
  HostId src = kInvalidHost;
  HostId dst = kInvalidHost;
  std::vector<TraceHop> hops;  ///< access router ... destination
  bool reached = false;        ///< destination answered

  /// RTT of the final (destination) hop; nullopt if not reached.
  [[nodiscard]] std::optional<double> destination_rtt_ms() const;
};

class TracerouteEngine {
 public:
  /// Routers for every place on any path must already exist in the world
  /// (Scenario pre-creates them); the engine itself never mutates the world.
  TracerouteEngine(const World& world, const LatencyModel& latency);

  [[nodiscard]] Traceroute run(HostId src, HostId dst, util::Pcg32& gen) const;

  /// The sequence of router hosts a path traverses (no RTTs). Exposed for
  /// tests and for the last-common-hop analysis.
  [[nodiscard]] std::vector<HostId> path_routers(HostId src, HostId dst) const;

  /// Index (into both hop vectors) of the last common hop of two traceroutes
  /// from the same source; nullopt when they share no responding hop.
  static std::optional<std::size_t> last_common_hop(const Traceroute& a,
                                                    const Traceroute& b);

  /// The city nearest `p` other than the two excluded ones, by
  /// (distance_km(city, p), position in World::cities()); `exclude_a` when
  /// no other city exists. Exposed for tests.
  [[nodiscard]] PlaceId nearest_city(const geo::GeoPoint& p, PlaceId exclude_a,
                                     PlaceId exclude_b) const;

 private:
  /// Backbone waypoint cities between two (parent) cities. Memoised: the
  /// street-level campaign issues ~1k traceroutes per target and the
  /// nearest-city queries would otherwise dominate it.
  [[nodiscard]] const std::vector<PlaceId>& waypoints(PlaceId src_city,
                                                      PlaceId dst_city) const;
  [[nodiscard]] std::vector<PlaceId> compute_waypoints(PlaceId src_city,
                                                       PlaceId dst_city) const;

  const World* world_;
  const LatencyModel* latency_;
  /// World::cities() by location, in that order.
  geo::NearestRanker city_ranker_;
  double hop_no_reply_rate_ = 0.03;
  // (src_city << 32 | dst_city) -> waypoint list. Not thread-safe; each
  // thread should own its engine (they are cheap to copy).
  mutable std::unordered_map<std::uint64_t, std::vector<PlaceId>>
      waypoint_cache_;
};

}  // namespace geoloc::sim
