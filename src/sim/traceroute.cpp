#include "sim/traceroute.h"

#include <algorithm>
#include <cmath>

#include "geo/geodesy.h"

namespace geoloc::sim {

std::optional<double> Traceroute::destination_rtt_ms() const {
  if (!reached || hops.empty()) return std::nullopt;
  return hops.back().rtt_ms;
}

TracerouteEngine::TracerouteEngine(const World& world,
                                   const LatencyModel& latency)
    : world_(&world), latency_(&latency) {
  std::vector<geo::GeoPoint> locs;
  locs.reserve(world.cities().size());
  for (const PlaceId city : world.cities()) {
    locs.push_back(world.place(city).location);
  }
  city_ranker_ = geo::NearestRanker(locs);
}

PlaceId TracerouteEngine::nearest_city(const geo::GeoPoint& p,
                                       PlaceId exclude_a,
                                       PlaceId exclude_b) const {
  // The two excluded cities can take at most two of the three nearest.
  const auto cities = world_->cities();
  for (const auto& [km, i] : city_ranker_.rank(p, 3)) {
    if (cities[i] != exclude_a && cities[i] != exclude_b) return cities[i];
  }
  return exclude_a;
}

const std::vector<PlaceId>& TracerouteEngine::waypoints(
    PlaceId src_city, PlaceId dst_city) const {
  const std::uint64_t key = (std::uint64_t{src_city} << 32) | dst_city;
  const auto it = waypoint_cache_.find(key);
  if (it != waypoint_cache_.end()) return it->second;
  return waypoint_cache_.emplace(key, compute_waypoints(src_city, dst_city))
      .first->second;
}

std::vector<PlaceId> TracerouteEngine::compute_waypoints(
    PlaceId src_city, PlaceId dst_city) const {
  if (src_city == dst_city) return {};
  const geo::GeoPoint a = world_->place(src_city).location;
  const geo::GeoPoint b = world_->place(dst_city).location;
  const double d = geo::distance_km(a, b);
  std::vector<PlaceId> out;
  if (d < 500.0) return out;
  if (d < 4000.0) {
    const PlaceId mid = nearest_city(geo::midpoint(a, b), src_city, dst_city);
    if (mid != src_city && mid != dst_city) out.push_back(mid);
    return out;
  }
  // Long haul: waypoints near the 1/3 and 2/3 great-circle points.
  const double bearing = geo::initial_bearing_deg(a, b);
  const PlaceId w1 =
      nearest_city(geo::destination(a, bearing, d / 3.0), src_city, dst_city);
  if (w1 != src_city && w1 != dst_city) out.push_back(w1);
  const PlaceId w2 = nearest_city(geo::destination(a, bearing, 2.0 * d / 3.0),
                                  src_city, dst_city);
  if (w2 != src_city && w2 != dst_city && (out.empty() || w2 != out.back())) {
    out.push_back(w2);
  }
  return out;
}

std::vector<HostId> TracerouteEngine::path_routers(HostId src,
                                                   HostId dst) const {
  const Host& s = world_->host(src);
  const Host& t = world_->host(dst);
  const PlaceId src_city = world_->place(s.place).parent;
  const PlaceId dst_city = world_->place(t.place).parent;

  std::vector<HostId> routers;
  auto push_router = [&](PlaceId place) {
    const HostId r = world_->router_of(place);
    if (r != kInvalidHost && (routers.empty() || routers.back() != r)) {
      routers.push_back(r);
    }
  };
  push_router(s.place);
  if (s.place != src_city) push_router(src_city);
  for (PlaceId w : waypoints(src_city, dst_city)) push_router(w);
  if (dst_city != t.place) push_router(dst_city);
  push_router(t.place);
  return routers;
}

Traceroute TracerouteEngine::run(HostId src, HostId dst,
                                 util::Pcg32& gen) const {
  Traceroute tr;
  tr.src = src;
  tr.dst = dst;

  for (HostId router : path_routers(src, dst)) {
    TraceHop hop;
    hop.host = router;
    hop.addr = world_->host(router).addr;
    if (gen.chance(hop_no_reply_rate_)) {
      hop.responded = false;
      hop.rtt_ms = 0.0;
    } else {
      // Successive hop RTTs are kept monotone in expectation but not
      // strictly: real traceroutes routinely report a later hop faster than
      // an earlier one, which is exactly the noise the paper observed.
      hop.rtt_ms = latency_->router_hop_rtt_ms(src, router, gen);
    }
    tr.hops.push_back(hop);
  }

  TraceHop final_hop;
  final_hop.host = dst;
  final_hop.addr = world_->host(dst).addr;
  const auto rtt = latency_->min_rtt_ms(src, dst, /*packets=*/1, gen);
  if (rtt) {
    final_hop.rtt_ms = *rtt;
    tr.reached = true;
  } else {
    final_hop.responded = false;
  }
  tr.hops.push_back(final_hop);
  return tr;
}

std::optional<std::size_t> TracerouteEngine::last_common_hop(
    const Traceroute& a, const Traceroute& b) {
  const std::size_t n = std::min(a.hops.size(), b.hops.size());
  std::optional<std::size_t> last;
  for (std::size_t i = 0; i < n; ++i) {
    if (a.hops[i].host != b.hops[i].host) break;
    if (a.hops[i].responded && b.hops[i].responded) last = i;
  }
  return last;
}

}  // namespace geoloc::sim
