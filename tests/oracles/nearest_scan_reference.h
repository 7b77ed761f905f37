// Test oracles: the three scan-everything nearest-point rankings that
// geo::NearestRanker replaced, kept verbatim so the production paths can be
// pinned row for row.
//
//   chord_filter_rank — the proximity planner's per-prefix ranking
//     (serve::plan_remeasurement): an O(V) squared-chord pass, nth_element
//     for the M-th key, and an exact distance_km refine of every row within
//     kChordKeyMargin of it. Its output, candidates included, is what the
//     ranker must return.
//   nearest_vps — fusion's verifier choice: a full haversine over every
//     responsive VP and a partial_sort per claim.
//   nearest_city — the traceroute waypoint city: a strict-< scan over
//     World::cities() skipping two excluded cities.
//
// Cost: O(V) per query (O(V log k) for nearest_vps). Use only in tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "geo/geodesy.h"
#include "geo/geodesy_batch.h"
#include "sim/world.h"

namespace geoloc::oracle {

/// Margin, in squared-chord units, that the proximity planner's key filter
/// keeps past the M-th smallest key. Keys and the haversine term h = key/4
/// are both computed to ~1e-15, so a VP whose key exceeds the cut by this
/// much is at least 2R * 2.5e-13 km (hundreds of ulps) farther than each
/// of the M below it and can never enter the exact top M.
constexpr double kChordKeyMargin = 1e-12;

/// The planner's ranking of `vp_locs` (and their SoA `vp_pts`) around `q`
/// for the top `m`, 1 <= m <= vp_locs.size(): (distance, pool index),
/// sorted, every row whose key is within the margin of the m-th.
inline std::vector<std::pair<double, std::size_t>> chord_filter_rank(
    std::span<const geo::GeoPoint> vp_locs, const geo::PointsSoA& vp_pts,
    const geo::GeoPoint& q, std::size_t m) {
  const std::size_t n_vps = vp_locs.size();
  // Rank once per prefix. Squared chord to the prior's unit vector is
  // monotone in great-circle distance and needs no libm call, so it
  // filters the pool down to the candidates for the top M; only those
  // pay the exact distance_km, ranked by (distance, pool index).
  geo::PointsSoA here;
  here.push_back(q);
  const double px = here.x[0], py = here.y[0], pz = here.z[0];
  std::vector<double> keys(n_vps);
  for (std::size_t row = 0; row < n_vps; ++row) {
    const double dx = vp_pts.x[row] - px;
    const double dy = vp_pts.y[row] - py;
    const double dz = vp_pts.z[row] - pz;
    keys[row] = dx * dx + dy * dy + dz * dz;
  }
  std::vector<double> nth(keys);
  std::nth_element(nth.begin(), nth.begin() + (m - 1), nth.end());
  const double cut = nth[m - 1] + kChordKeyMargin;
  std::vector<std::pair<double, std::size_t>> ranked;
  for (std::size_t row = 0; row < n_vps; ++row) {
    if (keys[row] <= cut) {
      ranked.emplace_back(geo::distance_km(vp_locs[row], q), row);
    }
  }
  std::sort(ranked.begin(), ranked.end());
  return ranked;
}

/// The k responsive campaign VPs nearest to `p` (by reported location —
/// what an operator of the platform actually knows). Deterministic:
/// distance ties break on VP list order.
inline std::vector<sim::HostId> nearest_vps(const sim::World& world,
                                            std::span<const sim::HostId> vps,
                                            const geo::GeoPoint& p, int k) {
  struct Ranked {
    double dist;
    std::size_t index;
    sim::HostId vp;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(vps.size());
  for (std::size_t i = 0; i < vps.size(); ++i) {
    const sim::Host& host = world.host(vps[i]);
    if (!host.responsive) continue;
    ranked.push_back(
        Ranked{geo::distance_km(host.reported_location, p), i, vps[i]});
  }
  const std::size_t want =
      std::min(ranked.size(), static_cast<std::size_t>(std::max(k, 1)));
  std::partial_sort(ranked.begin(), ranked.begin() + want, ranked.end(),
                    [](const Ranked& a, const Ranked& b) {
                      return a.dist != b.dist ? a.dist < b.dist
                                              : a.index < b.index;
                    });
  std::vector<sim::HostId> out;
  out.reserve(want);
  for (std::size_t i = 0; i < want; ++i) out.push_back(ranked[i].vp);
  return out;
}

/// The traceroute engine's waypoint city: nearest to `p` by strict <
/// over World::cities(), skipping the two excluded cities.
inline sim::PlaceId nearest_city(const sim::World& world,
                                 const geo::GeoPoint& p,
                                 sim::PlaceId exclude_a,
                                 sim::PlaceId exclude_b) {
  sim::PlaceId best = exclude_a;
  double best_d = std::numeric_limits<double>::infinity();
  for (sim::PlaceId city : world.cities()) {
    if (city == exclude_a || city == exclude_b) continue;
    const double d = geo::distance_km(world.place(city).location, p);
    if (d < best_d) {
      best_d = d;
      best = city;
    }
  }
  return best;
}

}  // namespace geoloc::oracle
