// Test oracle: the original scan-everything re-measurement planners, kept
// verbatim so the production planner (serve::plan_remeasurement, which
// ranks VPs once per prefix behind a chord-length filter and finds targets
// through an address-sorted index) can be pinned request for request.
//
// Cost: O(stale x targets) containment scans plus, for the proximity
// overload, a full O(V log V) sort of every VP per target. Use only in
// tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "atlas/scheduler.h"
#include "geo/geodesy.h"
#include "publish/snapshot.h"
#include "scenario/scenario.h"

namespace geoloc::serve::oracle {

/// Stride-spread planner: for every target inside a stale prefix, `k` VPs
/// strided through the pool from a per-target offset.
inline std::vector<atlas::MeasurementRequest> plan_remeasurement_reference(
    const scenario::Scenario& s, std::span<const net::Prefix> stale,
    std::span<const sim::HostId> vps, std::size_t vps_per_target,
    int packets) {
  std::vector<atlas::MeasurementRequest> requests;
  if (vps.empty() || stale.empty()) return requests;
  const std::size_t k =
      vps_per_target == 0 ? vps.size() : std::min(vps_per_target, vps.size());
  for (const net::Prefix& prefix : stale) {
    for (std::size_t col = 0; col < s.targets().size(); ++col) {
      const sim::HostId target = s.targets()[col];
      if (!prefix.contains(s.world().host(target).addr)) continue;
      // Spread the VPs deterministically: stride through the VP set from a
      // per-target offset so successive targets reuse different VPs.
      const std::size_t stride = vps.size() / k ? vps.size() / k : 1;
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t row = (col + j * stride) % vps.size();
        requests.push_back(atlas::MeasurementRequest{
            .vp = vps[row],
            .target = target,
            .kind = atlas::MeasurementKind::Ping,
            .packets = packets});
      }
    }
  }
  return requests;
}

/// Proximity planner: guards first, then the nearest pool VPs to the
/// prefix's prior estimate, by (distance_km, pool index).
inline std::vector<atlas::MeasurementRequest> plan_remeasurement_reference(
    const scenario::Scenario& s, std::span<const net::Prefix> stale,
    const publish::Snapshot& prior, std::span<const sim::HostId> vps,
    std::size_t vps_per_target, int packets) {
  std::vector<atlas::MeasurementRequest> requests;
  if (vps.empty() || stale.empty()) return requests;
  const std::size_t k =
      vps_per_target == 0 ? vps.size() : std::min(vps_per_target, vps.size());
  // (distance to the prior estimate, pool index): recomputed per prefix,
  // tie-broken by pool order so the plan is bit-stable.
  std::vector<std::pair<double, std::size_t>> ranked(vps.size());
  for (const net::Prefix& prefix : stale) {
    const auto hit = prior.find(prefix.network());
    for (std::size_t col = 0; col < s.targets().size(); ++col) {
      const sim::HostId target = s.targets()[col];
      if (!prefix.contains(s.world().host(target).addr)) continue;
      if (!hit) {
        // No prior estimate (a prefix new to the dataset): stride spread.
        const std::size_t stride = vps.size() / k ? vps.size() / k : 1;
        for (std::size_t j = 0; j < k; ++j) {
          requests.push_back(atlas::MeasurementRequest{
              .vp = vps[(col + j * stride) % vps.size()],
              .target = target,
              .kind = atlas::MeasurementKind::Ping,
              .packets = packets});
        }
        continue;
      }
      // Guard VPs: a quarter of the budget stays globally spread so a
      // prefix that moved continents since `prior` still gets constraints
      // near its *new* home; without them every selected VP sits near the
      // stale estimate and the fix can't escape it.
      const std::size_t guards = k > 1 ? std::max<std::size_t>(1, k / 4) : 0;
      std::vector<std::size_t> rows;
      rows.reserve(k);
      const std::size_t stride = vps.size() / k ? vps.size() / k : 1;
      for (std::size_t j = 0; j < guards; ++j) {
        const std::size_t row = (col + j * stride) % vps.size();
        if (std::find(rows.begin(), rows.end(), row) == rows.end()) {
          rows.push_back(row);
        }
      }
      for (std::size_t row = 0; row < vps.size(); ++row) {
        ranked[row] = {geo::distance_km(
                           s.world().host(vps[row]).reported_location,
                           hit->location),
                       row};
      }
      std::sort(ranked.begin(), ranked.end());
      for (std::size_t j = 0; j < vps.size() && rows.size() < k; ++j) {
        const std::size_t row = ranked[j].second;
        if (std::find(rows.begin(), rows.end(), row) == rows.end()) {
          rows.push_back(row);
        }
      }
      for (const std::size_t row : rows) {
        requests.push_back(atlas::MeasurementRequest{
            .vp = vps[row],
            .target = target,
            .kind = atlas::MeasurementKind::Ping,
            .packets = packets});
      }
    }
  }
  return requests;
}

}  // namespace geoloc::serve::oracle
