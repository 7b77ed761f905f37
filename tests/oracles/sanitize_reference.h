// Test oracle: the Section 4.3 sanitisers as the serial loops they were
// before the pair sweep moved onto the pool — one min_rtt_ms per (row,
// column) pair, drawn from the sanitiser's generator in (i, j) order, then
// the same iterative worst-offender removal. dataset::sanitize_anchors and
// dataset::sanitize_probes must return exactly what these return (kept,
// removed and violating_pairs) at any worker count.
//
// Cost: one scalar base_rtt_ms per pair. Use only in tests.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dataset/sanitize.h"
#include "geo/constants.h"
#include "geo/geodesy.h"

namespace geoloc::oracle {

namespace detail {

struct SanitizeViolation {
  sim::HostId a;
  sim::HostId b;
};

inline dataset::SanitizeResult iterative_removal_reference(
    const std::vector<sim::HostId>& candidates,
    const std::vector<SanitizeViolation>& violations) {
  dataset::SanitizeResult result;
  result.violating_pairs = violations.size();

  std::unordered_map<sim::HostId, std::vector<std::size_t>> by_host;
  std::unordered_map<sim::HostId, int> count;
  const std::unordered_set<sim::HostId> candidate_set(candidates.begin(),
                                                      candidates.end());
  for (std::size_t i = 0; i < violations.size(); ++i) {
    for (sim::HostId h : {violations[i].a, violations[i].b}) {
      if (candidate_set.contains(h)) {
        by_host[h].push_back(i);
        ++count[h];
      }
    }
  }

  std::vector<bool> violation_active(violations.size(), true);
  std::unordered_set<sim::HostId> removed;
  for (;;) {
    sim::HostId worst = sim::kInvalidHost;
    int worst_count = 0;
    for (const auto& [host, c] : count) {
      if (c > worst_count || (c == worst_count && c > 0 &&
                              (worst == sim::kInvalidHost || host < worst))) {
        worst = host;
        worst_count = c;
      }
    }
    if (worst_count == 0) break;
    removed.insert(worst);
    result.removed.push_back(worst);
    for (std::size_t vi : by_host[worst]) {
      if (!violation_active[vi]) continue;
      violation_active[vi] = false;
      for (sim::HostId h : {violations[vi].a, violations[vi].b}) {
        auto it = count.find(h);
        if (it != count.end()) --it->second;
      }
    }
    count.erase(worst);
  }

  for (sim::HostId h : candidates) {
    if (!removed.contains(h)) result.kept.push_back(h);
  }
  return result;
}

inline double effective_soi_reference(const dataset::SanitizeConfig& config) {
  return config.soi_km_per_ms > 0.0 ? config.soi_km_per_ms
                                    : geo::kSoiTwoThirdsKmPerMs;
}

}  // namespace detail

/// The anchor mesh: every unordered anchor pair once, src = the earlier.
inline dataset::SanitizeResult sanitize_anchors_reference(
    const sim::LatencyModel& latency, const std::vector<sim::HostId>& anchors,
    const dataset::SanitizeConfig& config = {}) {
  const double soi = detail::effective_soi_reference(config);
  const sim::World& world = latency.world();
  auto gen = world.rng().fork("sanitize-anchors").gen();

  std::vector<detail::SanitizeViolation> violations;
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    for (std::size_t j = i + 1; j < anchors.size(); ++j) {
      const auto rtt =
          latency.min_rtt_ms(anchors[i], anchors[j], config.ping_packets, gen);
      if (!rtt) continue;
      const double reported_d =
          geo::distance_km(world.host(anchors[i]).reported_location,
                           world.host(anchors[j]).reported_location);
      if (geo::violates_soi(*rtt, reported_d, soi)) {
        violations.push_back({anchors[i], anchors[j]});
      }
    }
  }
  return detail::iterative_removal_reference(anchors, violations);
}

/// Every probe against every verified anchor, src = the probe.
inline dataset::SanitizeResult sanitize_probes_reference(
    const sim::LatencyModel& latency, const std::vector<sim::HostId>& probes,
    const std::vector<sim::HostId>& good_anchors,
    const dataset::SanitizeConfig& config = {}) {
  const double soi = detail::effective_soi_reference(config);
  const sim::World& world = latency.world();
  auto gen = world.rng().fork("sanitize-probes").gen();

  std::vector<detail::SanitizeViolation> violations;
  for (sim::HostId probe : probes) {
    const geo::GeoPoint probe_loc = world.host(probe).reported_location;
    for (sim::HostId anchor : good_anchors) {
      const auto rtt =
          latency.min_rtt_ms(probe, anchor, config.ping_packets, gen);
      if (!rtt) continue;
      const double reported_d =
          geo::distance_km(probe_loc, world.host(anchor).reported_location);
      if (geo::violates_soi(*rtt, reported_d, soi)) {
        violations.push_back({probe, anchor});
      }
    }
  }
  return detail::iterative_removal_reference(probes, violations);
}

}  // namespace geoloc::oracle
