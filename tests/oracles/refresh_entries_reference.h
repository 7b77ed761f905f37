// Test oracle: the original serial publish::refresh_entries, kept verbatim
// so the pooled one (one CBG solve per target on util::parallel_map, then
// an in-order drop of Unlocatable records) can be pinned record for record.
// Use only in tests.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "atlas/executor.h"
#include "core/cbg.h"
#include "publish/compile.h"
#include "publish/snapshot.h"
#include "scenario/scenario.h"

namespace geoloc::publish::oracle {

inline std::vector<Record> refresh_entries_reference(
    const scenario::Scenario& s, const atlas::CampaignReport& report,
    const CompileOptions& options = {}) {
  const auto ttl_for = [&](core::CbgVerdict tier) {
    switch (tier) {
      case core::CbgVerdict::Ok: return options.ok_ttl_s;
      case core::CbgVerdict::Degraded: return options.degraded_ttl_s;
      case core::CbgVerdict::Unlocatable: return options.fallback_ttl_s;
    }
    return options.fallback_ttl_s;
  };
  // Group the campaign's usable pings by target, in target order.
  std::map<sim::HostId, std::vector<core::VpObservation>> by_target;
  for (const atlas::PingMeasurement& m : report.results) {
    if (!m.answered()) continue;
    by_target[m.target].push_back(core::VpObservation{
        s.world().host(m.vp).reported_location, *m.min_rtt_ms});
  }

  std::vector<Record> out;
  out.reserve(by_target.size());
  for (const auto& [target, observations] : by_target) {
    const core::CbgResult cbg = core::cbg_geolocate(observations, options.cbg);
    Record r;
    r.prefix = net::slash24_of(s.world().host(target).addr);
    r.method = Method::Cbg;
    r.tier = cbg.verdict;
    r.location = cbg.estimate;
    r.confidence_radius_km = static_cast<float>(cbg.confidence_radius_km);
    r.measured_at_s = options.measured_at_s;
    r.ttl_s = ttl_for(r.tier);
    r.provenance = "cbg/remeasured:obs=" + std::to_string(observations.size()) +
                   ",disks=" + std::to_string(cbg.surviving_constraints);
    if (r.tier == core::CbgVerdict::Unlocatable) continue;  // keep old entry
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace geoloc::publish::oracle
