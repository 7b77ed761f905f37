#include "publish/compile.h"

#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "core/million_scale.h"
#include "core/street_level.h"
#include "util/parallel.h"

namespace geoloc::publish {

namespace {

float ttl_for(core::CbgVerdict tier, const CompileOptions& o) noexcept {
  switch (tier) {
    case core::CbgVerdict::Ok: return o.ok_ttl_s;
    case core::CbgVerdict::Degraded: return o.degraded_ttl_s;
    case core::CbgVerdict::Unlocatable: return o.fallback_ttl_s;
  }
  return o.fallback_ttl_s;
}

Record base_record(const scenario::Scenario& s, std::size_t target_col,
                   const CompileOptions& o) {
  Record r;
  const sim::Host& host = s.world().host(s.targets()[target_col]);
  r.prefix = net::slash24_of(host.addr);
  r.measured_at_s = o.measured_at_s;
  return r;
}

/// All-VP CBG for one target column.
Record compile_cbg(const core::MillionScale& tools,
                   std::span<const std::size_t> all_rows,
                   const scenario::Scenario& s, std::size_t target_col,
                   const CompileOptions& o) {
  Record r = base_record(s, target_col, o);
  const core::CbgResult cbg = tools.geolocate(all_rows, target_col, o.cbg);
  r.method = Method::Cbg;
  r.tier = cbg.verdict;
  r.location = cbg.estimate;
  r.confidence_radius_km = static_cast<float>(cbg.confidence_radius_km);
  r.provenance = "cbg/all-vps:obs=" + std::to_string(all_rows.size()) +
                 ",disks=" + std::to_string(cbg.surviving_constraints);
  r.ttl_s = ttl_for(r.tier, o);
  return r;
}

}  // namespace

std::vector<Record> compile_entries(const scenario::Scenario& s,
                                    const CompileOptions& options) {
  const core::MillionScale tools(s);
  std::vector<std::size_t> all_rows(s.vps().size());
  std::iota(all_rows.begin(), all_rows.end(), std::size_t{0});

  std::optional<core::StreetLevel> street;
  const int street_budget =
      s.has_web() ? options.street_level_budget : 0;
  if (street_budget > 0) street.emplace(s);

  std::optional<core::TwoStepSelector> two_step;
  if (options.two_step) {
    two_step.emplace(s, core::greedy_coverage_rows(
                            s, static_cast<std::size_t>(
                                   options.two_step_first_step)),
                     core::TwoStepConfig{.cbg = options.cbg});
  }

  std::optional<core::GeoDatabase> fallback_db;

  std::vector<Record> out;
  out.reserve(s.targets().size());
  for (std::size_t col = 0; col < s.targets().size(); ++col) {
    Record r = base_record(s, col, options);
    if (street && col < static_cast<std::size_t>(street_budget)) {
      const core::StreetLevelResult res = street->geolocate(col);
      r.method = Method::StreetLevel;
      r.tier = res.tier1.verdict;
      r.location = res.estimate;
      // Confidence narrows with the deepest tier that answered: tier 3
      // maps to a landmark inside a 1 km sampling ring, tier 2 to a 5 km
      // ring, tier 1 falls back to the CBG region radius.
      r.confidence_radius_km =
          res.fell_back_to_cbg || res.tier_reached <= 1
              ? static_cast<float>(res.tier1.confidence_radius_km)
              : (res.tier_reached >= 3 ? 5.0f : 10.0f);
      r.provenance = "street-level:tier=" + std::to_string(res.tier_reached) +
                     (res.fell_back_to_cbg ? ",cbg-fallback" : "");
      r.ttl_s = ttl_for(r.tier, options);
    } else if (two_step) {
      const core::TwoStepOutcome res = two_step->run(col);
      r.method = Method::TwoStep;
      r.tier = res.ok ? core::CbgVerdict::Ok : core::CbgVerdict::Unlocatable;
      r.location = res.estimate;
      // The answer is the chosen VP's location; city-level trust is the
      // honest radius for single-VP proximity fixes.
      r.confidence_radius_km = 40.0f;
      r.provenance =
          "two-step:first=" + std::to_string(options.two_step_first_step) +
          ",region-vps=" + std::to_string(res.region_vps);
      r.ttl_s = ttl_for(r.tier, options);
    } else {
      r = compile_cbg(tools, all_rows, s, col, options);
    }

    if (r.tier == core::CbgVerdict::Unlocatable && options.geodb_fallback) {
      if (!fallback_db) {
        fallback_db =
            core::GeoDatabase::build(s, options.fallback_profile);
      }
      const sim::Host& host = s.world().host(s.targets()[col]);
      if (const auto hit = fallback_db->lookup(host.addr)) {
        r.method = Method::GeoDb;
        r.tier = core::CbgVerdict::Degraded;  // imported, not measured
        r.location = hit->location;
        r.confidence_radius_km = 40.0f;  // city-level claim of the profile
        r.provenance = "geodb/" +
                       std::string(core::to_string(options.fallback_profile)) +
                       ":" + std::string(hit->source);
        r.ttl_s = options.fallback_ttl_s;
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<Record> refresh_entries(const scenario::Scenario& s,
                                    const atlas::CampaignReport& report,
                                    const CompileOptions& options) {
  // Group the campaign's usable pings by target, in target order.
  std::map<sim::HostId, std::vector<core::VpObservation>> by_target;
  for (const atlas::PingMeasurement& m : report.results) {
    if (!m.answered()) continue;
    by_target[m.target].push_back(core::VpObservation{
        s.world().host(m.vp).reported_location, *m.min_rtt_ms});
  }
  const std::vector<std::pair<sim::HostId, std::vector<core::VpObservation>>>
      groups(std::make_move_iterator(by_target.begin()),
             std::make_move_iterator(by_target.end()));

  // One CBG solve per target on the pool; each writes only its own slot,
  // so the records are the same for any worker count.
  std::vector<std::optional<Record>> solved =
      util::parallel_map<std::optional<Record>>(
          groups.size(), [&](std::size_t i) -> std::optional<Record> {
            const auto& [target, observations] = groups[i];
            const core::CbgResult cbg =
                core::cbg_geolocate(observations, options.cbg);
            if (cbg.verdict == core::CbgVerdict::Unlocatable) {
              return std::nullopt;  // keep the old entry
            }
            Record r;
            r.prefix = net::slash24_of(s.world().host(target).addr);
            r.method = Method::Cbg;
            r.tier = cbg.verdict;
            r.location = cbg.estimate;
            r.confidence_radius_km =
                static_cast<float>(cbg.confidence_radius_km);
            r.measured_at_s = options.measured_at_s;
            r.ttl_s = ttl_for(r.tier, options);
            r.provenance =
                "cbg/remeasured:obs=" + std::to_string(observations.size()) +
                ",disks=" + std::to_string(cbg.surviving_constraints);
            return r;
          });

  std::vector<Record> out;
  out.reserve(solved.size());
  for (std::optional<Record>& r : solved) {
    if (r) out.push_back(std::move(*r));
  }
  return out;
}

}  // namespace geoloc::publish
