// Compiles campaign results into publishable snapshot records: the bridge
// between "we measured things" (scenario matrices, executor reports) and
// "here is the dataset" (publish::Snapshot).
//
// Per target the compiler picks a technique — street-level for a budgeted
// head of the target list (expensive), the million-scale two-step
// selection when asked, all-VP CBG otherwise — and falls back to a
// simulated commercial database entry when latency measurement could not
// locate the target at all. Every record keeps the method, the CbgVerdict
// trust tier, a confidence radius, a provenance string and the simulated
// measurement timestamp, published at the target's /24 granularity.
#pragma once

#include <vector>

#include "atlas/executor.h"
#include "core/geodb.h"
#include "publish/snapshot.h"
#include "scenario/scenario.h"

namespace geoloc::publish {

struct CompileOptions {
  core::CbgConfig cbg;          ///< CBG settings for all latency methods
  double measured_at_s = 0.0;   ///< simulated campaign completion time
  float ok_ttl_s = 30 * 86'400.0f;        ///< trusted fixes re-measure monthly
  float degraded_ttl_s = 7 * 86'400.0f;   ///< starved fixes re-measure weekly
  float fallback_ttl_s = 86'400.0f;       ///< db imports re-measure daily

  /// Run the street-level pipeline for the first N target columns
  /// (requires the scenario's web ecosystem; costly per target).
  int street_level_budget = 0;
  /// Use the two-step million-scale selection instead of all-VP CBG for
  /// the remaining targets.
  bool two_step = false;
  int two_step_first_step = 100;  ///< greedy-coverage subset size

  /// When CBG comes back Unlocatable, import the entry from a simulated
  /// commercial database instead of dropping the prefix.
  bool geodb_fallback = true;
  core::GeoDbProfile fallback_profile = core::GeoDbProfile::IPinfo;
};

/// Compile one record per scenario target (prefix = the target's /24).
std::vector<Record> compile_entries(const scenario::Scenario& s,
                                    const CompileOptions& options = {});

/// Re-compile records for exactly the targets a re-measurement campaign
/// reached: group the report's successful pings by target, run CBG over
/// each group, stamp `options.measured_at_s`. Targets with no usable
/// measurement in the report, or whose CBG comes back Unlocatable, are
/// skipped (their old entry stays until the next campaign). The groups
/// are solved on the util::parallel pool and returned in target order,
/// identical for any worker count. Used by the serving layer's staleness
/// loop.
std::vector<Record> refresh_entries(const scenario::Scenario& s,
                                    const atlas::CampaignReport& report,
                                    const CompileOptions& options = {});

}  // namespace geoloc::publish
