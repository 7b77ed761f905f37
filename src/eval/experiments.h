// Experiment runners for the million-scale figures (2a-2c, 3a-3c, 4).
// Bench binaries print; these functions compute. Street-level figures pull
// from eval/street_campaign.h instead.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "atlas/executor.h"
#include "atlas/faults.h"
#include "core/cbg.h"
#include "scenario/scenario.h"
#include "sim/city.h"

namespace geoloc::eval {

/// Per-target CBG errors using every VP (shared by Figures 2c, 4 and 7).
/// Cached per scenario fingerprint within the process.
const std::vector<double>& all_vp_errors(const scenario::Scenario& s,
                                         const core::CbgConfig& config = {});

/// Figure 2a/2b: random VP subsets of a given size; each trial draws one
/// subset and evaluates every target.
struct SubsetTrials {
  int subset_size = 0;
  std::vector<double> trial_median_errors_km;  ///< one entry per trial
};
std::vector<SubsetTrials> run_subset_size_sweep(
    const scenario::Scenario& s, std::span<const int> subset_sizes, int trials,
    const core::CbgConfig& config = {});

/// Figure 2c: remove, per target, every VP closer than the exclusion radius.
struct ExclusionErrors {
  double exclusion_km = 0.0;  ///< 0 = all VPs
  std::vector<double> errors_km;
};
std::vector<ExclusionErrors> run_remove_close_vps(
    const scenario::Scenario& s, std::span<const double> radii_km,
    const core::CbgConfig& config = {});

/// Figure 3a: the original VP selection — k VPs with the lowest RTT to the
/// target's /24 representatives (k = 0 means "all VPs").
struct RepSelectionErrors {
  int k = 0;
  std::vector<double> errors_km;
};
std::vector<RepSelectionErrors> run_rep_selection(
    const scenario::Scenario& s, std::span<const int> ks,
    const core::CbgConfig& config = {});

/// Figures 3b/3c: the two-step extension swept over first-step sizes.
struct TwoStepSweep {
  int first_step_size = 0;
  std::vector<double> errors_km;
  std::uint64_t total_pings = 0;   ///< step1 + step2 + final, summed over targets
  std::size_t failed_targets = 0;  ///< no VP could be selected
};
std::vector<TwoStepSweep> run_two_step_sweep(
    const scenario::Scenario& s, std::span<const int> first_step_sizes,
    const core::CbgConfig& config = {});

/// Figure 4: all-VP CBG errors split by target continent.
struct ContinentErrors {
  sim::Continent continent = sim::Continent::EU;
  std::vector<double> errors_km;
};
std::vector<ContinentErrors> run_per_continent(
    const scenario::Scenario& s, const core::CbgConfig& config = {});

/// Trial count for figure benches: GEOLOC_TRIALS env var, else `fallback`.
int trials_from_env(int fallback);

/// One weather condition of the failure-sensitivity sweep.
struct WeatherSpec {
  std::string label;
  atlas::FaultConfig config;
};

/// Outcome of running the ping campaign under one weather condition: what
/// the campaign cost (attempts, retries, abandoned measurements, wasted
/// credits — the columns the overhead tables gain) and what geolocation
/// quality survived (CBG verdict tally over the targets).
struct FailureSweepPoint {
  std::string label;
  std::size_t located = 0;      ///< CBG verdict Ok
  std::size_t degraded = 0;     ///< CBG verdict Degraded (starved constraints)
  std::size_t unlocatable = 0;  ///< CBG verdict Unlocatable
  double median_error_km = 0.0;  ///< over targets with an estimate
  /// Executor accounting; `results` is cleared (only counters are kept).
  atlas::CampaignReport report;
};

/// Failure-sensitivity sweep: execute the VP x target ping campaign under
/// each weather via the resilient executor (the first `max_vps` VPs
/// measure, the rest serve as the dead-VP replacement pool; 0 = all VPs,
/// no spares), then run CBG per target on whatever measurements survived.
std::vector<FailureSweepPoint> run_failure_sensitivity(
    const scenario::Scenario& s, std::span<const WeatherSpec> weathers,
    std::size_t max_vps = 0, const core::CbgConfig& config = {});

}  // namespace geoloc::eval
