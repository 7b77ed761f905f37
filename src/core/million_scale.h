// The million-scale paper's machinery (Hu et al., IMC 2012) and the IMC'23
// replication's two-step extension (Section 5.1.4).
//
// Original VP selection: every VP pings three representatives of the
// target's /24; the k VPs with the lowest (median-across-representatives)
// RTT probe the target itself. Cost: |VPs| x 3 pings per target — 21.7M for
// the paper's 10k VPs and 723 targets, which is what makes the algorithm
// undeployable on RIPE Atlas (Section 5.1.3).
//
// Two-step extension: a small earth-covering subset pings the
// representatives first; CBG over those RTTs yields a region; one VP per
// (AS, city) inside the region pings the representatives; the VP with the
// lowest median RTT geolocates the target. Cost: ~13% of the original at
// equal accuracy (Figure 3b/3c).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atlas/faults.h"
#include "core/cbg.h"
#include "scenario/scenario.h"

namespace geoloc::core {

/// Helpers for the original selection algorithm, operating on the
/// scenario's measurement matrices (rows = VPs, columns = targets).
class MillionScale {
 public:
  explicit MillionScale(const scenario::Scenario& s) : scenario_(&s) {}

  /// Rows of the `k` VPs with the lowest representative RTT for the target
  /// column; rows with no responsive representative are skipped.
  [[nodiscard]] std::vector<std::size_t> select_vps_by_representatives(
      std::size_t target_col, int k) const;

  /// Build CBG observations for `vp_rows` against the target column from
  /// the target-RTT campaign, skipping missing measurements.
  [[nodiscard]] std::vector<VpObservation> observations(
      std::span<const std::size_t> vp_rows, std::size_t target_col) const;

  /// CBG over the given VP rows.
  [[nodiscard]] CbgResult geolocate(std::span<const std::size_t> vp_rows,
                                    std::size_t target_col,
                                    const CbgConfig& config = {}) const;

  /// Geolocation error (km) of an estimate against the target's true
  /// location.
  [[nodiscard]] double error_km(const geo::GeoPoint& estimate,
                                std::size_t target_col) const;

 private:
  const scenario::Scenario* scenario_;
};

/// Greedy earth-coverage VP subset (first step of the two-step extension;
/// the paper's "select the VP which maximizes the sum of the logarithmic
/// distances to the other VPs", akin to Metis). Deterministic.
std::vector<std::size_t> greedy_coverage_rows(const scenario::Scenario& s,
                                              std::size_t count);

struct TwoStepConfig {
  CbgConfig cbg;            ///< used for the step-1 region
};

/// Per-target outcome of the two-step algorithm, including the measurement
/// accounting behind Figure 3c.
struct TwoStepOutcome {
  bool ok = false;
  std::size_t chosen_row = 0;     ///< the single VP that geolocates the target
  geo::GeoPoint estimate;         ///< that VP's reported location
  std::uint64_t step1_pings = 0;  ///< first-step subset x representatives
  std::uint64_t step2_pings = 0;  ///< region VPs x representatives
  std::uint64_t final_pings = 0;  ///< the ping to the target itself
  std::size_t region_vps = 0;     ///< VPs considered in step 2 (one per AS/city)
};

class TwoStepSelector {
 public:
  /// `first_step_rows`: the greedy coverage subset (step-1 VPs).
  TwoStepSelector(const scenario::Scenario& s,
                  std::vector<std::size_t> first_step_rows,
                  const TwoStepConfig& config = {});

  [[nodiscard]] TwoStepOutcome run(std::size_t target_col) const;

  [[nodiscard]] std::span<const std::size_t> first_step_rows() const noexcept {
    return first_step_rows_;
  }

 private:
  const scenario::Scenario* scenario_;
  std::vector<std::size_t> first_step_rows_;
  TwoStepConfig config_;
};

/// Measurement cost of the *original* algorithm for this scenario:
/// |VPs| x 3 representatives x |targets| ping measurements.
std::uint64_t original_algorithm_pings(const scenario::Scenario& s);

/// Representatives of a target's /24 after the weather has had its say.
struct RepresentativeFallback {
  std::vector<sim::HostId> chosen;   ///< usable reps, best score first
  std::size_t skipped_unresponsive = 0;  ///< reps the fallback stepped over
  /// True when at least one chosen rep is not among the `count` best-scored
  /// (a next-best representative was substituted).
  bool substituted = false;
};

/// Pick up to `count` responsive representatives for `target`, falling back
/// to the next-best-scored hitlist entry when one is unresponsive — either
/// permanently (world model) or for this campaign (fault layer, may be
/// null). The original algorithm assumed all three reps answer; under
/// platform weather this is what "graceful" looks like: fewer or
/// substituted reps instead of a silently empty median.
RepresentativeFallback resilient_representatives(
    const scenario::Scenario& s, sim::HostId target,
    const atlas::FaultModel* faults = nullptr, int count = 3);

}  // namespace geoloc::core
