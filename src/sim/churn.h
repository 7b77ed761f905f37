// Longitudinal world churn: the processes that age a geolocation dataset.
//
// Gouel et al.'s longitudinal study of a commercial IP geolocation database
// (PAPERS.md) observes that between monthly versions a significant share of
// prefixes *move* — and that the moves are not i.i.d. noise: address blocks
// migrate in waves (an operator renumbers a /16 over a few months), vantage
// points retire and new ones appear, and database metadata drifts away from
// the ground truth. A publishable dataset (the source paper's end goal) has
// to budget re-measurement against exactly these processes.
//
// This model makes a static sim::World evolve epoch by epoch (an epoch is
// one simulated month in the longitudinal driver, eval/longitudinal.h),
// with four deterministic churn processes:
//
//   * **Prefix reassignment waves** — a target /24 (anchor plus its /24
//     representatives, who move together: the whole prefix got a new
//     tenant) relocates to a new city. Moves are temporally correlated:
//     a reassignment starts a *block migration* of the covering /16 that
//     relocates a fraction of the block's remaining /24s to the same
//     destination every following epoch until the block is drained — the
//     wave structure that makes a diff-triggered re-measurement policy
//     more than a heuristic.
//   * **Individual host relocation** — single hitlist representatives move
//     within their continent (per-host tenancy churn below /24
//     granularity; measurement noise, not dataset signal).
//   * **VP decommission / addition** — active anchors/probes retire for
//     good (the host stops answering and leaves the VP pool) and fresh
//     probes come online in new /24s. Distinct from the fault layer's
//     *transient* probe churn (atlas/faults.h): weather heals, churn does
//     not.
//   * **Reported-location drift** — a VP's *reported* location starts
//     wandering (stale metadata) while its true location — and therefore
//     its RTTs — stays put, slowly poisoning CBG constraints anchored on
//     it. The gradual cousin of the Section 4.3 misgeolocation lies.
//
// Determinism: every epoch draws from fork("churn-epoch", epoch) of the
// model's seed, with a fixed stage order inside the epoch, so a replay of
// epochs 1..N on an identically built world reproduces the exact same
// world state — the property the longitudinal driver's kill-and-resume
// relies on (it re-applies churn instead of persisting the world).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/ipv4.h"
#include "sim/world.h"
#include "util/rng.h"

namespace geoloc::sim {

struct ChurnConfig {
  std::uint64_t seed = 20240601;

  /// Fraction of target /24 prefixes that *start* a reassignment per epoch
  /// (each also seeds a /16 block-migration wave).
  double prefix_reassignment_rate = 0.02;
  /// Fraction of a migrating /16's remaining sibling /24s that follow per
  /// epoch (the wave's pace; 0 disables waves — moves become independent).
  double wave_fraction = 0.34;
  /// Fraction of individual (non-anchor) hosts relocating per epoch.
  double host_relocation_rate = 0.005;
  /// Fraction of active VPs permanently decommissioned per epoch.
  double vp_decommission_rate = 0.01;
  /// New probes added per epoch, as a fraction of the *initial* VP count.
  double vp_addition_rate = 0.01;
  /// Fraction of active VPs that start drifting per epoch (drift persists).
  double drift_onset_rate = 0.01;
  /// Reported-location drift step per epoch for a drifting VP, km.
  double drift_step_km = 12.0;
  /// Chance a reassigned prefix lands on another continent.
  double intercontinental_rate = 0.3;
};

/// What one epoch of churn did to the world — the ground truth a
/// longitudinal evaluation scores policies against.
struct EpochChurnSummary {
  std::uint64_t epoch = 0;
  std::size_t prefixes_reassigned = 0;  ///< /24s relocated (incl. wave moves)
  std::size_t waves_started = 0;
  std::size_t waves_active = 0;         ///< migrations still draining after the epoch
  std::size_t hosts_relocated = 0;      ///< individual sub-/24 moves
  std::size_t vps_decommissioned = 0;
  std::size_t vps_added = 0;
  std::size_t vps_drifting = 0;         ///< total drifting after this epoch
  /// The /24s that actually moved this epoch, sorted ascending — what a
  /// perfect oracle policy would re-measure.
  std::vector<net::Prefix> moved_prefixes;
};

/// Applies churn to a World, epoch by epoch. The target set fixes the /24
/// universe that can be reassigned; the VP set seeds the active pool that
/// decommissioning shrinks and additions grow.
class ChurnModel {
 public:
  ChurnModel(World& world, std::span<const HostId> targets,
             std::span<const HostId> vps, const ChurnConfig& config = {});

  /// Apply one epoch of churn. Epochs must be advanced in order starting
  /// at 1; each is a deterministic function of (config seed, epoch, state
  /// left by the previous epochs).
  EpochChurnSummary advance(std::uint64_t epoch);

  /// VPs still in service (initial set minus decommissions plus additions),
  /// in deterministic order. Valid until the next advance().
  [[nodiscard]] std::span<const HostId> active_vps() const noexcept {
    return active_vps_;
  }
  /// Prefixes the model may reassign (the targets' /24s, sorted).
  [[nodiscard]] std::span<const net::Prefix> prefix_universe() const noexcept {
    return prefixes_;
  }
  [[nodiscard]] const ChurnConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t epochs_applied() const noexcept {
    return epochs_applied_;
  }

 private:
  struct Migration {
    std::uint32_t block16 = 0;          ///< /16 network being renumbered
    PlaceId destination = 0;
    std::vector<std::size_t> remaining; ///< prefix indices not yet moved
  };

  void reassign_prefix(std::size_t prefix_idx, PlaceId place,
                       util::Pcg32& gen);
  [[nodiscard]] PlaceId pick_destination(PlaceId from, util::Pcg32& gen) const;

  World* world_;
  ChurnConfig config_;
  std::vector<net::Prefix> prefixes_;           ///< sorted /24 universe
  std::vector<std::vector<HostId>> prefix_hosts_;  ///< hosts per prefix
  std::vector<char> prefix_migrating_;          ///< in an active wave
  std::vector<HostId> active_vps_;
  std::vector<HostId> movable_hosts_;           ///< non-anchor relocation pool
  std::vector<Migration> migrations_;
  /// Drifting VPs with their persistent bearing, in onset order (a vector,
  /// not a map: drift steps must apply in a deterministic order).
  std::vector<std::pair<HostId, double>> drifters_;
  std::unordered_set<HostId> drifting_;  ///< membership mirror of drifters_
  std::size_t initial_vp_count_ = 0;
  std::uint64_t epochs_applied_ = 0;
};

}  // namespace geoloc::sim
