// Resilient campaign execution against the (possibly stormy) platform.
//
// The scheduler plans a campaign; this executor actually runs one, the way
// the IMC'23 authors had to on the real RIPE Atlas: submitting rounds,
// watching probes disconnect mid-campaign, eating transient API failures
// and credit rejections, retrying with capped exponential backoff, and
// re-assigning measurements whose probe died for good. The CampaignReport
// accounts for what resilience costs — attempts, retries, abandoned
// measurements, credits wasted on unanswered probes, and the wall-clock
// added by backoff — the numbers the paper's overhead arguments
// (Figure 3c, Section 5.1.3) implicitly absorbed.
//
// Weather comes from the FaultModel attached to the Platform; without one
// (or with a calm preset) execution degenerates to the plain measurement
// loop and is bit-identical to calling Platform::ping in request order.
//
// Execution is parallel and deterministic: each round makes its weather
// decisions serially (spare cursor and rejection counter are draw-order
// state), samples the surviving pings as one Platform::ping_many batch on
// the parallel engine, and commits outcomes back in round order — so the
// CampaignReport is byte-identical for any GEOLOC_THREADS value
// (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atlas/faults.h"
#include "atlas/scheduler.h"

namespace geoloc::atlas {

/// Capped exponential backoff with a per-measurement retry budget.
struct RetryPolicy {
  int max_attempts = 3;  ///< submission attempts per measurement (1 = no retry)
  double initial_backoff_s = 60.0;
  double backoff_multiplier = 2.0;
  double max_backoff_s = 960.0;

  /// Wait before the next attempt, after `failed_attempts` failures.
  [[nodiscard]] double backoff_s(int failed_attempts) const;
};

/// Crash-safe checkpointing of a running campaign (DESIGN.md §11). At
/// every round boundary the executor can persist its complete state —
/// pending queue, simulated clock, RNG ordinals (platform usage counters),
/// accumulated CampaignReport — through the durable atomic-write layer, so
/// a killed campaign resumes exactly where it died: the resumed run's
/// CampaignReport is byte-identical to an uninterrupted one.
struct CheckpointPolicy {
  /// Checkpoint file. Empty disables checkpointing unless
  /// GEOLOC_CHECKPOINT_DIR is set, in which case the executor derives
  /// "<dir>/campaign-<fingerprint>.ckpt" per campaign.
  std::string path;
  /// Checkpoint every N completed rounds (default 1 — every round
  /// boundary); 0 checkpoints only before a stop_after_rounds exit.
  std::uint64_t every_rounds = 1;
  /// Load a matching checkpoint at execute() start. A checkpoint whose
  /// campaign fingerprint (requests, spares, config, world seed, weather)
  /// differs is ignored; a corrupt one is quarantined and ignored.
  bool resume = true;
  /// Stop (with report.interrupted set) after this many rounds, leaving a
  /// fresh checkpoint behind — the deterministic stand-in for `kill -9` in
  /// the crash/resume tests, and an ops hook for bounded work slices.
  /// 0 runs to completion.
  std::uint64_t stop_after_rounds = 0;
};

struct ExecutorConfig {
  SchedulerConfig scheduler;  ///< batching, round overhead, traceroute packets
  RetryPolicy retry;
  CheckpointPolicy checkpoint;
  /// Re-assign a measurement to a spare VP when its probe abandoned the
  /// platform mid-campaign (requires spare_vps at execute time).
  bool reassign_dead_vps = true;
  /// Keep every successful PingMeasurement in the report. Disable for
  /// campaigns where only the accounting matters.
  bool collect_results = true;
};

/// What executing a campaign actually took. `requested == completed +
/// abandoned` always holds on return of a completed (non-interrupted)
/// campaign.
struct CampaignReport {
  std::size_t requested = 0;
  std::size_t completed = 0;  ///< measurement produced a result
  std::size_t abandoned = 0;  ///< gave up after the retry budget (or dead VP)

  std::uint64_t attempts = 0;       ///< submissions, including retries
  std::uint64_t retries = 0;        ///< attempts beyond each first
  std::uint64_t rejections = 0;     ///< credit / rate-limit rejections
  std::uint64_t no_replies = 0;     ///< executed pings with zero echo replies
  std::uint64_t outage_deferrals = 0;  ///< submissions hitting a VP outage
  std::uint64_t vp_reassignments = 0;  ///< measurements moved off dead VPs
  std::uint64_t round_failures = 0;    ///< transient whole-round API failures

  std::size_t rounds = 0;  ///< submission rounds, including failed ones
  std::uint64_t credits_spent = 0;
  std::uint64_t credits_wasted = 0;  ///< spent on attempts with no usable RTT

  double duration_s = 0.0;      ///< campaign wall clock, waits included
  double backoff_wait_s = 0.0;  ///< wall clock spent waiting out backoff

  /// True when execution stopped at CheckpointPolicy::stop_after_rounds
  /// with work still pending; the checkpoint holds the state to resume
  /// from. Never set on a completed campaign (and `requested ==
  /// completed + abandoned` then holds as always).
  bool interrupted = false;

  /// Successful measurements, in completion order (when collect_results).
  std::vector<PingMeasurement> results;

  [[nodiscard]] double duration_days() const { return duration_s / 86'400.0; }
  [[nodiscard]] double success_rate() const {
    return requested == 0
               ? 1.0
               : static_cast<double>(completed) / static_cast<double>(requested);
  }
};

class CampaignExecutor {
 public:
  /// The platform is mutated (measurements run, credits billed). Weather is
  /// read from platform.fault_model(); none attached means calm skies.
  explicit CampaignExecutor(Platform& platform,
                            const ExecutorConfig& config = {});

  /// Run the campaign. `spare_vps` is the replacement pool for measurements
  /// whose VP permanently disconnected (tried in order, round-robin).
  CampaignReport execute(std::span<const MeasurementRequest> requests,
                         std::span<const sim::HostId> spare_vps = {});

  /// Convenience mirror of MeasurementScheduler::plan_full_mesh.
  CampaignReport execute_full_mesh(std::span<const sim::HostId> vps,
                                   std::span<const sim::HostId> targets,
                                   int packets = 3,
                                   std::span<const sim::HostId> spare_vps = {});

  [[nodiscard]] const ExecutorConfig& config() const noexcept {
    return config_;
  }

 private:
  Platform* platform_;
  ExecutorConfig config_;
};

}  // namespace geoloc::atlas
