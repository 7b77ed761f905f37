#include "atlas/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <limits>

#include "atlas/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/env.h"

namespace geoloc::atlas {

double RetryPolicy::backoff_s(int failed_attempts) const {
  if (failed_attempts <= 0) return 0.0;
  const double wait =
      initial_backoff_s *
      std::pow(backoff_multiplier, static_cast<double>(failed_attempts - 1));
  return std::min(wait, max_backoff_s);
}

CampaignExecutor::CampaignExecutor(Platform& platform,
                                   const ExecutorConfig& config)
    : platform_(&platform), config_(config) {}

namespace {

struct Pending {
  MeasurementRequest req;
  int attempts = 0;      ///< submissions so far
  double eligible_s = 0.0;  ///< earliest time the next attempt may run
};

/// What the (serial) fault-decision pass concluded for one round slot; the
/// execution pass then runs the Execute slots as one parallel ping batch
/// and commits every outcome back in round order.
enum class SlotAction : std::uint8_t {
  Abandon,      ///< dead VP, no spare: off the books immediately
  Requeue,      ///< outage deferral or API rejection: back off and retry
  ExecutePing,  ///< in the round's ping batch (task_index set)
  ExecuteTrace  ///< traceroutes run serially (their engine caches routes)
};

struct RoundSlot {
  Pending item;
  SlotAction action = SlotAction::Abandon;
  std::size_t task_index = 0;  ///< into the round's ping batch
};

/// Executor series on the obs registry. Everything here is observed
/// *after* the decision/commit passes computed it — the instrumentation
/// reads the report and the simulated clock, it never participates in a
/// weather draw or an ordering decision, so the CampaignReport stays
/// byte-identical with metrics on or off (DESIGN.md §10).
struct ExecutorMetrics {
  obs::Counter& campaigns;
  obs::Counter& requested;
  obs::Counter& completed;
  obs::Counter& abandoned;
  obs::Counter& attempts;
  obs::Counter& retries;
  obs::Counter& rejections;
  obs::Counter& no_replies;
  obs::Counter& outage_deferrals;
  obs::Counter& dead_vp_reassignments;
  obs::Counter& round_failures;
  obs::Counter& rounds;
  obs::Histogram& round_sim_s;    ///< simulated per-round duration
  obs::Histogram& round_wall_ms;  ///< real per-round wall time (GEOLOC_TRACE)
};

ExecutorMetrics& executor_metrics() {
  // Simulated round durations are deterministic, so their histogram is
  // part of the bit-stable metric set; only round_wall_ms varies by run.
  static constexpr double kSimSecondsBuckets[] = {
      1.0,     5.0,     15.0,    60.0,     240.0,
      960.0,   3'600.0, 14'400.0, 86'400.0, 604'800.0};
  static auto& reg = obs::Registry::instance();
  static ExecutorMetrics m{
      reg.counter("atlas.executor.campaigns"),
      reg.counter("atlas.executor.requested"),
      reg.counter("atlas.executor.completed"),
      reg.counter("atlas.executor.abandoned"),
      reg.counter("atlas.executor.attempts"),
      reg.counter("atlas.executor.retries"),
      reg.counter("atlas.executor.rejections"),
      reg.counter("atlas.executor.no_replies"),
      reg.counter("atlas.executor.outage_deferrals"),
      reg.counter("atlas.executor.dead_vp_reassignments"),
      reg.counter("atlas.executor.round_failures"),
      reg.counter("atlas.executor.rounds"),
      reg.histogram("atlas.executor.round_sim_s", kSimSecondsBuckets),
      reg.histogram("atlas.executor.round_wall_ms")};
  return m;
}

}  // namespace

CampaignReport CampaignExecutor::execute(
    std::span<const MeasurementRequest> requests,
    std::span<const sim::HostId> spare_vps) {
  CampaignReport report;
  report.requested = requests.size();
  if (requests.empty()) return report;
  const obs::TraceSpan span("atlas.executor.execute");
  ExecutorMetrics& metrics = executor_metrics();
  const bool wall_timing = obs::trace_enabled();

  const FaultModel* faults = platform_->fault_model();
  if (faults && !faults->enabled()) faults = nullptr;
  const RetryPolicy& retry = config_.retry;
  const SchedulerConfig& sched = config_.scheduler;

  std::deque<Pending> queue;
  std::unordered_map<sim::HostId, double> rate_cache;
  double now_s = 0.0;
  std::uint64_t submission_counter = 0;
  std::size_t spare_cursor = 0;

  // -- checkpointing (DESIGN.md §11) ---------------------------------------
  // Resolve the checkpoint file: an explicit path wins; otherwise
  // GEOLOC_CHECKPOINT_DIR yields a per-campaign file keyed by fingerprint.
  std::string ckpt_path = config_.checkpoint.path;
  std::uint64_t ckpt_fp = 0;
  if (ckpt_path.empty()) {
    const std::string dir =
        util::env::string_or("GEOLOC_CHECKPOINT_DIR", "");
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      if (!ec) {
        ckpt_fp =
            campaign_fingerprint(requests, spare_vps, config_, *platform_);
        char name[48];
        std::snprintf(name, sizeof name, "/campaign-%016llx.ckpt",
                      static_cast<unsigned long long>(ckpt_fp));
        ckpt_path = dir + name;
      }
    }
  }
  if (!ckpt_path.empty() && ckpt_fp == 0) {
    ckpt_fp = campaign_fingerprint(requests, spare_vps, config_, *platform_);
  }

  // Resume: restore queue, clocks, draw cursors, accumulated report, and
  // the platform usage counters (== measurement RNG ordinals) from a
  // matching checkpoint. A missing, foreign or quarantined-corrupt file
  // simply means a fresh start.
  bool resumed = false;
  if (!ckpt_path.empty() && config_.checkpoint.resume) {
    CampaignCheckpoint c;
    if (load_checkpoint(ckpt_path, ckpt_fp, &c)) {
      report = std::move(c.report);
      report.requested = requests.size();  // equal by fingerprint binding
      now_s = c.now_s;
      submission_counter = c.submission_counter;
      spare_cursor = static_cast<std::size_t>(c.spare_cursor);
      platform_->restore_usage(c.usage);
      for (const PendingMeasurement& p : c.queue) {
        queue.push_back({p.req, p.attempts, p.eligible_s});
      }
      resumed = true;
    }
  }
  if (!resumed) {
    for (const MeasurementRequest& r : requests) queue.push_back({r, 0, 0.0});
  }
  if (config_.collect_results) report.results.reserve(requests.size());

  /// Round-boundary hook: persist state on the configured cadence (and
  /// always before a stop_after_rounds exit), then report whether the
  /// bounded work slice is up. Returns true when execution must stop.
  const auto at_round_boundary = [&]() -> bool {
    const bool stop = config_.checkpoint.stop_after_rounds != 0 &&
                      report.rounds >= config_.checkpoint.stop_after_rounds &&
                      !queue.empty();
    const std::uint64_t every = config_.checkpoint.every_rounds;
    if (!ckpt_path.empty() &&
        ((every != 0 && report.rounds % every == 0) || stop)) {
      CampaignCheckpoint c;
      c.fingerprint = ckpt_fp;
      c.now_s = now_s;
      c.submission_counter = submission_counter;
      c.spare_cursor = static_cast<std::uint64_t>(spare_cursor);
      c.usage = platform_->usage();
      c.report = report;
      c.queue.reserve(queue.size());
      for (const Pending& p : queue) {
        c.queue.push_back({p.req, p.attempts, p.eligible_s});
      }
      save_checkpoint(ckpt_path, c);
    }
    return stop;
  };

  // A measurement that failed its attempt goes back to the queue with a
  // capped-exponential wait, or is abandoned once its budget is gone.
  auto requeue_or_abandon = [&](Pending item) {
    if (item.attempts >= retry.max_attempts) {
      ++report.abandoned;
      return;
    }
    item.eligible_s = now_s + retry.backoff_s(item.attempts);
    queue.push_back(item);
  };

  // Replacement VP for a measurement whose probe died: the next spare that
  // is still on the platform (round-robin, deterministic).
  auto find_spare = [&](double t_s) -> sim::HostId {
    for (std::size_t i = 0; i < spare_vps.size(); ++i) {
      const sim::HostId cand = spare_vps[(spare_cursor + i) % spare_vps.size()];
      if (!faults || !faults->vp_abandoned(cand, t_s)) {
        spare_cursor = (spare_cursor + i + 1) % spare_vps.size();
        return cand;
      }
    }
    return sim::kInvalidHost;
  };

  while (!queue.empty()) {
    // Gather the round: eligible measurements, up to the batch size.
    std::vector<Pending> round;
    round.reserve(std::min(queue.size(), sched.batch_size));
    {
      std::deque<Pending> rest;
      while (!queue.empty()) {
        Pending item = queue.front();
        queue.pop_front();
        if (item.eligible_s <= now_s && round.size() < sched.batch_size) {
          round.push_back(item);
        } else {
          rest.push_back(item);
        }
      }
      queue = std::move(rest);
    }
    if (round.empty()) {
      // Everything pending is backing off; fast-forward to the first
      // eligible measurement and account the idle wait.
      double next = std::numeric_limits<double>::infinity();
      for (const Pending& p : queue) next = std::min(next, p.eligible_s);
      report.backoff_wait_s += next - now_s;
      now_s = next;
      continue;
    }

    ++report.rounds;
    const std::uint64_t round_index = report.rounds - 1;
    const double round_start_sim_s = now_s;
    const auto round_start_wall = wall_timing
                                      ? std::chrono::steady_clock::now()
                                      : std::chrono::steady_clock::time_point();
    const auto observe_round = [&] {
      metrics.round_sim_s.observe(now_s - round_start_sim_s);
      if (wall_timing) {
        metrics.round_wall_ms.observe(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - round_start_wall)
                .count());
      }
    };

    if (faults && faults->round_fails(round_index)) {
      // The whole submission round failed transiently (API weather). The
      // round overhead is burnt; every measurement in it pays an attempt
      // and backs off.
      ++report.round_failures;
      now_s += sched.round_overhead_s;
      report.duration_s = now_s;
      for (Pending& item : round) {
        ++report.attempts;
        if (item.attempts > 0) ++report.retries;
        ++item.attempts;
        requeue_or_abandon(item);
      }
      observe_round();
      if (at_round_boundary()) {
        report.interrupted = true;
        return report;
      }
      continue;
    }

    // Decision pass (serial, round order): weather consultations and the
    // attempt accounting happen in exactly the sequence the plain serial
    // loop used — the spare cursor and the rejection counter are shared
    // state whose draw order is part of the campaign's determinism
    // contract. Executable pings are only *collected* here; their sampling
    // is order-independent by construction (per-ordinal RNG streams) and
    // runs as one parallel batch below.
    std::vector<RoundSlot> slots;
    slots.reserve(round.size());
    std::vector<PingTask> ping_tasks;
    ping_tasks.reserve(round.size());
    for (Pending& item : round) {
      RoundSlot slot{item, SlotAction::Abandon, 0};
      // Permanent churn: a dead probe never answers again, so either move
      // the measurement to a spare or abandon it outright — retrying
      // against a dead VP would only burn the budget.
      if (faults && faults->vp_abandoned(slot.item.req.vp, now_s)) {
        const sim::HostId spare =
            config_.reassign_dead_vps ? find_spare(now_s) : sim::kInvalidHost;
        if (spare == sim::kInvalidHost) {
          ++report.abandoned;
          slots.push_back(slot);  // action stays Abandon (already counted)
          continue;
        }
        ++report.vp_reassignments;
        slot.item.req.vp = spare;
      }

      ++report.attempts;
      if (slot.item.attempts > 0) ++report.retries;
      ++slot.item.attempts;

      // Transient outage: the probe is offline right now but will be back;
      // defer the measurement past a backoff wait.
      if (faults && faults->vp_in_outage(slot.item.req.vp, now_s)) {
        ++report.outage_deferrals;
        slot.action = SlotAction::Requeue;
        slots.push_back(slot);
        continue;
      }

      // Credit / rate-limit rejection: the API refused the submission.
      // Nothing ran, nothing is billed, but the attempt is spent.
      if (faults && faults->measurement_rejected(submission_counter++)) {
        ++report.rejections;
        slot.action = SlotAction::Requeue;
        slots.push_back(slot);
        continue;
      }

      if (slot.item.req.kind == MeasurementKind::Ping) {
        slot.action = SlotAction::ExecutePing;
        slot.task_index = ping_tasks.size();
        ping_tasks.push_back({slot.item.req.vp, slot.item.req.target,
                              slot.item.req.packets});
      } else {
        slot.action = SlotAction::ExecuteTrace;
      }
      slots.push_back(slot);
    }

    // Sampling pass: the round's pings as one batch — bit-identical to the
    // serial per-item calls, for any GEOLOC_THREADS.
    std::vector<PingMeasurement> ping_results(ping_tasks.size());
    platform_->ping_many(ping_tasks, ping_results);

    // Commit pass (serial, round order): outcome accounting and requeues in
    // the same interleaving the serial loop produced.
    std::unordered_map<sim::HostId, std::uint64_t> packets_per_vp;
    const std::uint64_t per_ping_packet =
        platform_->config().credits.per_ping_packet;
    for (RoundSlot& slot : slots) {
      switch (slot.action) {
        case SlotAction::Abandon:
          break;  // already accounted in the decision pass
        case SlotAction::Requeue:
          requeue_or_abandon(slot.item);
          break;
        case SlotAction::ExecutePing: {
          const PingMeasurement& m = ping_results[slot.task_index];
          const std::uint64_t cost =
              per_ping_packet * static_cast<std::uint64_t>(m.packets_sent);
          report.credits_spent += cost;
          packets_per_vp[slot.item.req.vp] +=
              static_cast<std::uint64_t>(m.packets_sent);
          if (m.answered()) {
            ++report.completed;
            if (config_.collect_results) report.results.push_back(m);
          } else {
            ++report.no_replies;
            report.credits_wasted += cost;
            requeue_or_abandon(slot.item);
          }
          break;
        }
        case SlotAction::ExecuteTrace: {
          const std::uint64_t before = platform_->usage().credits;
          const sim::Traceroute tr =
              platform_->traceroute(slot.item.req.vp, slot.item.req.target);
          const std::uint64_t cost = platform_->usage().credits - before;
          report.credits_spent += cost;
          packets_per_vp[slot.item.req.vp] +=
              static_cast<std::uint64_t>(sched.traceroute_packets);
          if (!tr.hops.empty()) {
            ++report.completed;
          } else {
            report.credits_wasted += cost;
            requeue_or_abandon(slot.item);
          }
          break;
        }
      }
    }

    now_s += round_duration_s(*platform_, packets_per_vp, rate_cache) +
             sched.round_overhead_s;
    report.duration_s = now_s;
    observe_round();
    if (at_round_boundary()) {
      report.interrupted = true;
      return report;
    }
  }

  report.duration_s = now_s;

  // The campaign completed: its checkpoint is spent. Removing it keeps a
  // later identical campaign from short-circuiting to this one's result.
  if (!ckpt_path.empty()) std::remove(ckpt_path.c_str());

  // Campaign totals onto the registry, in one pass off the finished
  // report: zero per-measurement cost and, by construction, zero effect
  // on the report itself.
  metrics.campaigns.add();
  metrics.requested.add(report.requested);
  metrics.completed.add(report.completed);
  metrics.abandoned.add(report.abandoned);
  metrics.attempts.add(report.attempts);
  metrics.retries.add(report.retries);
  metrics.rejections.add(report.rejections);
  metrics.no_replies.add(report.no_replies);
  metrics.outage_deferrals.add(report.outage_deferrals);
  metrics.dead_vp_reassignments.add(report.vp_reassignments);
  metrics.round_failures.add(report.round_failures);
  metrics.rounds.add(report.rounds);
  return report;
}

CampaignReport CampaignExecutor::execute_full_mesh(
    std::span<const sim::HostId> vps, std::span<const sim::HostId> targets,
    int packets, std::span<const sim::HostId> spare_vps) {
  std::vector<MeasurementRequest> requests;
  requests.reserve(vps.size() * targets.size());
  for (sim::HostId vp : vps) {
    for (sim::HostId target : targets) {
      requests.push_back({vp, target, MeasurementKind::Ping, packets});
    }
  }
  return execute(requests, spare_vps);
}

}  // namespace geoloc::atlas
