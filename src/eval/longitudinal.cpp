#include "eval/longitudinal.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>

#include "atlas/executor.h"
#include "atlas/platform.h"
#include "eval/publication.h"
#include "geo/geodesy.h"
#include "publish/diff.h"
#include "serve/geo_service.h"
#include "util/durable.h"
#include "util/stats.h"

namespace geoloc::eval {

namespace {

/// "GLLONG01" — caller magic of the framed driver-state file.
constexpr std::uint64_t kStateMagic = 0x474C4C4F4E473031ULL;
constexpr std::uint32_t kStateVersion = 1;

/// Error charged to a lookup the snapshot cannot answer at all: the
/// antipodal bound, so a miss always scores worse than any answer.
constexpr double kMissPenaltyKm = 20'037.5;

std::string snapshot_path(const std::string& dir, std::uint64_t epoch) {
  return dir + "/epoch-" + std::to_string(epoch) + ".snap";
}
std::string state_path(const std::string& dir) {
  return dir + "/longitudinal.state";
}
std::string checkpoint_path(const std::string& dir, std::uint64_t epoch) {
  return dir + "/epoch-" + std::to_string(epoch) + ".ckpt";
}

/// Everything that shapes the run's bytes. interrupt_* is deliberately
/// excluded: the resumed invocation drops the interrupt and must still
/// match the state written before the kill.
std::uint64_t config_fingerprint(const scenario::Scenario& s,
                                 RemeasurePolicy policy,
                                 const LongitudinalConfig& cfg) {
  util::durable::PayloadWriter w;
  w.pod(s.config().fingerprint());
  w.pod(static_cast<std::uint8_t>(policy));
  w.pod(cfg.epochs);
  w.pod(cfg.epoch_s);
  w.pod(cfg.churn.seed);
  w.pod(cfg.churn.prefix_reassignment_rate);
  w.pod(cfg.churn.wave_fraction);
  w.pod(cfg.churn.host_relocation_rate);
  w.pod(cfg.churn.vp_decommission_rate);
  w.pod(cfg.churn.vp_addition_rate);
  w.pod(cfg.churn.drift_onset_rate);
  w.pod(cfg.churn.drift_step_km);
  w.pod(cfg.churn.intercontinental_rate);
  w.pod(cfg.budget_prefixes);
  w.pod(cfg.vps_per_target);
  w.pod(cfg.packets);
  w.pod(cfg.campaign_batch);
  w.pod(cfg.lookups_per_epoch);
  w.pod(cfg.compile.ok_ttl_s);
  w.pod(cfg.compile.degraded_ttl_s);
  w.pod(cfg.compile.fallback_ttl_s);
  w.pod(cfg.compile.street_level_budget);
  w.pod(cfg.compile.two_step);
  w.pod(cfg.compile.geodb_fallback);
  return util::durable::xxh64(w.data());
}

/// Persisted driver progress: which epoch completed last and the running
/// frontier accumulators (the per-epoch snapshots carry everything else).
struct DriverState {
  std::uint64_t fingerprint = 0;
  std::uint64_t last_epoch = 0;  ///< last *completed* epoch (0 = bootstrap)
  std::uint32_t dataset_version = 1;
  std::uint64_t total_credits = 0;
  double query_err_sum = 0.0;
  std::uint64_t epochs_scored = 0;
};

bool save_state(const std::string& dir, const DriverState& st) {
  util::durable::PayloadWriter w;
  w.pod(st.fingerprint);
  w.pod(st.last_epoch);
  w.pod(st.dataset_version);
  w.pod(st.total_credits);
  w.pod(st.query_err_sum);
  w.pod(st.epochs_scored);
  return util::durable::write_framed(state_path(dir), kStateMagic,
                                     kStateVersion, w.data());
}

bool load_state(const std::string& dir, DriverState* st) {
  const auto r = util::durable::read_framed(state_path(dir), kStateMagic);
  if (!r.ok() || r.version != kStateVersion) return false;
  util::durable::PayloadReader p(r.payload);
  return p.pod(st->fingerprint) && p.pod(st->last_epoch) &&
         p.pod(st->dataset_version) && p.pod(st->total_credits) &&
         p.pod(st->query_err_sum) && p.pod(st->epochs_scored) &&
         p.exhausted();
}

std::vector<std::byte> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::vector<char> buf((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto* b = reinterpret_cast<const std::byte*>(buf.data());
  return std::vector<std::byte>(b, b + buf.size());
}

/// Stale entries of a snapshot at `now`, oldest measurement first (ties
/// break on the snapshot's ascending prefix order via stable_sort).
std::vector<std::pair<net::Prefix, double>> stale_oldest_first(
    const publish::Snapshot& snap, double now_s) {
  std::vector<std::pair<net::Prefix, double>> out;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const publish::SnapshotEntry e = snap.entry(i);
    if (e.stale_at(now_s)) out.emplace_back(e.prefix, e.measured_at_s);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const auto& a, const auto& b) {
                     return a.second < b.second;
                   });
  return out;
}

void cap(std::vector<net::Prefix>& v, std::size_t budget) {
  if (budget > 0 && v.size() > budget) v.resize(budget);
}

/// The epoch's re-measurement target list, per policy. `hot16` is the
/// diff signal: /16 block -> publish time of the last diff that saw one
/// of its /24s move (empty on epoch 1 and for the non-diff policies).
std::vector<net::Prefix> select_prefixes(
    RemeasurePolicy policy, const publish::Snapshot& snap, double now_s,
    std::size_t budget, serve::GeoService& service,
    const std::map<std::uint32_t, double>& hot16,
    const LongitudinalConfig& cfg) {
  std::vector<net::Prefix> selected;
  switch (policy) {
    case RemeasurePolicy::TtlExpiry: {
      for (const auto& [prefix, _] : stale_oldest_first(snap, now_s)) {
        selected.push_back(prefix);
      }
      // The service queue still filled up from the workload's stale hits;
      // drain it so the bounded queue never carries state across epochs.
      (void)service.remeasure_queue().drain();
      break;
    }
    case RemeasurePolicy::StalenessQueue: {
      // The queue is the *queried* set — prefixes nobody looks up carry no
      // weight in user-experienced error, so they never spend budget here
      // (that is the economics TTL-expiry misses). Within the queue,
      // oldest measurement first: a popular prefix refreshed last epoch
      // re-enqueues immediately but must not starve a queried prefix
      // that's been stale for four. First-hit (popularity) order breaks
      // ties. Leftover budget falls back to the oldest stale entries, so
      // the policy costs exactly what the TTL clock costs.
      std::vector<net::Prefix> queued = service.remeasure_queue().drain();
      std::stable_sort(queued.begin(), queued.end(),
                       [&snap](const net::Prefix& a, const net::Prefix& b) {
                         const auto ea = snap.find(a.network());
                         const auto eb = snap.find(b.network());
                         const double ma = ea ? ea->measured_at_s : -1.0;
                         const double mb = eb ? eb->measured_at_s : -1.0;
                         return ma < mb;
                       });
      std::unordered_set<std::uint32_t> chosen;
      for (const net::Prefix& p : queued) {
        if (budget > 0 && selected.size() >= budget) break;
        if (chosen.insert(p.network().value()).second) selected.push_back(p);
      }
      for (const auto& [prefix, _] : stale_oldest_first(snap, now_s)) {
        if (budget > 0 && selected.size() >= budget) break;
        if (chosen.insert(prefix.network().value()).second) {
          selected.push_back(prefix);
        }
      }
      break;
    }
    case RemeasurePolicy::DiffTriggered: {
      (void)service.remeasure_queue().drain();
      // A /16 where a published diff saw a /24 move hosts a live (or
      // recent) migration wave: its not-yet-refreshed members ("suspects",
      // measured before the block's last observed strike) accumulate move
      // probability at the wave's per-epoch pace, everything else at the
      // base reassignment rate. Rank every due entry by P(moved since its
      // last measurement) under that two-rate model, highest first. This
      // is neither "suspects pre-empt the rotation" (a live wave
      // re-strikes every epoch and would starve long-stale cold movers)
      // nor a mere tie-break on age (which never promotes the one entry
      // the diff uniquely knows about: a recently-refreshed blockmate the
      // wave just moved, which the TTL clock won't revisit for epochs).
      // The two rates are the operator's churn estimate — here the
      // configured truth, the policy's best case.
      const double q =
          std::clamp(cfg.churn.prefix_reassignment_rate, 0.0, 1.0);
      const double w =
          std::clamp(std::max(cfg.churn.wave_fraction, q), 0.0, 1.0);
      auto due = stale_oldest_first(snap, now_s);
      const auto p_moved = [&](const net::Prefix& p, double measured) {
        const double age_epochs =
            cfg.epoch_s > 0.0
                ? std::max(0.0, (now_s - measured) / cfg.epoch_s)
                : 0.0;
        const auto it =
            hot16.find(p.network().value() & net::Prefix::mask(16));
        const bool hot = it != hot16.end() && measured < it->second;
        return 1.0 - std::pow(1.0 - (hot ? w : q), age_epochs);
      };
      std::stable_sort(due.begin(), due.end(),
                       [&p_moved](const auto& a, const auto& b) {
                         return p_moved(a.first, a.second) >
                                p_moved(b.first, b.second);
                       });
      for (const auto& [prefix, _] : due) {
        if (budget > 0 && selected.size() >= budget) break;
        selected.push_back(prefix);
      }
      break;
    }
  }
  cap(selected, budget);
  return selected;
}

}  // namespace

std::string_view to_string(RemeasurePolicy p) noexcept {
  switch (p) {
    case RemeasurePolicy::TtlExpiry: return "ttl-expiry";
    case RemeasurePolicy::StalenessQueue: return "staleness-queue";
    case RemeasurePolicy::DiffTriggered: return "diff-triggered";
  }
  return "?";
}

std::span<const RemeasurePolicy> all_policies() noexcept {
  static constexpr std::array<RemeasurePolicy, 3> kAll = {
      RemeasurePolicy::TtlExpiry, RemeasurePolicy::StalenessQueue,
      RemeasurePolicy::DiffTriggered};
  return kAll;
}

LongitudinalResult run_longitudinal(scenario::Scenario& s,
                                    RemeasurePolicy policy,
                                    const LongitudinalConfig& cfg) {
  LongitudinalResult result;
  result.policy = policy;

  const std::uint64_t fp = config_fingerprint(s, policy, cfg);
  const bool durable = !cfg.state_dir.empty();

  DriverState st;
  st.fingerprint = fp;

  std::shared_ptr<const publish::Snapshot> current;
  // Diff signal: /16 block -> publish time of the last diff that observed
  // one of its /24s move. Never persisted — recomputed from the snapshot
  // chain on resume so the durable format stays snapshot-only.
  std::map<std::uint32_t, double> hot16;

  // -- resume or bootstrap -------------------------------------------------
  DriverState loaded;
  if (durable && load_state(cfg.state_dir, &loaded) &&
      loaded.fingerprint == fp) {
    st = loaded;
    std::string error;
    current = publish::Snapshot::load(snapshot_path(cfg.state_dir,
                                                    st.last_epoch),
                                      &error);
    if (current && policy == RemeasurePolicy::DiffTriggered) {
      // Replay the published diffs from the snapshots already on disk.
      auto prev = publish::Snapshot::load(snapshot_path(cfg.state_dir, 0),
                                          &error);
      for (std::uint64_t e = 1; prev && e <= st.last_epoch; ++e) {
        const auto next = publish::Snapshot::load(
            snapshot_path(cfg.state_dir, e), &error);
        if (!next) { current = nullptr; break; }  // torn chain: start over
        for (const net::Prefix& p :
             publish::diff_snapshots(*prev, *next).moved_prefixes) {
          hot16[p.network().value() & net::Prefix::mask(16)] =
              static_cast<double>(e) * cfg.epoch_s;
        }
        prev = next;
      }
      if (!prev) current = nullptr;
    }
  }

  if (current == nullptr) {
    // Fresh run (or unusable state): compile the bootstrap dataset from
    // the pristine world's dense RTT matrices.
    st = DriverState{};
    st.fingerprint = fp;
    publish::CompileOptions opts = cfg.compile;
    opts.measured_at_s = 0.0;
    const auto records = publish::compile_entries(s, opts);
    publish::SnapshotBuilder builder;
    builder.add(records);
    const publish::SnapshotMeta meta{
        .dataset_version = 1,
        .created_at_s = 0.0,
        .source = std::string("longitudinal bootstrap ") +
                  std::string(to_string(policy))};
    std::vector<std::byte> bytes = builder.build(meta);
    result.final_snapshot_bytes = bytes;
    current = publish::Snapshot::from_bytes(std::move(bytes));
    if (durable) {
      (void)util::durable::atomic_write_file(
          snapshot_path(cfg.state_dir, 0), result.final_snapshot_bytes);
      (void)save_state(cfg.state_dir, st);
    }
  } else {
    // Resumed: the byte-identity oracle starts as the persisted snapshot
    // (in case the run was already complete) and is re-derived below
    // after every further published epoch.
    result.final_snapshot_bytes =
        read_file_bytes(snapshot_path(cfg.state_dir, st.last_epoch));
  }

  serve::GeoService service(current);

  // -- world replay up to the resume point ---------------------------------
  sim::ChurnModel churn(s.world(), s.targets(), s.vps(), cfg.churn);
  for (std::uint64_t e = 1; e <= st.last_epoch; ++e) {
    (void)churn.advance(e);
    s.invalidate_rtt_matrices();
  }

  // -- the epoch loop ------------------------------------------------------
  for (std::uint64_t epoch = st.last_epoch + 1; epoch <= cfg.epochs;
       ++epoch) {
    const sim::EpochChurnSummary churned = churn.advance(epoch);
    s.invalidate_rtt_matrices();
    const double now = static_cast<double>(epoch) * cfg.epoch_s;

    EpochStats es;
    es.epoch = epoch;
    es.prefixes_churned = churned.moved_prefixes.size();
    es.vps_active = churn.active_vps().size();

    // 1. Serve the epoch's lookup workload against the *old* snapshot —
    //    this is the quality users actually experienced — and let stale
    //    hits feed the re-measurement queue.
    {
      auto wgen = util::RngStream(cfg.churn.seed)
                      .fork("workload", epoch)
                      .gen();
      const auto& targets = s.targets();
      std::vector<double> errs;
      errs.reserve(cfg.lookups_per_epoch);
      std::size_t stale_hits = 0;
      for (std::size_t k = 0; k < cfg.lookups_per_epoch; ++k) {
        const double u = wgen.uniform();
        const auto idx = std::min(
            targets.size() - 1,
            static_cast<std::size_t>(u * u *
                                     static_cast<double>(targets.size())));
        const sim::Host& host = s.world().host(targets[idx]);
        const serve::Answer a = service.lookup(host.addr, now);
        errs.push_back(a.found
                           ? geo::distance_km(a.location, host.true_location)
                           : kMissPenaltyKm);
        if (a.stale) ++stale_hits;
      }
      es.query_mean_error_km = util::mean(errs);
      es.query_median_error_km = util::median(errs);
      es.stale_hit_fraction =
          cfg.lookups_per_epoch == 0
              ? 0.0
              : static_cast<double>(stale_hits) /
                    static_cast<double>(cfg.lookups_per_epoch);
    }
    es.stale_prefixes = stale_oldest_first(*current, now).size();

    // 2. Pick what to re-measure and run the campaign.
    const std::vector<net::Prefix> selected =
        select_prefixes(policy, *current, now, cfg.budget_prefixes, service,
                        hot16, cfg);
    es.selected_prefixes = selected.size();
    const auto requests = serve::plan_remeasurement(
        s, selected, *current, churn.active_vps(), cfg.vps_per_target,
        cfg.packets);
    es.requests = requests.size();

    // A fresh platform per epoch: measurement randomness then depends only
    // on epoch-local ping ordinals, so a resumed epoch replays the exact
    // RTTs regardless of what earlier epochs measured.
    atlas::Platform platform(s.world(), s.latency(), {});
    atlas::ExecutorConfig ecfg;
    ecfg.scheduler.batch_size = cfg.campaign_batch;
    if (durable) {
      ecfg.checkpoint.path = checkpoint_path(cfg.state_dir, epoch);
      if (cfg.interrupt_epoch == epoch) {
        ecfg.checkpoint.stop_after_rounds = cfg.interrupt_after_rounds;
      }
    }
    atlas::CampaignExecutor executor(platform, ecfg);
    const atlas::CampaignReport report = executor.execute(requests);
    if (report.interrupted) {
      // The kill point. Driver state still names epoch-1 as the frontier;
      // the campaign checkpoint holds the partial rounds. A re-invocation
      // with the same state_dir replays churn, reselects the identical
      // request list, and the executor resumes mid-campaign.
      result.interrupted = true;
      result.total_credits = st.total_credits + report.credits_spent;
      result.completed_epochs = st.last_epoch;
      return result;
    }
    es.credits_spent = report.credits_spent;
    st.total_credits += report.credits_spent;

    // 3. Compile the refreshed entries and publish the next version.
    publish::CompileOptions opts = cfg.compile;
    opts.measured_at_s = now;
    const auto refreshed = publish::refresh_entries(s, report, opts);
    es.refreshed_entries = refreshed.size();

    publish::SnapshotBuilder builder;
    for (std::size_t i = 0; i < current->size(); ++i) {
      builder.add(publish::to_record(current->entry(i)));
    }
    builder.add(refreshed);
    st.dataset_version += 1;
    const publish::SnapshotMeta meta{
        .dataset_version = st.dataset_version,
        .created_at_s = now,
        .source = std::string("longitudinal ") +
                  std::string(to_string(policy)) + " epoch " +
                  std::to_string(epoch)};
    std::vector<std::byte> bytes = builder.build(meta);
    result.final_snapshot_bytes = bytes;
    const auto next = publish::Snapshot::from_bytes(std::move(bytes));

    const publish::DiffStats diff = publish::diff_snapshots(*current, *next);
    es.diff_churn_fraction = diff.churn_fraction();
    // Strike the /16 blocks this publish saw move. The map is cumulative —
    // a block stays hot until every member has been re-measured after its
    // latest strike (select_prefixes' measured_at < strike test), which is
    // exactly what wave-correlated reassignment needs: waves run for
    // several epochs, so one observed mover indicts the whole block.
    for (const net::Prefix& p : diff.moved_prefixes) {
      hot16[p.network().value() & net::Prefix::mask(16)] = now;
    }
    service.publish(next);
    current = next;
    es.dataset_version = st.dataset_version;
    es.snapshot_median_error_km = evaluate_snapshot(s, *next).median_error_km;

    st.last_epoch = epoch;
    st.query_err_sum += es.query_mean_error_km;
    st.epochs_scored += 1;
    if (durable) {
      (void)util::durable::atomic_write_file(
          snapshot_path(cfg.state_dir, epoch), result.final_snapshot_bytes);
      (void)save_state(cfg.state_dir, st);
    }
    result.epochs.push_back(es);
  }

  result.completed_epochs = st.last_epoch;
  result.total_credits = st.total_credits;
  result.mean_query_error_km =
      st.epochs_scored == 0
          ? 0.0
          : st.query_err_sum / static_cast<double>(st.epochs_scored);
  result.final_snapshot_error_km =
      evaluate_snapshot(s, *current).median_error_km;
  return result;
}

std::vector<FrontierPoint> freshness_frontier(
    const scenario::ScenarioConfig& base,
    std::span<const std::size_t> budgets, const LongitudinalConfig& cfg) {
  std::vector<FrontierPoint> frontier;
  for (const std::size_t budget : budgets) {
    for (const RemeasurePolicy policy : all_policies()) {
      // Churn mutates the world, so every cell gets its own scenario.
      scenario::Scenario s(base);
      LongitudinalConfig cell = cfg;
      cell.budget_prefixes = budget;
      cell.state_dir.clear();  // sweep cells are never durable
      cell.interrupt_epoch = 0;
      const LongitudinalResult r = run_longitudinal(s, policy, cell);
      frontier.push_back(FrontierPoint{
          .policy = policy,
          .budget_prefixes = budget,
          .credits_spent = r.total_credits,
          .mean_query_error_km = r.mean_query_error_km,
          .final_snapshot_error_km = r.final_snapshot_error_km});
    }
  }
  return frontier;
}

}  // namespace geoloc::eval
