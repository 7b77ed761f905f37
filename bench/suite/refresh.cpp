// refresh: the production loop that keeps a published dataset fresh, and
// the only workload that reaches atlas, churn and compile. Set-up builds
// paper_config(seed) without the web ecosystem and compiles the bootstrap
// snapshot; a round is one epoch:
//
//   ChurnModel::advance -> GeoService::stale_prefixes -> proximity
//   plan_remeasurement (50 VPs per target) -> CampaignExecutor::execute
//   under drizzle_weather(seed) -> refresh_entries -> SnapshotBuilder::build
//   (carry-over + refreshed) -> Snapshot::from_bytes -> GeoService::publish
//
// Epochs are a deterministic function of the seed, so epoch e publishes
// the same dataset in every run; the chain of per-epoch content digests is
// pinned for seed 1.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "atlas/executor.h"
#include "atlas/platform.h"
#include "publish/compile.h"
#include "publish/snapshot.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "serve/geo_service.h"
#include "sim/churn.h"
#include "suite.h"
#include "trace.h"
#include "util/durable.h"
#include "util/procstat.h"

namespace geoloc::bench {

namespace {

constexpr double kEpochS = 30 * 86'400.0;
constexpr std::size_t kVpsPerTarget = 50;
constexpr int kPackets = 3;
constexpr std::size_t kQuickEpochs = 2;
constexpr std::size_t kPinnedEpochs = 16;

struct RefreshState {
  std::unique_ptr<scenario::Scenario> s;
  std::shared_ptr<const publish::Snapshot> current;
  std::unique_ptr<serve::GeoService> service;
  std::unique_ptr<sim::ChurnModel> churn;
};

std::unique_ptr<RefreshState> set_up(const Options& o) {
  scenario::ScenarioConfig cfg = o.quick ? scenario::small_config(o.seed)
                                         : scenario::paper_config(o.seed);
  cfg.cache_dir.clear();
  cfg.build_web = false;
  auto st = std::make_unique<RefreshState>();
  st->s = std::make_unique<scenario::Scenario>(cfg);
  {
    const trace::Scope span("scenario.materialise");
    (void)st->s->target_rtts();
  }
  std::vector<publish::Record> records;
  {
    const trace::Scope span("publish.compile");
    publish::CompileOptions opts;
    opts.measured_at_s = 0.0;
    records = publish::compile_entries(*st->s, opts);
  }
  publish::SnapshotBuilder builder;
  builder.add(records);
  st->current = publish::Snapshot::from_bytes(builder.build(
      {.dataset_version = 1, .created_at_s = 0.0, .source = "bench bootstrap"}));
  st->service = std::make_unique<serve::GeoService>(st->current);
  sim::ChurnConfig churn;
  churn.seed = o.seed;
  st->churn = std::make_unique<sim::ChurnModel>(
      st->s->world(), st->s->targets(), st->s->vps(), churn);
  return st;
}

/// XXH64 over the decoded dataset (meta + every entry's fields), so the pin
/// follows what consumers read, not one encoding of it.
std::uint64_t content_digest(const publish::Snapshot& snap) {
  util::durable::PayloadWriter w;
  w.pod(snap.dataset_version());
  w.pod(snap.created_at_s());
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const publish::SnapshotEntry e = snap.entry(i);
    w.pod(e.prefix.network().value());
    w.pod(e.prefix.length());
    w.pod(e.location.lat_deg);
    w.pod(e.location.lon_deg);
    w.pod(static_cast<std::uint8_t>(e.method));
    w.pod(static_cast<std::uint8_t>(e.tier));
    w.pod(e.confidence_radius_km);
    w.pod(e.ttl_s);
    w.pod(e.measured_at_s);
    w.bytes(e.provenance.data(), e.provenance.size());
  }
  return util::durable::xxh64(w.data());
}

struct EpochOutcome {
  std::size_t targets = 0;
  atlas::CampaignReport report;
  std::size_t refreshed = 0;
  std::shared_ptr<const publish::Snapshot> next;
};

EpochOutcome run_epoch(const Options& o, RefreshState& st, std::uint64_t epoch) {
  const double now = static_cast<double>(epoch) * kEpochS;
  EpochOutcome out;
  {
    const trace::Scope span("sim.churn");
    (void)st.churn->advance(epoch);
    st.s->invalidate_rtt_matrices();
  }
  std::vector<net::Prefix> stale;
  {
    const trace::Scope span("serve.stale_scan");
    stale = st.service->stale_prefixes(now);
  }
  std::vector<atlas::MeasurementRequest> requests;
  {
    const trace::Scope span("serve.plan");
    requests = serve::plan_remeasurement(*st.s, stale, *st.current,
                                         st.churn->active_vps(), kVpsPerTarget,
                                         kPackets);
  }
  std::vector<sim::HostId> targets;
  for (const auto& q : requests) targets.push_back(q.target);
  std::sort(targets.begin(), targets.end());
  out.targets = static_cast<std::size_t>(
      std::unique(targets.begin(), targets.end()) - targets.begin());

  atlas::Platform platform(st.s->world(), st.s->latency(), {});
  const atlas::FaultModel weather(st.s->world(),
                                  scenario::drizzle_weather(o.seed));
  platform.set_fault_model(&weather);
  atlas::CampaignExecutor executor(platform, atlas::ExecutorConfig{});
  {
    const trace::Scope span("atlas.execute");
    out.report = executor.execute(requests);
  }
  publish::CompileOptions opts;
  opts.measured_at_s = now;
  std::vector<publish::Record> refreshed;
  {
    const trace::Scope span("publish.refresh");
    refreshed = publish::refresh_entries(*st.s, out.report, opts);
  }
  out.refreshed = refreshed.size();
  std::vector<std::byte> bytes;
  {
    const trace::Scope span("publish.build");
    publish::SnapshotBuilder builder;
    for (std::size_t i = 0; i < st.current->size(); ++i) {
      builder.add(publish::to_record(st.current->entry(i)));
    }
    builder.add(refreshed);
    bytes = builder.build(
        {.dataset_version = st.current->dataset_version() + 1,
         .created_at_s = now,
         .source = "bench refresh epoch " + std::to_string(epoch)});
  }
  {
    const trace::Scope span("publish.decode");
    out.next = publish::Snapshot::from_bytes(std::move(bytes));
  }
  if (out.next) {
    const trace::Scope span("serve.swap");
    st.service->publish(out.next);
  }
  return out;
}

}  // namespace

void run_refresh(const Options& o, Result& r) {
  trace::set_enabled(o.trace);  // set-up spans: materialise + compile
  const std::unique_ptr<RefreshState> st =
      timed_setup(o, r, [&] { return set_up(o); });
  trace::set_enabled(false);
  std::printf("%s: %zu targets, %zu VPs, bootstrap snapshot %zu entries\n",
              r.workload.c_str(), st->s->targets().size(), st->s->vps().size(),
              st->current->size());

  const std::vector<std::string> pinned = expected_digests(o, r.workload);
  std::vector<double> walls, cpus, rates, traced_walls;
  std::vector<std::string> chain;
  std::uint64_t traced_rounds = 0, addrs = 0, plan_requests = 0, attempts = 0,
                retries = 0, abandoned = 0, completed = 0;
  const std::uint64_t allocs0 = util::procstat::alloc_count();
  const auto window = Clock::now();
  for (std::uint64_t epoch = 1;; ++epoch) {
    const bool traced = o.trace && epoch % 2 == 0;
    trace::set_enabled(traced);
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    EpochOutcome out;
    {
      const trace::Scope root("bench.epoch");
      out = run_epoch(o, *st, epoch);
    }
    const double wall = seconds_since(t0);
    const double cpu = process_cpu_s() - cpu0;
    trace::set_enabled(false);

    ++r.attempted;
    const std::size_t failures_before = r.check_failures.size();
    const std::string e = "epoch " + std::to_string(epoch) + ": ";
    const atlas::CampaignReport& rep = out.report;
    r.check(out.next != nullptr, e + "snapshot failed to decode");
    r.check(!rep.interrupted, e + "campaign interrupted");
    r.check(rep.requested == rep.completed + rep.abandoned,
            e + "requested != completed + abandoned");
    r.check(out.refreshed <= out.targets, e + "more entries than targets");
    if (out.next) {
      r.check(out.next->dataset_version() == epoch + 1,
              e + "dataset_version did not advance by one");
      const std::string digest = hex64(content_digest(*out.next));
      chain.push_back(digest);
      if (epoch <= pinned.size()) {
        r.check(pinned[epoch - 1] == digest,
                e + "content digest " + digest + " != pinned " +
                    pinned[epoch - 1]);
      }
      st->current = out.next;
    }
    if (r.check_failures.size() > failures_before) ++r.failed;

    addrs += out.targets;
    if (traced) {
      traced_walls.push_back(wall);
      ++traced_rounds;
      plan_requests += rep.requested;
      attempts += rep.attempts;
      retries += rep.retries;
      abandoned += rep.abandoned;
      completed += rep.completed;
    } else {
      walls.push_back(wall);
      cpus.push_back(cpu * 1e6 / static_cast<double>(out.targets));
      rates.push_back(static_cast<double>(out.targets) / wall);
    }
    if (out.next == nullptr) break;
    const std::size_t fixed =
        o.quick ? kQuickEpochs : (o.pin ? kPinnedEpochs : 0);
    if (fixed > 0 ? epoch >= fixed
                  : seconds_since(window) >= o.seconds &&
                        (!o.trace || traced_rounds > 0)) {
      break;
    }
  }
  const double allocs =
      static_cast<double>(util::procstat::alloc_count() - allocs0);
  std::string joined;
  for (const auto& d : chain) joined += (joined.empty() ? "" : ",") + d;
  r.digests.emplace_back("epoch_content", joined);

  r.end_to_end["addrs_per_s"] = median_of(rates);
  r.end_to_end["cpu_us_per_addr"] = median_of(cpus);
  r.end_to_end["latency_p50_ms"] = median_of(walls) * 1e3;

  r.per_layer["util.allocs_per_addr"] = allocs / static_cast<double>(addrs);
  if (traced_rounds > 0) {
    const double tr = static_cast<double>(traced_rounds);
    r.per_layer["serve.plan_requests"] = static_cast<double>(plan_requests) / tr;
    r.per_layer["atlas.attempts"] = static_cast<double>(attempts) / tr;
    r.per_layer["atlas.retries"] = static_cast<double>(retries) / tr;
    r.per_layer["atlas.abandoned"] = static_cast<double>(abandoned) / tr;
    r.per_layer["atlas.completed_per_attempt"] =
        static_cast<double>(completed) / static_cast<double>(attempts);
    r.per_layer["trace.overhead_ms"] =
        (median_of(traced_walls) - median_of(walls)) * 1e3;
  }
  fold_trace(o, r, "bench.epoch", traced_rounds);
}

}  // namespace geoloc::bench
