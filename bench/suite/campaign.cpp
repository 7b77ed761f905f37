// campaign_targets and campaign_wide: the streaming million-scale pipeline
// (core::run_streaming_campaign) over a synthetic Internet generated from
// --seed. A round builds the synthetic Internet (timed as set-up) and runs
// one full campaign pass on it with fresh tile sources, so every pass does
// the same work and must produce the same errors_km. Building it in every
// round spreads the millisecond set-ups over the whole window, so setup_s
// samples the host for as long as the passes do.
//
// campaign_targets has many targets per /24 and few VPs, so CBG does the
// work; campaign_wide has the paper's 10 724 VPs and one target per /24, so
// rep-tile generation does. Each is the other's control.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "core/streaming_campaign.h"
#include "scenario/tile_source.h"
#include "sim/latency_model.h"
#include "sim/world.h"
#include "suite.h"
#include "trace.h"
#include "util/durable.h"
#include "util/parallel.h"
#include "util/procstat.h"

namespace geoloc::bench {

namespace {

struct Shape {
  std::size_t slash24s = 0;
  std::size_t targets_per_24 = 0;
  std::size_t vps = 0;
};

Shape shape_of(bool wide, bool quick) {
  if (wide) return quick ? Shape{200, 1, 256} : Shape{128, 1, 10'724};
  return quick ? Shape{100, 10, 128} : Shape{500, 10, 128};
}

// Tunables the library would otherwise read from GEOLOC_* variables.
constexpr scenario::TileShape kTileShape{256, 512};
constexpr std::size_t kTileBudget = 64;
constexpr int kPingPackets = 3;

/// The synthetic Internet: each /24 has three hitlist representatives and
/// `targets_per_24` targets, probed by `vps` vantage points spread over the
/// continents. The world owns the hosts; the latency model borrows it.
struct SynthWorld {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<sim::LatencyModel> latency;
  std::vector<sim::HostId> vps;
  std::vector<sim::HostId> rep_dsts;
  std::vector<sim::HostId> target_dsts;
  std::vector<std::uint32_t> target_to_rep_col;
};

std::unique_ptr<SynthWorld> build_world(std::uint64_t seed, const Shape& shape) {
  auto w = std::make_unique<SynthWorld>();
  sim::WorldConfig wc;
  wc.seed = seed;
  w->world = std::make_unique<sim::World>(wc);
  sim::World& world = *w->world;
  auto gen = world.rng().fork("bench-campaign").gen();
  const auto continents = sim::all_continents();

  std::vector<net::Asn> ases;
  for (int i = 0; i < 64; ++i) {
    ases.push_back(world.create_as(sim::AsCategory::Access, 0));
  }
  for (std::size_t v = 0; v < shape.vps; ++v) {
    sim::Host h;
    h.kind = sim::HostKind::Probe;
    h.asn = ases[v % ases.size()];
    h.place = world.sample_place(continents[v % continents.size()], 0.2, gen);
    h.true_location = world.sample_location(h.place, 8.0, gen);
    h.reported_location = h.true_location;
    h.last_mile_ms = gen.uniform(0.5, 10.0);
    h.addr = world.allocate_site_prefix(h.asn).address_at(1);
    w->vps.push_back(world.add_host(h));
  }
  for (std::size_t site = 0; site < shape.slash24s; ++site) {
    const net::Asn asn = ases[site % ases.size()];
    const net::Prefix prefix = world.allocate_site_prefix(asn);
    const sim::PlaceId place =
        world.sample_place(continents[site % continents.size()], 0.3, gen);
    const double site_last_mile = gen.uniform(0.3, 6.0);
    auto make = [&](sim::HostKind kind, std::uint32_t octet,
                    double responsive_prob) {
      sim::Host h;
      h.kind = kind;
      h.asn = asn;
      h.place = place;
      h.true_location = world.sample_location(place, 2.0, gen);
      h.reported_location = h.true_location;
      h.last_mile_ms = site_last_mile + gen.uniform(0.0, 2.0);
      h.responsive = gen.chance(responsive_prob);
      h.addr = prefix.address_at(octet);
      return world.add_host(h);
    };
    for (std::uint32_t j = 0; j < 3; ++j) {
      w->rep_dsts.push_back(make(sim::HostKind::Representative, 1 + j, 0.9));
    }
    for (std::uint32_t j = 0; j < shape.targets_per_24; ++j) {
      w->target_dsts.push_back(make(sim::HostKind::WebServer, 10 + j, 0.97));
      w->target_to_rep_col.push_back(static_cast<std::uint32_t>(site));
    }
  }
  w->latency = std::make_unique<sim::LatencyModel>(world);
  return w;
}

scenario::RttTileSource make_source(const SynthWorld& w, bool reps) {
  scenario::TileCampaign c;
  c.world = w.world.get();
  c.latency = w.latency.get();
  c.vps = w.vps;
  c.dsts = reps ? w.rep_dsts : w.target_dsts;
  c.group = reps ? 3 : 1;
  c.stream = w.world->rng().fork(reps ? "bench-reps" : "bench-targets");
  c.ping_packets = kPingPackets;
  return scenario::RttTileSource(std::move(c), kTileShape, kTileBudget);
}

/// The paper's shortest-ping k and the default CBG.
const core::StreamingCampaignConfig kCampaign{.k = 3, .cbg = {}};

/// What one pass produced, plus the counts the traced pass measures.
struct Pass {
  std::vector<double> errors_km;
  std::size_t located = 0;
  std::size_t failed = 0;
  std::uint64_t tiles = 0;
  std::uint64_t tile_hits = 0;
  std::uint64_t cells = 0;
};

Pass untraced_pass(const SynthWorld& w) {
  auto reps = make_source(w, true);
  auto targets = make_source(w, false);
  core::StreamingCampaignOutcome out = core::run_streaming_campaign(
      reps, targets, w.target_to_rep_col, kCampaign);
  return Pass{std::move(out.errors_km), out.located, out.failed, 0, 0, 0};
}

/// run_streaming_campaign composed from its public pieces so each layer
/// gets its own spans: every rep tile of a block first (so that
/// streamed_select_block then measures selection alone, reading cached
/// tiles), then the per-target final pings and CBG on the pool.
Pass traced_pass(const SynthWorld& w) {
  auto reps = make_source(w, true);
  auto targets = make_source(w, false);
  const sim::World& world = *w.world;
  const std::size_t n_targets = targets.cols();
  const std::size_t block = reps.shape().target_block;

  std::vector<std::vector<std::uint32_t>> targets_of_block(reps.target_blocks());
  for (std::size_t t = 0; t < n_targets; ++t) {
    targets_of_block[w.target_to_rep_col[t] / block].push_back(
        static_cast<std::uint32_t>(t));
  }

  struct TargetOutcome {
    double error_km = -1.0;
    std::uint32_t cells = 0;
  };
  Pass pass;
  pass.errors_km.assign(n_targets, -1.0);
  for (std::size_t tb = 0; tb < reps.target_blocks(); ++tb) {
    const auto& block_targets = targets_of_block[tb];
    if (block_targets.empty()) continue;
    for (std::size_t vb = 0; vb < reps.vp_blocks(); ++vb) {
      const trace::Scope span("scenario.tile");
      (void)reps.tile(vb, tb);
    }
    std::vector<std::vector<std::size_t>> selection;
    {
      const trace::Scope span("core.select");
      selection = core::streamed_select_block(reps, tb, kCampaign.k);
    }
    const std::size_t col_begin = tb * block;
    const trace::Scope region("util.parallel_map");
    const std::uint32_t parent = region.id();
    const std::vector<TargetOutcome> results =
        util::parallel_map<TargetOutcome>(
            block_targets.size(), [&](std::size_t i) {
              const std::size_t t = block_targets[i];
              const auto& rows = selection[w.target_to_rep_col[t] - col_begin];
              const sim::HostId target = targets.campaign().dsts[t];
              TargetOutcome to;
              std::vector<core::VpObservation> obs;
              obs.reserve(rows.size());
              {
                const trace::Scope span("scenario.cell", parent);
                for (const std::size_t r : rows) {
                  if (w.vps[r] == target) continue;
                  const float rtt = targets.cell(r, t);
                  ++to.cells;
                  if (scenario::RttMatrix::is_missing(rtt)) continue;
                  obs.push_back(core::VpObservation{
                      world.host(w.vps[r]).reported_location, rtt});
                }
              }
              core::CbgResult res;
              {
                const trace::Scope span("core.cbg", parent);
                res = core::cbg_geolocate(obs, kCampaign.cbg);
              }
              if (res.ok) {
                to.error_km = geo::distance_km(res.estimate,
                                               world.host(target).true_location);
              }
              return to;
            });
    for (std::size_t i = 0; i < block_targets.size(); ++i) {
      pass.errors_km[block_targets[i]] = results[i].error_km;
      pass.cells += results[i].cells;
      if (results[i].error_km >= 0.0) {
        ++pass.located;
      } else {
        ++pass.failed;
      }
    }
  }
  // Selection re-reads every prefetched tile: with a budget that holds a
  // block row, half the tile() calls hit.
  pass.tiles = reps.stats().misses;
  pass.tile_hits = reps.stats().hits;
  return pass;
}

std::uint64_t digest_of(const std::vector<double>& errors_km) {
  return util::durable::xxh64(std::as_bytes(std::span(errors_km)));
}

}  // namespace

void run_campaign(const Options& o, bool wide, Result& r) {
  const Shape shape = shape_of(wide, o.quick);
  const std::size_t n_targets = shape.slash24s * shape.targets_per_24;
  std::printf("%s: %zu /24 x %zu targets = %zu targets, %zu VPs\n",
              r.workload.c_str(), shape.slash24s, shape.targets_per_24,
              n_targets, shape.vps);

  // Rounds alternate untraced / traced when tracing, so the end-to-end
  // numbers and the tracing overhead come from the same run.
  std::vector<double> setups, walls, cpus, traced_walls;
  std::vector<std::uint64_t> pass_digests;
  std::vector<bool> pass_counted;  ///< located + failed == targets
  std::uint64_t traced_rounds = 0, cells = 0, tiles = 0, tile_hits = 0;
  std::uint64_t located = 0, cbg_calls = 0, allocs = 0;
  std::unique_ptr<SynthWorld> w;
  const auto window = Clock::now();
  for (std::size_t round = 0;; ++round) {
    w.reset();  // never two worlds in memory at once
    const auto s0 = Clock::now();
    w = build_world(o.seed, shape);
    setups.push_back(seconds_since(s0));

    const bool traced = o.trace && round % 2 == 1;
    trace::set_enabled(traced);
    const std::uint64_t allocs0 = util::procstat::alloc_count();
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    Pass pass;
    {
      const trace::Scope root("bench.pass");
      pass = traced ? traced_pass(*w) : untraced_pass(*w);
    }
    const double wall = seconds_since(t0);
    const double cpu = process_cpu_s() - cpu0;
    allocs += util::procstat::alloc_count() - allocs0;
    trace::set_enabled(false);

    r.attempted += n_targets;
    pass_counted.push_back(pass.located + pass.failed == n_targets);
    pass_digests.push_back(digest_of(pass.errors_km));
    if (traced) {
      traced_walls.push_back(wall);
      ++traced_rounds;
      cells += pass.cells;
      tiles += pass.tiles;
      tile_hits += pass.tile_hits;
      located += pass.located;
      cbg_calls += n_targets;
    } else {
      walls.push_back(wall);
      cpus.push_back(cpu);
    }
    const bool pinned_done = o.pin && round + 1 >= (o.trace ? 2u : 1u);
    const bool window_done = !o.pin && seconds_since(window) >= o.seconds &&
                             (!o.trace || traced_rounds > 0);
    if (pinned_done || window_done) break;
  }
  r.end_to_end["setup_s"] = median_of(setups);

  // Every pass, traced or not, must reproduce the pinned errors (seed 1)
  // or else the first pass's.
  const auto pinned = expected_digests(o, r.workload);
  const std::string want = pinned.empty() ? hex64(pass_digests[0]) : pinned[0];
  for (std::size_t i = 0; i < pass_digests.size(); ++i) {
    const std::string got = hex64(pass_digests[i]);
    const std::string pass = "pass " + std::to_string(i);
    r.check(pass_counted[i], pass + ": located + failed != targets");
    r.check(got == want, pass + ": errors_km digest " + got + " != " + want);
    if (!pass_counted[i] || got != want) r.failed += n_targets;
  }
  r.digests.emplace_back("errors_km", hex64(pass_digests[0]));

  std::vector<double> rates, cpu_per;
  for (std::size_t i = 0; i < walls.size(); ++i) {
    rates.push_back(static_cast<double>(n_targets) / walls[i]);
    cpu_per.push_back(cpus[i] * 1e6 / static_cast<double>(n_targets));
  }
  r.end_to_end["addrs_per_s"] = median_of(rates);
  r.end_to_end["cpu_us_per_addr"] = median_of(cpu_per);
  r.end_to_end["latency_p50_ms"] = median_of(walls) * 1e3;

  const double rounds = static_cast<double>(pass_digests.size());
  r.per_layer["util.allocs_per_addr"] =
      static_cast<double>(allocs) / (rounds * static_cast<double>(n_targets));
  if (traced_rounds > 0) {
    const double tr = static_cast<double>(traced_rounds);
    r.per_layer["scenario.tiles"] = static_cast<double>(tiles) / tr;
    r.per_layer["scenario.tile_hit_rate"] =
        static_cast<double>(tile_hits) / static_cast<double>(tiles + tile_hits);
    r.per_layer["scenario.cells"] = static_cast<double>(cells) / tr;
    r.per_layer["core.cbg_calls"] = static_cast<double>(cbg_calls) / tr;
    r.per_layer["core.cbg_ok_frac"] =
        static_cast<double>(located) / static_cast<double>(cbg_calls);
    r.per_layer["trace.overhead_ms"] =
        (median_of(traced_walls) - median_of(walls)) * 1e3;
  }
  fold_trace(o, r, "bench.pass", traced_rounds);
}

}  // namespace geoloc::bench
