#include "scenario/scenario.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/tile_source.h"
#include "util/env.h"

namespace geoloc::scenario {

namespace {

/// RTT-matrix materialisation series: cache hit/miss counters plus a wall
/// histogram over materialisations. Observed strictly *around* the
/// parallel_for (which derives every cell's randomness from (r, c)), so
/// the matrices — and the disk-cache tag they feed — are untouched by
/// instrumentation.
struct MatrixMetrics {
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& cells;
  obs::Histogram& materialise_wall_ms;
};

MatrixMetrics& matrix_metrics() {
  static auto& reg = obs::Registry::instance();
  static MatrixMetrics m{reg.counter("scenario.rtt_matrix.cache_hits"),
                         reg.counter("scenario.rtt_matrix.cache_misses"),
                         reg.counter("scenario.rtt_matrix.cells"),
                         reg.histogram("scenario.rtt_matrix.wall_ms")};
  return m;
}

/// Fold a double into the fingerprint bit-exactly.
std::uint64_t mix(std::uint64_t h, double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  __builtin_memcpy(&bits, &v, sizeof bits);
  h ^= bits + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

const std::string& default_cache_dir() {
  static const std::string dir = "geoloc_cache";
  return dir;
}

std::uint64_t ScenarioConfig::fingerprint() const {
  // Bump whenever dataset/model *generation code* changes in a way configs
  // cannot express — it invalidates every on-disk cache.
  constexpr std::uint64_t kDataLayoutVersion = 3;

  std::uint64_t h = 0x1234fedcULL;
  h = mix(h, kDataLayoutVersion);
  h = mix(h, seed);
  h = mix(h, world.seed);
  h = mix(h, world.satellites_per_city);
  h = mix(h, world.satellite_min_km);
  h = mix(h, world.satellite_max_km);
  h = mix(h, world.more_specific_announce_rate);
  for (const int q :
       {catalog.anchor_quota.af, catalog.anchor_quota.as,
        catalog.anchor_quota.eu, catalog.anchor_quota.na,
        catalog.anchor_quota.oc, catalog.anchor_quota.sa,
        catalog.anchors_misgeolocated, catalog.probes_kept,
        catalog.probes_misgeolocated, catalog.anchor_as_pool,
        catalog.probe_as_pool}) {
    h = mix(h, static_cast<std::uint64_t>(q));
  }
  for (const double v :
       {catalog.probe_weights.af, catalog.probe_weights.as,
        catalog.probe_weights.eu, catalog.probe_weights.na,
        catalog.probe_weights.oc, catalog.probe_weights.sa,
        catalog.anchor_last_mile_min_ms, catalog.anchor_last_mile_max_ms,
        catalog.anchor_last_mile_high_floor_ms,
        catalog.anchor_last_mile_high_mean_ms,
        catalog.probe_last_mile_low_min_ms, catalog.probe_last_mile_low_max_ms,
        catalog.probe_last_mile_high_mean_ms,
        catalog.probe_satellite_bias, catalog.anchor_offset_mean_km,
        catalog.probe_offset_mean_km, catalog.misgeolocation_min_km}) {
    h = mix(h, v);
  }
  for (const double v : catalog.anchor_high_last_mile_prob) h = mix(h, v);
  for (const double v : catalog.anchor_satellite_bias_by_continent) {
    h = mix(h, v);
  }
  for (const double v : catalog.probe_high_last_mile_prob) h = mix(h, v);
  for (const double v : world.poorly_connected_city_prob) h = mix(h, v);
  h = mix(h, world.access_penalty_floor_ms);
  h = mix(h, world.access_penalty_mean_ms);
  h = mix(h, world.local_peering_rate);
  for (const double v :
       {hitlist.colocated_rate, hitlist.stray_min_km, hitlist.responsive_rate,
        hitlist.rep_last_mile_min_ms, hitlist.rep_last_mile_max_ms}) {
    h = mix(h, v);
  }
  for (const double v :
       {latency.min_inflation, latency.inflation_mu, latency.inflation_sigma,
        latency.inflation_host_sigma, latency.short_path_boost_km,
        latency.short_path_floor_km, latency.overhead_mean_ms,
        latency.overhead_local_mean_ms, latency.jitter_mean_ms,
        latency.loss_rate,
        latency.router_asym_sigma, latency.router_icmp_mean_ms,
        latency.router_icmp_tail_scale_ms, latency.router_icmp_tail_alpha,
        latency.router_icmp_tail_prob}) {
    h = mix(h, v);
  }
  for (const double v :
       {web.websites_per_1k_pop, web.hotspot_prob, web.hotspot_spread_km,
        web.loose_spread_km, web.local_share, web.cdn_share, web.chain_rate,
        web.zip_mismatch_rate, web.cdn_detect_rate, web.remote_detect_rate,
        web.local_false_detect_rate, web.webserver_last_mile_min_ms,
        web.webserver_last_mile_max_ms}) {
    h = mix(h, v);
  }
  for (const int q : {web.max_websites_per_place, web.min_websites_per_city,
                      web.cdn_pop_count, web.datacenter_hub_count}) {
    h = mix(h, static_cast<std::uint64_t>(q));
  }
  h = mix(h, static_cast<std::uint64_t>(ping_packets));
  h = mix(h, static_cast<std::uint64_t>(build_web ? 1 : 0));
  return h;
}

Scenario::Scenario(ScenarioConfig config)
    : Scenario(std::move(config), /*build_web=*/true) {}

Scenario Scenario::without_web(ScenarioConfig config) {
  config.build_web = false;
  return Scenario(std::move(config), false);
}

Scenario::Scenario(ScenarioConfig config, bool build_web) : config_(config) {
  config_.build_web = build_web && config_.build_web;
  build();
}

void Scenario::build() {
  sim::WorldConfig wc = config_.world;
  wc.seed = config_.seed;
  world_ = std::make_unique<sim::World>(wc);

  catalog_ = dataset::build_catalog(*world_, config_.catalog);
  hitlist_ = std::make_unique<dataset::Hitlist>(
      dataset::Hitlist::build(*world_, catalog_.anchors, config_.hitlist));
  if (config_.build_web) {
    web_ = std::make_unique<landmark::WebEcosystem>(
        landmark::WebEcosystem::build(*world_, mapping_, config_.web));
  }
  latency_ = std::make_unique<sim::LatencyModel>(*world_, config_.latency);

  dataset::SanitizeConfig sc;
  sc.ping_packets = config_.ping_packets;
  anchor_sanitisation_ =
      dataset::sanitize_anchors(*latency_, catalog_.anchors, sc);
  probe_sanitisation_ = dataset::sanitize_probes(
      *latency_, catalog_.probes, anchor_sanitisation_.kept, sc);

  targets_ = anchor_sanitisation_.kept;
  vps_ = targets_;
  vps_.insert(vps_.end(), probe_sanitisation_.kept.begin(),
              probe_sanitisation_.kept.end());

  for (std::size_t i = 0; i < vps_.size(); ++i) vp_index_[vps_[i]] = i;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    target_index_[targets_[i]] = i;
  }
}

const landmark::WebEcosystem& Scenario::web() const {
  if (!web_) {
    throw std::logic_error(
        "scenario was built without the web ecosystem (build_web=false)");
  }
  return *web_;
}

const dataset::PopulationGrid& Scenario::population() const {
  if (!population_) {
    population_ = std::make_unique<dataset::PopulationGrid>(*world_);
  }
  return *population_;
}

std::optional<std::string> Scenario::cache_path(
    const std::string& name) const {
  if (cache_disabled_) return std::nullopt;
  const std::string dir = util::env::string_or("GEOLOC_CACHE_DIR",
                                               config_.cache_dir);
  if (dir.empty()) return std::nullopt;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return std::nullopt;
  char tag[32];
  std::snprintf(tag, sizeof tag, "%016llx",
                static_cast<unsigned long long>(config_.fingerprint()));
  return dir + "/" + name + "-" + tag + ".bin";
}

const RttMatrix& Scenario::target_rtts() const {
  if (target_rtts_) return *target_rtts_;
  const obs::TraceSpan span("scenario.rtt_matrix.target");
  const std::uint64_t tag = config_.fingerprint() ^ 0x7a7a1ULL;
  const auto path = cache_path("target-rtts");
  auto m = std::make_unique<RttMatrix>();
  if (path && m->load(*path, tag)) {
    matrix_metrics().cache_hits.add();
    target_rtts_ = std::move(m);
    return *target_rtts_;
  }
  matrix_metrics().cache_misses.add();
  const auto start = std::chrono::steady_clock::now();
  // Small worlds still get the dense matrix, but it is assembled from the
  // streaming tile source (one scratch tile at a time) — byte-identical to
  // the old per-cell loop for any tile shape and GEOLOC_THREADS, which
  // keeps the disk-cache tag honest. Million-scale consumers skip this
  // method entirely and stream the tiles directly (DESIGN.md §14).
  m = std::make_unique<RttMatrix>(
      RttTileSource::for_targets(*this).materialise());
  matrix_metrics().cells.add(vps_.size() * targets_.size());
  matrix_metrics().materialise_wall_ms.observe(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (path) m->save(*path, tag);
  target_rtts_ = std::move(m);
  return *target_rtts_;
}

const RttMatrix& Scenario::representative_rtts() const {
  if (rep_rtts_) return *rep_rtts_;
  const obs::TraceSpan span("scenario.rtt_matrix.representatives");
  const std::uint64_t tag = config_.fingerprint() ^ 0x4e4e2ULL;
  const auto path = cache_path("rep-rtts");
  auto m = std::make_unique<RttMatrix>();
  if (path && m->load(*path, tag)) {
    matrix_metrics().cache_hits.add();
    rep_rtts_ = std::move(m);
    return *rep_rtts_;
  }
  matrix_metrics().cache_misses.add();
  const auto start = std::chrono::steady_clock::now();
  // Same tiling as target_rtts(); the representative campaign's median
  // semantics live in the tile source's cell recipe.
  m = std::make_unique<RttMatrix>(
      RttTileSource::for_representatives(*this).materialise());
  matrix_metrics().cells.add(vps_.size() * targets_.size());
  matrix_metrics().materialise_wall_ms.observe(
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count());
  if (path) m->save(*path, tag);
  rep_rtts_ = std::move(m);
  return *rep_rtts_;
}

void Scenario::invalidate_rtt_matrices() {
  target_rtts_.reset();
  rep_rtts_.reset();
  // The fingerprint tag no longer describes this world, so both disk-cache
  // load and save must stop — including via the GEOLOC_CACHE_DIR override,
  // hence the flag rather than just clearing config_.cache_dir.
  config_.cache_dir.clear();
  cache_disabled_ = true;
  static std::atomic<std::uint64_t> next_version{1};
  world_version_ = next_version.fetch_add(1, std::memory_order_relaxed);
}

std::size_t Scenario::vp_index(sim::HostId vp) const {
  return vp_index_.at(vp);
}
std::size_t Scenario::target_index(sim::HostId target) const {
  return target_index_.at(target);
}

}  // namespace geoloc::scenario
