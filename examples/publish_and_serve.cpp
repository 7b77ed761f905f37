// The full dataset lifecycle on the miniature scenario:
//
//   1. run a geolocation campaign and compile the results,
//   2. publish them as versioned snapshot v1 (write + re-load the file),
//   3. serve lookups from it,
//   4. advance the simulated clock until entries expire, drain the
//      stale-prefix queue, and re-measure under light platform weather,
//   5. publish v2 and print what changed between the versions.
//
//   $ ./build/examples/publish_and_serve
//
// Deterministic: re-running prints the same numbers.
#include <cstdio>
#include <string>
#include <vector>

#include "atlas/executor.h"
#include "atlas/faults.h"
#include "atlas/platform.h"
#include "eval/publication.h"
#include "publish/compile.h"
#include "publish/diff.h"
#include "publish/snapshot.h"
#include "scenario/presets.h"
#include "serve/geo_service.h"

int main() {
  using namespace geoloc;

  auto config = scenario::small_config();
  config.cache_dir = "";  // example: skip the on-disk measurement cache
  const scenario::Scenario scenario(config);
  std::printf("world: %zu targets, %zu VPs\n", scenario.targets().size(),
              scenario.vps().size());

  // 1. Compile the campaign into records. Short TTLs so the staleness loop
  //    below has something to do within the example's simulated hour.
  publish::CompileOptions opts;
  opts.measured_at_s = 0.0;
  opts.ok_ttl_s = 1'800.0f;       // 30 simulated minutes
  opts.degraded_ttl_s = 900.0f;
  opts.fallback_ttl_s = 600.0f;
  const auto records = publish::compile_entries(scenario, opts);

  // 2. Publish v1: write the snapshot file, re-load it (exercising the
  //    frame/version/XXH64 validation a consumer would hit), serve from it.
  const std::string path = "publish_and_serve_v1.bin";
  publish::SnapshotBuilder builder;
  builder.add(records);
  std::string error;
  if (!builder.write_file(path,
                          publish::SnapshotMeta{.dataset_version = 1,
                                                .created_at_s = 0.0,
                                                .source = "example campaign"},
                          &error)) {
    std::fprintf(stderr, "write failed: %s\n", error.c_str());
    return 1;
  }
  const auto v1 = publish::Snapshot::load(path, &error);
  if (!v1) {
    std::fprintf(stderr, "load failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("\npublished v1: %zu entries, payload XXH64 %016llx -> %s\n",
              v1->size(), static_cast<unsigned long long>(v1->checksum()),
              path.c_str());
  const auto quality = eval::evaluate_snapshot(scenario, *v1);
  std::printf("quality: %zu/%zu covered, median error %.1f km, "
              "%.0f%% city-level\n",
              quality.covered, quality.targets, quality.median_error_km,
              100.0 * quality.city_level_fraction);

  // 3. Serve a few lookups at t=0 (everything fresh).
  serve::GeoService service(v1);
  for (std::size_t i = 0; i < 3 && i < scenario.targets().size(); ++i) {
    const auto& host = scenario.world().host(scenario.targets()[i]);
    const auto a = service.lookup(host.addr, /*now_s=*/0.0);
    std::printf("  %s -> %s  [%s, tier %s, ±%.0f km, %s]\n",
                host.addr.to_string().c_str(),
                geo::to_string(a.location).c_str(),
                std::string(publish::to_string(a.method)).c_str(),
                std::string(core::to_string(a.tier)).c_str(),
                a.confidence_radius_km,
                std::string(a.provenance).c_str());
  }

  // 4. One simulated hour later every entry is past its TTL. Lookups now
  //    flag staleness and feed the re-measurement queue.
  const double now = 3'600.0;
  for (std::size_t i = 0; i < 8 && i < scenario.targets().size(); ++i) {
    (void)service.lookup(scenario.world().host(scenario.targets()[i]).addr,
                         now);
  }
  const auto stale = service.remeasure_queue().drain();
  std::printf("\nat t=%.0fs: %zu prefixes queued stale "
              "(%llu stale hits served)\n",
              now, stale.size(),
              static_cast<unsigned long long>(service.stats().stale_hits));

  const auto requests = serve::plan_remeasurement(scenario, stale,
                                                  /*vps_per_target=*/40);
  atlas::Platform platform(scenario.world(), scenario.latency(), {});
  const atlas::FaultModel weather(scenario.world(),
                                  scenario::drizzle_weather());
  platform.set_fault_model(&weather);
  atlas::CampaignExecutor executor(platform);
  const auto report = executor.execute(requests);
  std::printf("re-measurement: %zu requests, %.1f%% completed under "
              "drizzle weather\n",
              requests.size(), 100.0 * report.success_rate());

  publish::CompileOptions refresh_opts = opts;
  refresh_opts.measured_at_s = now;
  const auto refreshed =
      publish::refresh_entries(scenario, report, refresh_opts);

  // 5. Publish v2 = v1 overlaid with the refreshed entries (the builder
  //    dedups by prefix, last added wins) and diff the versions.
  publish::SnapshotBuilder builder2;
  builder2.add(records);
  builder2.add(refreshed);
  const auto v2 = publish::Snapshot::from_bytes(
      builder2.build(publish::SnapshotMeta{.dataset_version = 2,
                                           .created_at_s = now,
                                           .source = "staleness refresh"}),
      &error);
  if (!v2) {
    std::fprintf(stderr, "v2 build failed: %s\n", error.c_str());
    return 1;
  }
  service.publish(v2);
  std::printf("\npublished v2: %zu entries (%zu refreshed), swap #%llu\n",
              v2->size(), refreshed.size(),
              static_cast<unsigned long long>(service.stats().swaps));

  std::printf("\n%s", publish::format_diff(
                          publish::diff_snapshots(*v1, *v2)).c_str());
  std::remove(path.c_str());
  return 0;
}
