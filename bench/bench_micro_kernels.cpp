// Micro-benchmarks (google-benchmark) of the hot kernels: geodesy, RTT
// synthesis, constraint pruning, region intersection, flat-LPM lookups
// and the concrete CBG pipeline. These are the kernels behind the ~720k
// CBG evaluations of Figure 2a.
//
// After the google-benchmark suite, a custom main times the parallel
// engine (util/parallel.h): an ordered reduction and an uncached
// RTT-matrix materialisation, each emitted via GEOLOC_BENCH_JSON so a
// sweep over GEOLOC_THREADS yields a machine-diffable speedup table
// (BENCH_parallel_engine.json).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "atlas/checkpoint.h"
#include "bench_common.h"
#include "core/cbg.h"
#include "geo/geodesy.h"
#include "geo/region.h"
#include "net/flat_lpm.h"
#include "scenario/presets.h"
#include "sim/latency_model.h"
#include "util/durable.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace geoloc;

void BM_Haversine(benchmark::State& state) {
  auto gen = util::Pcg32{1};
  const geo::GeoPoint a{48.85, 2.35};
  geo::GeoPoint b{40.7, -74.0};
  for (auto _ : state) {
    b.lon_deg = gen.uniform(-180.0, 179.0);
    benchmark::DoNotOptimize(geo::distance_km(a, b));
  }
}
BENCHMARK(BM_Haversine);

void BM_Destination(benchmark::State& state) {
  auto gen = util::Pcg32{2};
  const geo::GeoPoint a{48.85, 2.35};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        geo::destination(a, gen.uniform(0.0, 360.0), 250.0));
  }
}
BENCHMARK(BM_Destination);

std::vector<geo::Disk> make_disks(int n, std::uint64_t seed) {
  auto gen = util::Pcg32{seed};
  const geo::GeoPoint truth{47.0, 5.0};
  std::vector<geo::Disk> disks;
  for (int i = 0; i < n; ++i) {
    const double d = gen.uniform(5.0, 2'000.0);
    const geo::GeoPoint vp =
        geo::destination(truth, gen.uniform(0.0, 360.0), d);
    disks.push_back(geo::Disk{vp, d * gen.uniform(1.05, 1.6) + 30.0});
  }
  return disks;
}

void BM_PruneDominated(benchmark::State& state) {
  const auto disks = make_disks(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::prune_dominated(disks));
  }
}
BENCHMARK(BM_PruneDominated)->Arg(8)->Arg(24)->Arg(64);

void BM_IntersectDisks(benchmark::State& state) {
  const auto disks = make_disks(static_cast<int>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::intersect_disks(disks));
  }
}
BENCHMARK(BM_IntersectDisks)->Arg(4)->Arg(12)->Arg(24);

void BM_CbgGeolocate(benchmark::State& state) {
  auto gen = util::Pcg32{5};
  const geo::GeoPoint truth{47.0, 5.0};
  std::vector<core::VpObservation> obs;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    const double d = gen.uniform(5.0, 3'000.0);
    const geo::GeoPoint vp =
        geo::destination(truth, gen.uniform(0.0, 360.0), d);
    obs.push_back({vp, geo::distance_to_min_rtt_ms(d) * 1.2 + 1.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::cbg_geolocate(obs));
  }
}
BENCHMARK(BM_CbgGeolocate)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_FlatLpmLookup(benchmark::State& state) {
  std::vector<std::pair<net::Prefix, int>> entries;
  auto gen = util::Pcg32{6};
  for (int i = 0; i < 10'000; ++i) {
    entries.emplace_back(net::Prefix{net::IPv4Address{gen()}, 24}, i);
  }
  const auto table = net::FlatLpm<int>::build(std::move(entries));
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(net::IPv4Address{gen()}));
  }
}
BENCHMARK(BM_FlatLpmLookup);

void BM_LatencyModelBaseRtt(benchmark::State& state) {
  static const scenario::Scenario* s = [] {
    auto cfg = scenario::small_config();
    cfg.cache_dir = "";
    return new scenario::Scenario(cfg);
  }();
  auto gen = util::Pcg32{7};
  const auto& vps = s->vps();
  for (auto _ : state) {
    const auto a = vps[gen.index(vps.size())];
    const auto b = vps[gen.index(vps.size())];
    benchmark::DoNotOptimize(s->latency().base_rtt_ms(a, b));
  }
}
BENCHMARK(BM_LatencyModelBaseRtt);

// -- durable layer (util/durable.h): the per-artifact overhead budget ------

void BM_Xxh64_1MiB(benchmark::State& state) {
  std::vector<std::byte> buf(1u << 20);
  auto gen = util::Pcg32{11};
  for (auto& b : buf) b = static_cast<std::byte>(gen());
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::durable::xxh64(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Xxh64_1MiB);

void BM_FramedWriteRead_64KiB(benchmark::State& state) {
  // Full durability round trip — stage, fsync, rename, validated read —
  // i.e. what one cache save/load actually costs over a raw fwrite.
  std::vector<std::byte> payload(64u << 10);
  auto gen = util::Pcg32{12};
  for (auto& b : payload) b = static_cast<std::byte>(gen());
  const std::string path = "bench-durable-frame.bin";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        util::durable::write_framed(path, /*magic=*/0xBE, 1, payload));
    benchmark::DoNotOptimize(util::durable::read_framed(path, 0xBE));
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_FramedWriteRead_64KiB);

void BM_CampaignReportCodec(benchmark::State& state) {
  // encode+decode of a 10k-result report: the cost of one checkpoint's
  // payload, paid once per round boundary.
  atlas::CampaignReport report;
  report.requested = report.completed = 10'000;
  auto gen = util::Pcg32{13};
  for (int i = 0; i < 10'000; ++i) {
    report.results.push_back(atlas::PingMeasurement{
        .vp = gen(), .target = gen(), .min_rtt_ms = gen.uniform(1.0, 300.0),
        .packets_sent = 3, .packets_received = 3});
  }
  for (auto _ : state) {
    const auto bytes = atlas::encode_report(report);
    atlas::CampaignReport decoded;
    benchmark::DoNotOptimize(atlas::decode_report(bytes, &decoded));
  }
}
BENCHMARK(BM_CampaignReportCodec);

void BM_MinRtt3Packets(benchmark::State& state) {
  static const scenario::Scenario* s = [] {
    auto cfg = scenario::small_config(/*seed=*/17);
    cfg.cache_dir = "";
    return new scenario::Scenario(cfg);
  }();
  auto gen = util::Pcg32{8};
  const auto& vps = s->vps();
  const auto& targets = s->targets();
  for (auto _ : state) {
    const auto a = vps[gen.index(vps.size())];
    const auto b = targets[gen.index(targets.size())];
    benchmark::DoNotOptimize(s->latency().min_rtt_ms(a, b, 3, gen));
  }
}
BENCHMARK(BM_MinRtt3Packets);

/// Wall-clock timings of the parallel engine itself, emitted as
/// GEOLOC_BENCH_JSON records. Deterministic: re-running at a different
/// GEOLOC_THREADS changes only wall_ms, never the computed values.
void run_parallel_engine_timings() {
  // Ordered reduction over 16M synthesised values: pure engine throughput,
  // no memory traffic beyond the per-chunk partials.
  {
    constexpr std::size_t n = 16u << 20;
    bench::WallTimer timer;
    const double total = util::parallel_reduce<double>(
        n, 0.0,
        [](std::size_t i) { return std::sin(static_cast<double>(i)); },
        std::plus<>{});
    benchmark::DoNotOptimize(total);
    bench::emit_bench_json("parallel_reduce_sin_16M", timer.elapsed_ms(),
                           /*vps=*/0, /*targets=*/0);
  }

  // RTT-matrix materialisation on a fresh scenario with the disk cache
  // disabled — the dominant cost of every figure's first run.
  {
    auto cfg = bench::small_mode() ? scenario::small_config()
                                   : scenario::paper_config();
    cfg.cache_dir = "";
    const scenario::Scenario s = scenario::Scenario::without_web(cfg);
    bench::WallTimer target_timer;
    benchmark::DoNotOptimize(&s.target_rtts());
    bench::emit_bench_json("rtt_matrix_target", target_timer.elapsed_ms(),
                           s.vps().size(), s.targets().size());
    bench::WallTimer rep_timer;
    benchmark::DoNotOptimize(&s.representative_rtts());
    bench::emit_bench_json("rtt_matrix_representatives",
                           rep_timer.elapsed_ms(), s.vps().size(),
                           s.targets().size());
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_parallel_engine_timings();
  bench::emit_metrics_snapshot("micro_kernels");
  return 0;
}
