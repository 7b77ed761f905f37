// Spatial interval-index microbenchmark: build throughput, point-lookup
// and radius-query latency (p50/p99) against the linear scans the index
// replaced, at 10k / 100k / 1M synthetic POIs.
//
// Acceptance shape (ISSUE/EXPERIMENTS): radius queries at 100k POIs are
// >= 10x faster than the linear scan at p50, and index query latency grows
// sub-linearly from 100k to 1M (the scan grows ~10x, the index does not —
// covering size is bounded by spatial::kCoveringMaxCells and per-cell walks
// touch only resident candidates).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "geo/geodesy.h"
#include "spatial/cell.h"
#include "spatial/interval_index.h"
#include "util/rng.h"

namespace {

using namespace geoloc;
using Clock = std::chrono::steady_clock;

/// City-clustered POIs: ~90% cluster around a few hundred hotspots (the
/// web-ecosystem shape), 10% uniform background. Returns the POIs plus the
/// hotspot centres (the natural query points).
struct Workload {
  std::vector<geo::GeoPoint> pois;
  std::vector<geo::GeoPoint> hotspots;
};

Workload make_workload(std::size_t poi_count, std::uint64_t seed) {
  util::Pcg32 gen(seed);
  Workload w;
  const std::size_t nhot = std::max<std::size_t>(32, poi_count / 2000);
  w.hotspots.reserve(nhot);
  for (std::size_t i = 0; i < nhot; ++i) {
    w.hotspots.push_back(
        {gen.uniform(-60.0, 70.0), gen.uniform(-180.0, 180.0)});
  }
  w.pois.reserve(poi_count);
  for (std::size_t i = 0; i < poi_count; ++i) {
    if (gen.chance(0.9)) {
      const geo::GeoPoint& c = w.hotspots[gen.index(w.hotspots.size())];
      w.pois.push_back(geo::destination(c, gen.uniform(0.0, 360.0),
                                        gen.uniform(0.0, 30.0)));
    } else {
      w.pois.push_back(
          {gen.uniform(-90.0, 90.0), gen.uniform(-180.0, 180.0)});
    }
  }
  return w;
}

struct Percentiles {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

Percentiles percentiles(std::vector<double>& samples_us) {
  std::sort(samples_us.begin(), samples_us.end());
  const auto at = [&](double q) {
    return samples_us[std::min(samples_us.size() - 1,
                               static_cast<std::size_t>(
                                   q * static_cast<double>(samples_us.size())))];
  };
  return {at(0.50), at(0.99)};
}

/// Per-query latency samples of `fn` over `queries` points.
template <typename Fn>
Percentiles measure(const std::vector<geo::GeoPoint>& queries, Fn&& fn) {
  std::vector<double> us;
  us.reserve(queries.size());
  for (const geo::GeoPoint& q : queries) {
    const auto t0 = Clock::now();
    benchmark::DoNotOptimize(fn(q));
    const auto t1 = Clock::now();
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  return percentiles(us);
}

}  // namespace

int main() {
  bench::print_header(
      "bench_spatial_index",
      "interval-index build + query latency vs the legacy linear scans",
      "radius queries >= 10x the scan at 100k POIs; index latency grows "
      "sub-linearly to 1M while the scan grows ~10x");

  constexpr double kRadiusKm = 50.0;
  double index_p50_100k = 0.0;
  double index_p50_1m = 0.0;
  double scan_p50_100k = 0.0;
  double speedup_100k = 0.0;

  for (const std::size_t pois : {std::size_t{10'000}, std::size_t{100'000},
                                 std::size_t{1'000'000}}) {
    const Workload w = make_workload(pois, /*seed=*/pois);

    // -- build throughput ---------------------------------------------------
    const auto b0 = Clock::now();
    const spatial::IntervalIndex index = spatial::IntervalIndex::build(w.pois);
    const double build_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - b0).count();
    std::printf("\n%zu POIs: build %.1f ms (%.2f M items/s), %zu tokens\n",
                pois, build_ms,
                static_cast<double>(pois) / build_ms / 1e3,
                index.token_count());

    // Query mix: hotspot centres (dense) plus uniform points (sparse).
    util::Pcg32 qgen(pois + 1);
    std::vector<geo::GeoPoint> queries;
    const std::size_t nq = pois >= 1'000'000 ? 400 : 2'000;
    for (std::size_t i = 0; i < nq; ++i) {
      if (qgen.chance(0.7)) {
        const geo::GeoPoint& c = w.hotspots[qgen.index(w.hotspots.size())];
        queries.push_back(geo::destination(c, qgen.uniform(0.0, 360.0),
                                           qgen.uniform(0.0, 20.0)));
      } else {
        queries.push_back(
            {qgen.uniform(-90.0, 90.0), qgen.uniform(-180.0, 180.0)});
      }
    }

    // -- point lookup: payloads at the query's leaf token -------------------
    const Percentiles pt = measure(queries, [&](const geo::GeoPoint& q) {
      return index.at_token(spatial::CellId::leaf_token(q)).size();
    });
    const Percentiles pt_scan = measure(queries, [&](const geo::GeoPoint& q) {
      const std::uint64_t token = spatial::CellId::leaf_token(q);
      std::size_t hits = 0;
      for (const geo::GeoPoint& p : w.pois) {
        if (spatial::CellId::leaf_token(p) == token) ++hits;
      }
      return hits;
    });
    std::printf("  point lookup   index p50 %8.2f us  p99 %8.2f us   "
                "scan p50 %10.2f us  (%.0fx)\n",
                pt.p50_us, pt.p99_us, pt_scan.p50_us,
                pt_scan.p50_us / std::max(pt.p50_us, 1e-3));

    // -- radius query: exact POIs within kRadiusKm --------------------------
    const Percentiles rq = measure(queries, [&](const geo::GeoPoint& q) {
      std::size_t hits = 0;
      for (const std::uint32_t id :
           index.candidates_in_disk(geo::Disk{q, kRadiusKm})) {
        if (geo::distance_km(w.pois[id], q) <= kRadiusKm) ++hits;
      }
      return hits;
    });
    const Percentiles rq_scan = measure(queries, [&](const geo::GeoPoint& q) {
      std::size_t hits = 0;
      for (const geo::GeoPoint& p : w.pois) {
        if (geo::distance_km(p, q) <= kRadiusKm) ++hits;
      }
      return hits;
    });
    const double speedup = rq_scan.p50_us / std::max(rq.p50_us, 1e-3);
    std::printf("  radius %.0f km  index p50 %8.2f us  p99 %8.2f us   "
                "scan p50 %10.2f us  (%.0fx)\n",
                kRadiusKm, rq.p50_us, rq.p99_us, rq_scan.p50_us, speedup);

    if (pois == 100'000) {
      index_p50_100k = rq.p50_us;
      scan_p50_100k = rq_scan.p50_us;
      speedup_100k = speedup;
    }
    if (pois == 1'000'000) index_p50_1m = rq.p50_us;

    bench::emit_bench_json_fields(
        "spatial_index/scale",
        {{"pois", static_cast<double>(pois)},
         {"build_ms", build_ms},
         {"point_p50_us", pt.p50_us},
         {"point_p99_us", pt.p99_us},
         {"point_scan_p50_us", pt_scan.p50_us},
         {"radius_p50_us", rq.p50_us},
         {"radius_p99_us", rq.p99_us},
         {"radius_scan_p50_us", rq_scan.p50_us},
         {"radius_speedup_p50", speedup}});
  }

  const double growth_100k_to_1m = index_p50_1m / std::max(index_p50_100k, 1e-3);
  std::printf("\nacceptance: radius speedup at 100k POIs %.0fx (need >= 10x); "
              "index p50 grew %.2fx from 100k to 1M (scan grows ~10x)\n",
              speedup_100k, growth_100k_to_1m);
  bench::emit_bench_json_fields(
      "spatial_index/acceptance",
      {{"radius_speedup_100k", speedup_100k},
       {"index_growth_100k_to_1m", growth_100k_to_1m},
       {"scan_p50_100k_us", scan_p50_100k}});
  bench::emit_metrics_snapshot("spatial_index");

  const bool ok = speedup_100k >= 10.0 && growth_100k_to_1m < 5.0;
  std::printf("%s\n", ok ? "ACCEPTANCE OK" : "ACCEPTANCE NOT MET");
  return ok ? 0 : 1;
}
