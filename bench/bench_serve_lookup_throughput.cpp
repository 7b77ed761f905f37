// Serving-path throughput: lookups/sec of the flattened sorted-prefix-array
// LPM (net::FlatLpm, what publish::Snapshot serves from) and of each layer
// the serving path adds on top of it, single- and multi-threaded, plus the
// full GeoService path under a concurrent hot-swap writer. Rows report
// their rate as a fraction of the bare FlatLpm's.
//
// Expected shape: GeoService read throughput holds or scales with reader
// threads because the snapshot swap is RCU-style (readers never lock).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "net/flat_lpm.h"
#include "publish/snapshot.h"
#include "serve/geo_service.h"
#include "util/rng.h"

namespace {

using namespace geoloc;

struct Workload {
  std::vector<std::pair<net::Prefix, std::uint32_t>> prefixes;
  std::vector<net::IPv4Address> addresses;  ///< ~75% hits, ~25% uniform
};

Workload make_workload(std::size_t prefix_count, std::size_t address_count,
                       std::uint64_t seed) {
  util::Pcg32 gen(seed);
  Workload w;
  w.prefixes.reserve(prefix_count);
  for (std::size_t i = 0; i < prefix_count; ++i) {
    // Routing-table-like length mix: mostly /24s, some covering prefixes.
    const int len = gen.chance(0.6)    ? 24
                    : gen.chance(0.5)  ? static_cast<int>(16 + gen.bounded(8))
                                       : static_cast<int>(8 + gen.bounded(8));
    w.prefixes.emplace_back(
        net::Prefix{net::IPv4Address{gen() & net::Prefix::mask(len)}, len},
        static_cast<std::uint32_t>(i));
  }
  w.addresses.reserve(address_count);
  for (std::size_t i = 0; i < address_count; ++i) {
    if (gen.chance(0.75)) {
      const auto& p = w.prefixes[gen.bounded(
          static_cast<std::uint32_t>(w.prefixes.size()))];
      const std::uint64_t size = 1ULL << (32 - p.first.length());
      w.addresses.emplace_back(static_cast<std::uint32_t>(
          p.first.network().value() + gen.index(static_cast<std::size_t>(size))));
    } else {
      w.addresses.emplace_back(gen());
    }
  }
  return w;
}

/// Run `fn(addresses)` repeatedly for ~min_time and return lookups/sec.
template <typename Fn>
double measure(const std::vector<net::IPv4Address>& addresses, Fn&& fn,
               double min_time_s = 0.4) {
  using clock = std::chrono::steady_clock;
  // Warm-up pass (page in the structures).
  fn(addresses);
  std::uint64_t lookups = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    fn(addresses);
    lookups += addresses.size();
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < min_time_s);
  return static_cast<double>(lookups) / elapsed;
}

/// Aggregate lookups/sec over `threads` readers running `fn` concurrently.
template <typename Fn>
double measure_threads(int threads,
                       const std::vector<net::IPv4Address>& addresses,
                       Fn&& fn, double min_time_s = 0.4) {
  std::atomic<std::uint64_t> total{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      std::uint64_t mine = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        fn(addresses);
        mine += addresses.size();
      }
      total.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(min_time_s * 1000)));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : pool) th.join();
  const double elapsed =
      std::chrono::duration<double>(clock::now() - start).count();
  return static_cast<double>(total.load()) / elapsed;
}

void print_row(const char* name, double rate, double baseline) {
  std::printf("  %-34s %12.2f Mlookups/s   %6.2fx vs FlatLpm\n", name,
              rate / 1e6, rate / baseline);
}

}  // namespace

int main() {
  bench::print_header(
      "bench_serve_lookup_throughput",
      "serving-path LPM throughput: flat sorted-prefix array and the "
      "layers above it",
      "RCU reads hold or scale with threads");

  const bool small = bench::small_mode();
  const std::size_t kPrefixes = small ? 10'000 : 100'000;
  const std::size_t kAddresses = small ? 20'000 : 200'000;
  const Workload w = make_workload(kPrefixes, kAddresses, /*seed=*/20230415);

  const auto flat = net::FlatLpm<std::uint32_t>::build(w.prefixes);

  publish::SnapshotBuilder builder;
  for (const auto& [p, v] : w.prefixes) {
    publish::Record r;
    r.prefix = p;
    r.location = {static_cast<double>(v % 90), static_cast<double>(v % 180)};
    r.provenance = "bench";
    builder.add(std::move(r));
  }
  const auto snapshot = publish::Snapshot::from_bytes(
      builder.build(publish::SnapshotMeta{.dataset_version = 1,
                                          .source = "bench workload"}));
  if (!snapshot) {
    std::fprintf(stderr, "snapshot build failed\n");
    return 1;
  }
  serve::GeoService service(snapshot);

  std::printf("workload: %zu prefixes (%zu flat intervals), %zu addresses "
              "(~75%% hits); host: %u hardware thread(s)\n",
              flat.size(), flat.interval_count(), w.addresses.size(),
              std::thread::hardware_concurrency());
  if (std::thread::hardware_concurrency() <= 2) {
    std::printf("[few-core host: the scaling rows can only show the absence "
                "of a lock convoy\n — aggregate throughput holding steady — "
                "not a linear speedup]\n");
  }
  std::printf("\n");

  const auto flat_pass = [&](const std::vector<net::IPv4Address>& a) {
    for (const auto addr : a) benchmark::DoNotOptimize(flat.lookup(addr));
  };
  const auto snap_pass = [&](const std::vector<net::IPv4Address>& a) {
    for (const auto addr : a) benchmark::DoNotOptimize(snapshot->find(addr));
  };
  const auto service_pass = [&](const std::vector<net::IPv4Address>& a) {
    for (const auto addr : a) {
      benchmark::DoNotOptimize(service.lookup(addr, /*now_s=*/0.0));
    }
  };

  std::printf("single thread:\n");
  const double flat_rate = measure(w.addresses, flat_pass);
  print_row("FlatLpm (baseline)", flat_rate, flat_rate);

  std::vector<const net::FlatLpm<std::uint32_t>::Slot*> batch_out(
      w.addresses.size());
  const double batch_rate = measure(
      w.addresses, [&](const std::vector<net::IPv4Address>& a) {
        flat.lookup_batch(a, batch_out);
        benchmark::DoNotOptimize(batch_out.data());
      });
  print_row("FlatLpm batch", batch_rate, flat_rate);
  const double snap_rate = measure(w.addresses, snap_pass);
  print_row("Snapshot::find", snap_rate, flat_rate);
  const double service_rate = measure(w.addresses, service_pass);
  print_row("GeoService::lookup", service_rate, flat_rate);

  std::printf("\nGeoService read scaling (no writer):\n");
  double one_thread_rate = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    const double rate = measure_threads(threads, w.addresses, service_pass);
    if (threads == 1) one_thread_rate = rate;
    std::printf("  %d thread(s): %10.2f Mlookups/s  (%.2fx of 1 thread)\n",
                threads, rate / 1e6, rate / one_thread_rate);
    bench::emit_bench_json_fields(
        "serve_lookup_throughput/scaling",
        {{"reader_threads", static_cast<double>(threads)},
         {"lookups_per_s", rate}});
  }

  std::printf("\nGeoService reads with a hot-swap writer (4 readers):\n");
  {
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      // Alternate between two identical-content snapshots as fast as the
      // readers will let us — worst-case swap pressure.
      auto a = snapshot;
      auto b = publish::Snapshot::from_bytes(builder.build(
          publish::SnapshotMeta{.dataset_version = 2, .source = "bench"}));
      std::uint64_t swaps = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        service.publish(++swaps % 2 == 0 ? a : b);
      }
    });
    const double rate = measure_threads(4, w.addresses, service_pass);
    stop.store(true, std::memory_order_relaxed);
    writer.join();
    std::printf("  4 readers + writer: %10.2f Mlookups/s\n", rate / 1e6);
    bench::emit_bench_json_fields("serve_lookup_throughput/hot_swap",
                                  {{"reader_threads", 4.0},
                                   {"lookups_per_s", rate}});
  }

  bench::emit_bench_json_fields("serve_lookup_throughput/single_thread",
                                {{"flat_lookups_per_s", flat_rate},
                                 {"batch_lookups_per_s", batch_rate},
                                 {"snapshot_lookups_per_s", snap_rate},
                                 {"service_lookups_per_s", service_rate}});
  bench::emit_metrics_snapshot("serve_lookup_throughput");
  return 0;
}
