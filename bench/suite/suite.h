// Shared plumbing of the geoloc_bench binary: run options, the result
// record every workload fills, the metric catalogue and the clocks.
//
// Every workload reports the same end-to-end metrics (so a regression gate
// can compare any workload on any metric) and the same per-layer metrics
// (a layer a workload never calls reports 0). The catalogue below is the
// single list both the binary and README.md follow.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace geoloc::bench {

struct Options {
  std::uint64_t seed = 1;
  bool quick = false;          ///< miniature sizes (CTest smoke run)
  double seconds = 10.0;       ///< measured window per workload
  bool trace = false;          ///< record spans and report per-layer metrics
  std::string trace_path;      ///< spans JSON (empty: not written)
  std::string workdir = ".";   ///< working files (published snapshots)
  std::string expected_path = GEOLOC_BENCH_EXPECTED;  ///< pinned digests
  int setups = 3;              ///< set-ups of refresh and serve_*
  bool pin = false;            ///< fixed round counts for expected.json
};

/// One metric the benchmark reports: its name and unit. Which way is
/// better, and the regression bounds, are in BENCHMARK.json.
struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// End-to-end metrics, reported by every workload from untraced rounds.
/// A "unit" of work is one target geolocated (campaign_*), one target
/// re-measured and republished (refresh) or one address answered (serve_*).
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"addrs_per_s", "1/s"},
    {"cpu_us_per_addr", "us"},
    {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, reported by a traced run. Span-derived `_ms` values
/// are self time per round (campaign pass, refresh epoch, publish cycle),
/// summed over threads; the two set-up layers are per set-up.
inline constexpr MetricSpec kPerLayer[] = {
    // campaign_*: the streaming million-scale pipeline
    {"scenario.tile_ms", "ms"},
    {"scenario.tiles", "count"},
    {"scenario.tile_hit_rate", "ratio"},
    {"core.select_ms", "ms"},
    {"scenario.cell_ms", "ms"},
    {"scenario.cells", "count"},
    {"core.cbg_ms", "ms"},
    {"core.cbg_calls", "count"},
    {"core.cbg_ok_frac", "ratio"},
    {"util.parallel_map_ms", "ms"},
    // refresh: set-up (per set-up) and the epoch loop (per epoch)
    {"scenario.materialise_ms", "ms"},
    {"publish.compile_ms", "ms"},
    {"sim.churn_ms", "ms"},
    {"serve.stale_scan_ms", "ms"},
    {"serve.plan_ms", "ms"},
    {"serve.plan_requests", "count"},
    {"atlas.execute_ms", "ms"},
    {"atlas.attempts", "count"},
    {"atlas.retries", "count"},
    {"atlas.abandoned", "count"},
    {"atlas.completed_per_attempt", "ratio"},
    {"publish.refresh_ms", "ms"},
    // snapshot path: refresh epochs and serve_batch_swap publish cycles
    {"publish.build_ms", "ms"},
    {"publish.write_ms", "ms"},
    {"publish.load_ms", "ms"},
    {"publish.decode_ms", "ms"},
    {"serve.swap_ms", "ms"},
    {"publish.cycle_ms", "ms"},
    // serve_*: per-address costs from the in-process replay
    {"serve.wire_parse_ns", "ns"},
    {"serve.lookup_ns", "ns"},
    {"net.lpm_ns", "ns"},
    {"serve.wire_encode_ns", "ns"},
    {"serve.socket_us", "us"},
    // serve_*: service, server and load-generator counters
    {"serve.hit_rate", "ratio"},
    {"serve.stale_frac", "ratio"},
    {"serve.shed", "count"},
    {"serve.bytes_out_per_addr", "bytes"},
    {"client.p99_ms", "ms"},
    {"client.beyond_p99", "count"},
    {"client.samples", "count"},
    {"client.late_max_ms", "ms"},
    // every workload
    {"unattributed_ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_ms", "ms"},
    {"trace.rounds", "count"},
    {"util.allocs_per_addr", "count"},
};

/// One workload's outcome.
struct Result {
  std::string workload;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, double, std::less<>> end_to_end;
  std::map<std::string, double, std::less<>> per_layer;
  std::vector<std::pair<std::string, std::string>> digests;
  int setups = 0;  ///< set-ups performed by timed_setup

  /// Record an output check; a failed one makes the run incorrect.
  void check(bool ok, std::string what) {
    if (!ok) check_failures.push_back(std::move(what));
  }
  [[nodiscard]] bool correct() const { return check_failures.empty(); }
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

[[nodiscard]] inline double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
[[nodiscard]] inline double process_cpu_s() {
  return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
}
[[nodiscard]] inline double thread_cpu_s() {
  return cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
}

/// Median of a sample (0 for an empty one).
[[nodiscard]] double median_of(const std::vector<double>& xs);

/// Hex form of a 64-bit digest.
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Pinned digests for this workload and size from expected.json: the list
/// stored under "<workload>/<full|quick>" (empty when absent or when the
/// seed is not the pinned one).
[[nodiscard]] std::vector<std::string> expected_digests(
    const Options& o, std::string_view workload);

/// Drain the recorded spans, write them to o.trace_path and fold them into
/// per-layer metrics: spans named "<layer>" add their self time to
/// "<layer>_ms" per traced round (per set-up for the set-up layers), and
/// the self time of the `root` spans, one per traced round, is the
/// unattributed time. No-op unless o.trace.
void fold_trace(const Options& o, Result& r, std::string_view root,
                std::uint64_t rounds);

/// Set up `o.setups` times, keep the last instance and record the median
/// set-up time as setup_s. Each instance is destroyed before the next one
/// is built, so two never overlap in memory.
template <typename Make>
auto timed_setup(const Options& o, Result& r, Make&& make) {
  std::vector<double> times;
  decltype(make()) built;
  for (int i = 0; i < o.setups; ++i) {
    built = {};
    const auto t = Clock::now();
    built = make();
    times.push_back(seconds_since(t));
  }
  r.end_to_end["setup_s"] = median_of(times);
  r.setups = o.setups;
  return built;
}

// The five workloads. Each fills `r`; a failed output check lands in
// r.check_failures rather than aborting the run.
void run_campaign(const Options& o, bool wide, Result& r);
void run_refresh(const Options& o, Result& r);
void run_serve(const Options& o, bool batch_swap, Result& r);

}  // namespace geoloc::bench
