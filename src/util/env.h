// One place for the environment knobs read by the bench mains and the
// library: paths, the worker count, tracing, the bench scale selectors and
// one test hook. Everything else is a config field set in code. Each helper
// parses one shape of value; the knob registry below is the documentation.
//
//   GEOLOC_SMALL=1        miniature scenario instead of paper scale
//   GEOLOC_TRIALS=N       trial count for the randomized sweeps
//   GEOLOC_CACHE_DIR=dir  where RTT-matrix / campaign caches live
//   GEOLOC_THREADS=N      worker threads for the parallel engine
//                         (default: hardware concurrency; 1 = serial;
//                         clamped to min(4 x cores, 256) with a warning)
//   GEOLOC_EXPORT_DIR=dir CSV export target for figure series
//   GEOLOC_BENCH_JSON=f   machine-readable bench records (JSON lines)
//   GEOLOC_METRICS_JSON=f obs-registry metrics dumps (JSON lines)
//   GEOLOC_TRACE=1        record obs trace spans (off by default)
//   GEOLOC_CHECKPOINT_DIR=dir   campaign checkpoint files (atlas executor
//                         derives campaign-<fingerprint>.ckpt per campaign;
//                         unset = no checkpointing unless a path is given
//                         explicitly via CheckpointPolicy::path)
//   GEOLOC_DURABLE_NO_MMAP=1    force the buffered read path for framed
//                         artifacts (read_framed_mapped falls back; the
//                         mmap fast path is the default)
//   GEOLOC_MS_SLASH24S=N / GEOLOC_MS_TARGETS_PER_24=N / GEOLOC_MS_VPS=N
//                         bench_million_scale world size (defaults
//                         100000 / 10 / 128 = the 1M-target point)
//   GEOLOC_MS_RSS_CEILING_MB=N  bench_million_scale memory gate
//                         (default 4096)
//   GEOLOC_ABLATION_FULL=1      bench_ablation_latency_model at paper
//                         scale (default: small scale)
//   GEOLOC_ROBUSTNESS_FULL=1    bench_robustness_seeds with 723-target
//                         worlds (default: small scale)
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "obs/log.h"

namespace geoloc::util::env {

/// True when the variable is set and its first character is '1'
/// (the GEOLOC_SMALL convention).
inline bool flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] == '1';
}

/// Positive integer value of the variable; `fallback` when unset, empty,
/// non-numeric, non-positive, out of int range, or followed by trailing
/// junk ("8x" is rejected, not read as 8 the way atoi would).
inline int int_or(const char* name, int fallback) {
  if (const char* v = std::getenv(name)) {
    const char* end = v + std::strlen(v);
    int parsed = 0;
    const auto [ptr, ec] = std::from_chars(v, end, parsed);
    if (ec == std::errc() && ptr == end && parsed > 0) return parsed;
  }
  return fallback;
}

/// String value of the variable; `fallback` when unset. An explicitly empty
/// value is returned as empty (it means "disabled" for the cache dir).
inline std::string string_or(const char* name, std::string fallback) {
  if (const char* v = std::getenv(name)) return v;
  return fallback;
}

/// Hard ceiling on the worker count: oversubscribing by more than 4x the
/// hardware concurrency only adds scheduler thrash, and a stray
/// GEOLOC_THREADS=100000 must not try to spawn 100k threads.
inline unsigned max_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min((hw > 0 ? hw : 1) * 4u, 256u);
}

/// Worker-thread count for the parallel engine: GEOLOC_THREADS when set to
/// a positive integer, otherwise the hardware concurrency (at least 1);
/// clamped to max_threads() with a one-line warning.
inline unsigned threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  const int v = int_or("GEOLOC_THREADS", hw > 0 ? static_cast<int>(hw) : 1);
  const auto want = static_cast<unsigned>(v > 0 ? v : 1);
  const unsigned cap = max_threads();
  if (want > cap) {
    obs::warn_once("GEOLOC_THREADS-cap",
                   "GEOLOC_THREADS=" + std::to_string(want) +
                       " exceeds the worker ceiling; clamped to " +
                       std::to_string(cap));
    return cap;
  }
  return want;
}

}  // namespace geoloc::util::env
