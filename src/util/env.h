// One place for the environment knobs scattered across the bench mains and
// the library (GEOLOC_SMALL, GEOLOC_TRIALS, GEOLOC_CACHE_DIR,
// GEOLOC_THREADS, GEOLOC_EXPORT_DIR, GEOLOC_BENCH_JSON, GEOLOC_METRICS_JSON,
// GEOLOC_TRACE). Each helper parses one shape of value; the knob registry
// below is the documentation.
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
//   GEOLOC_CHECKPOINT_EVERY=N   checkpoint cadence in completed rounds
//                         (default 1 = every round boundary)
//   GEOLOC_SERVE_PORT=N   TCP port for serve::Server (default 0 =
//                         kernel-assigned; printed at startup)
//   GEOLOC_SERVE_THREADS=N       epoll worker threads (default
//                         min(cores, 4), clamped to max_threads())
//   GEOLOC_SERVE_MAX_CONNS=N     admission limit; connections past it get
//                         one typed OVERLOADED reply and a close
//   GEOLOC_SERVE_MAX_BATCH=N     addresses per batch request (default 2048)
//   GEOLOC_SERVE_READ_DEADLINE_MS / GEOLOC_SERVE_WRITE_DEADLINE_MS
//                         per-connection deadlines (default 5000, capped
//                         at 60000 — the slowloris defense must fire)
//   GEOLOC_SERVE_DRAIN_MS=N      graceful-stop flush budget (default 2000)
//   GEOLOC_SERVE_MAX_OUTQ=N      per-connection output-queue bound, bytes
//                         (default 1 MiB; backpressure past it)
//   GEOLOC_SERVE_MAX_OUTSTANDING=N  server-wide queued-reply bound, bytes
//                         (default 8 MiB; requests shed past it)
//   GEOLOC_SERVE_REMEASURE_CAP=N    stale-prefix queue bound (default
//                         65536; drops counted on serve.remeasure_dropped)
//   GEOLOC_RTT_TILE_VPS=N / GEOLOC_RTT_TILE_TARGETS=N   tile geometry of
//                         the streaming RTT producer (default 256 x 512;
//                         any shape yields the same bytes — DESIGN.md §14)
//   GEOLOC_RTT_TILE_BUDGET=N    max tiles resident in a source's LRU cache
//                         (default 64, clamped to >= 1; bounds peak memory,
//                         never results)
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
//   GEOLOC_CHURN_SEED=N   world-churn RNG seed (sim/churn.h; default
//                         20240601)
//   GEOLOC_CHURN_PREFIX_PM=N    /24 reassignment onset rate per epoch,
//                         integer permille (default 20 = 2%)
//   GEOLOC_CHURN_WAVE_PM=N      fraction of a migrating /16's remaining
//                         siblings that follow per epoch, permille
//                         (default 340)
//   GEOLOC_CHURN_HOST_PM=N      individual host relocation rate, permille
//                         (default 5)
//   GEOLOC_CHURN_VP_DECOM_PM=N  VP decommission rate per epoch, permille
//                         (default 10)
//   GEOLOC_CHURN_VP_ADD_PM=N    VP additions per epoch as permille of the
//                         initial pool (default 10)
//   GEOLOC_CHURN_DRIFT_PM=N     reported-location drift onset rate,
//                         permille (default 10)
//   GEOLOC_CHURN_DRIFT_KM=N     drift step per epoch for a drifting VP,
//                         km (default 12)
//   GEOLOC_LONG_DEBUG=1   longitudinal driver: per-epoch policy
//                         diagnostics on stderr (selection quality vs
//                         ground truth; eval/longitudinal.cpp)
//   GEOLOC_HINT_COVERAGE_PM=N   fraction of targets with an rDNS-style
//                         hint, permille (sim/evidence.h; default 600)
//   GEOLOC_HINT_LIE_PM=N  fraction of hints that lie, permille
//                         (default 100)
//   GEOLOC_HINT_NOISE_KM=N      mean radial jitter of a hint around its
//                         hinted place, km (default 15)
//   GEOLOC_FEED_COVERAGE_PM=N   fraction of target /24s listed in some
//                         operator geofeed, permille (default 500)
//   GEOLOC_FEED_STALE_PM=N      honest-feed stale-entry rate, permille
//                         (default 50)
//   GEOLOC_FEED_COUNT=N   operator feeds the universe splits across
//                         (default 4)
//   GEOLOC_FEED_ADVERSARIAL=N   how many of those feeds lie (default 0)
//   GEOLOC_FEED_LIE_PM=N  per-entry lie rate of an adversarial feed,
//                         permille (default 800)
//   GEOLOC_FUSION_QUARANTINE_PM=N  rejection-rate threshold that
//                         quarantines an evidence source, permille
//                         (fusion/trust.h; default 400)
//   GEOLOC_FUSION_MIN_OBS=N     conclusive verifications before a source
//                         can be judged (default 5)
//   GEOLOC_FUSION_PROBATION=N   epochs a quarantined source sits out
//                         (default 2)
//   GEOLOC_FUSION_SLACK_KM=N    geometric + active-verification slack, km
//                         (fusion/engine.h; default 100)
//   GEOLOC_FUSION_VERIFY_K=N    nearest VPs pinged per claim (default 4)
//   GEOLOC_FUSION_MIN_CONCLUSIVE=N  answered verification pings needed
//                         for an accept (default 2)
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
