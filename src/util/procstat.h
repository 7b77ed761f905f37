// Process self-accounting for the bench emitters: peak/current RSS from
// /proc/self/status and a global allocation counter, so every
// GEOLOC_BENCH_JSON record carries the two numbers a perf regression shows
// up in first — how much memory the run actually touched (the million-scale
// acceptance gate is "peak RSS bounded by the tile budget, not by
// rows x cols") and how many heap allocations the hot path performed.
#pragma once

#include <cstddef>
#include <cstdint>

namespace geoloc::util::procstat {

/// Peak resident set size (VmHWM) of this process in KiB; 0 when
/// /proc/self/status is unavailable (non-Linux).
[[nodiscard]] std::size_t peak_rss_kb();

/// Current resident set size (VmRSS) in KiB; 0 when unavailable.
[[nodiscard]] std::size_t rss_kb();

/// Number of global operator new invocations (all variants) since process
/// start. The counter lives in the replaced global allocation functions in
/// procstat.cpp — one relaxed atomic increment per allocation into the
/// calling thread's cache-line stripe, cheap enough to be always-on and
/// contention-free across threads; the read sums the stripes, so the count
/// is exact. Diff two readings around a region to count its allocations.
[[nodiscard]] std::uint64_t alloc_count();

}  // namespace geoloc::util::procstat
