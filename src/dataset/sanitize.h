// Section 4.3 sanitisation of RIPE Atlas geolocation.
//
// The paper counts, for each anchor, how many of its RTTs to/from other
// anchors violate the speed-of-Internet constraint at 2/3 c with respect to
// the *reported* locations, iteratively removing the worst offender until
// no violation remains (9 anchors removed). Probes are then pinged against
// the surviving anchors and filtered the same way (96 probes removed).
//
// Both sanitisers run one pair sweep (DESIGN.md §9, §14) that pings only
// the pairs that can violate. On the util::parallel pool, each row tests
// its pairs' RTT floor (LatencyModel::rtt_floor_ms) against the SOI bound
// on the reported distance, and synthesises a base RTT only where the
// floor is below it. A pair of honest hosts (reported location a bitwise
// copy of the true one) never violates while soi >= 2/3 c and
// min_inflation >= 1, so it is not even tested. The calling thread then
// spends every pair's jitter and loss draws from the sanitiser's one
// generator in row-major order: ping_sample_with_base for a candidate,
// skip_ping_sample for any other pair, nothing for an unresponsive column.
// The result is therefore identical at any GEOLOC_THREADS, and to the
// serial min_rtt_ms loops over every pair
// (tests/oracles/sanitize_reference.h). The `dataset.sanitize.anchors` /
// `.probes` trace spans time each sanitiser; `dataset.sanitize.pairs`
// counts the pairs swept and `dataset.sanitize.pinged` the base RTTs
// synthesised.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/latency_model.h"
#include "sim/world.h"

namespace geoloc::dataset {

struct SanitizeResult {
  std::vector<sim::HostId> kept;
  std::vector<sim::HostId> removed;
  std::uint64_t violating_pairs = 0;  ///< SOI-violating pairs observed initially
};

struct SanitizeConfig {
  int ping_packets = 3;
  double soi_km_per_ms = 0.0;  ///< 0 = use 2/3 c
};

/// Meshed anchor-to-anchor sanitisation: iteratively remove the anchor with
/// the most speed-of-Internet violations until none remain.
SanitizeResult sanitize_anchors(const sim::LatencyModel& latency,
                                const std::vector<sim::HostId>& anchors,
                                const SanitizeConfig& config = {});

/// Probe sanitisation: ping every verified anchor from each probe; remove
/// probes the same iterative way.
SanitizeResult sanitize_probes(const sim::LatencyModel& latency,
                               const std::vector<sim::HostId>& probes,
                               const std::vector<sim::HostId>& good_anchors,
                               const SanitizeConfig& config = {});

}  // namespace geoloc::dataset
