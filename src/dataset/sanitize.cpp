#include "dataset/sanitize.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "geo/constants.h"
#include "geo/geodesy.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace geoloc::dataset {

namespace {

/// One observed pair that is impossible at the speed of Internet.
struct Violation {
  sim::HostId a;
  sim::HostId b;
};

/// Generic iterative removal: given violations over a set of candidates
/// (plus possibly immune hosts, e.g. already-verified anchors), repeatedly
/// drop the candidate participating in the most violations.
SanitizeResult iterative_removal(const std::vector<sim::HostId>& candidates,
                                 const std::vector<Violation>& violations) {
  SanitizeResult result;
  result.violating_pairs = violations.size();

  std::unordered_map<sim::HostId, std::vector<std::size_t>> by_host;
  std::unordered_map<sim::HostId, int> count;
  const std::unordered_set<sim::HostId> candidate_set(candidates.begin(),
                                                      candidates.end());
  for (std::size_t i = 0; i < violations.size(); ++i) {
    for (sim::HostId h : {violations[i].a, violations[i].b}) {
      if (candidate_set.contains(h)) {
        by_host[h].push_back(i);
        ++count[h];
      }
    }
  }

  std::vector<bool> violation_active(violations.size(), true);
  for (;;) {
    sim::HostId worst = sim::kInvalidHost;
    int worst_count = 0;
    for (const auto& [host, c] : count) {
      // Deterministic tie-break on host id keeps runs reproducible.
      if (c > worst_count || (c == worst_count && c > 0 && host < worst)) {
        worst = host;
        worst_count = c;
      }
    }
    if (worst_count == 0) break;
    result.removed.push_back(worst);
    for (std::size_t vi : by_host[worst]) {
      if (!violation_active[vi]) continue;
      violation_active[vi] = false;
      for (sim::HostId h : {violations[vi].a, violations[vi].b}) {
        auto it = count.find(h);
        if (it != count.end()) --it->second;
      }
    }
    count.erase(worst);
  }

  const std::unordered_set<sim::HostId> removed(result.removed.begin(),
                                                result.removed.end());
  for (sim::HostId h : candidates) {
    if (!removed.contains(h)) result.kept.push_back(h);
  }
  return result;
}

/// Which columns a row pairs with: every one (probes × anchors), or only
/// those after the row's own index (the anchor mesh, each pair once).
enum class Columns { All, AboveDiagonal };

/// A pair whose RTT floor is below the SOI bound, with what its ping needs.
struct Candidate {
  std::size_t col;
  double base_rtt;
  double reported_d;
};

/// The SOI-violating (row, column) pairs of one sanitiser, pinged with
/// src = row (DESIGN.md §9, §14). The pool floor-tests each row's pairs,
/// bar honest ones, and synthesises the base RTTs of those that can
/// violate; the serial walk spends every pair's draws from `gen` in (i, j)
/// order, so the result equals one min_rtt_ms per pair at any worker count.
std::vector<Violation> sweep_pairs(const sim::LatencyModel& latency,
                                   const std::vector<sim::HostId>& rows,
                                   const std::vector<sim::HostId>& cols,
                                   Columns columns,
                                   const SanitizeConfig& config,
                                   util::Pcg32& gen) {
  static obs::Counter& pairs_swept =
      obs::Registry::instance().counter("dataset.sanitize.pairs");
  static obs::Counter& pairs_pinged =
      obs::Registry::instance().counter("dataset.sanitize.pinged");
  const double soi = config.soi_km_per_ms > 0.0 ? config.soi_km_per_ms
                                                : geo::kSoiTwoThirdsKmPerMs;
  const bool lemma = soi >= geo::kSoiTwoThirdsKmPerMs &&
                     latency.config().min_inflation >= 1.0;
  const sim::World& world = latency.world();
  // Honest = reported at a bitwise copy of the true location (not `==`).
  const auto suspect = [&](sim::HostId id) {
    const sim::Host& h = world.host(id);
    return !lemma || std::memcmp(&h.reported_location, &h.true_location,
                                 sizeof(geo::GeoPoint)) != 0;
  };
  const sim::LatencyModel::HostSoA row_soa = latency.host_soa(rows);
  const sim::LatencyModel::HostSoA col_soa = latency.host_soa(cols);
  std::vector<char> col_suspect(cols.size());
  std::transform(cols.begin(), cols.end(), col_suspect.begin(), suspect);
  const auto first_col = [&](std::size_t i) {
    return std::min(columns == Columns::All ? 0 : i + 1, cols.size());
  };

  std::vector<std::vector<Candidate>> candidates(rows.size());
  util::parallel_for(rows.size(), [&](std::size_t i) {
    const sim::Host& row = world.host(rows[i]);
    const bool row_suspect = suspect(rows[i]);
    sim::LatencyModel::CityPairCache cache;
    for (std::size_t j = first_col(i); j < cols.size(); ++j) {
      if (!col_soa.responsive[j] || !(row_suspect || col_suspect[j])) continue;
      const sim::Host& col = world.host(cols[j]);
      const double d = geo::distance_km(row.true_location, col.true_location);
      const double reported_d =
          geo::distance_km(row.reported_location, col.reported_location);
      if (geo::violates_soi(latency.rtt_floor_ms(row_soa, i, col_soa, j, d),
                            reported_d, soi)) {
        candidates[i].push_back(
            {j, latency.base_rtt_ms_at(row_soa, i, col_soa, j, d, cache),
             reported_d});
      }
    }
  });

  std::vector<Violation> violations;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    pairs_swept.add(cols.size() - first_col(i));
    pairs_pinged.add(candidates[i].size());
    auto next = candidates[i].cbegin();
    for (std::size_t j = first_col(i); j < cols.size(); ++j) {
      if (next == candidates[i].cend() || next->col != j) {
        // An unresponsive column answers nothing and draws nothing.
        latency.skip_ping_sample(col_soa.responsive[j] != 0,
                                 config.ping_packets, gen);
        continue;
      }
      const auto rtt = latency.ping_sample_with_base(
          next->base_rtt, /*responsive=*/true, config.ping_packets, gen);
      if (rtt.min_rtt_ms &&
          geo::violates_soi(*rtt.min_rtt_ms, next->reported_d, soi)) {
        violations.push_back({rows[i], cols[j]});
      }
      ++next;
    }
  }
  return violations;
}

}  // namespace

SanitizeResult sanitize_anchors(const sim::LatencyModel& latency,
                                const std::vector<sim::HostId>& anchors,
                                const SanitizeConfig& config) {
  const obs::TraceSpan span("dataset.sanitize.anchors");
  auto gen = latency.world().rng().fork("sanitize-anchors").gen();
  return iterative_removal(
      anchors, sweep_pairs(latency, anchors, anchors, Columns::AboveDiagonal,
                           config, gen));
}

SanitizeResult sanitize_probes(const sim::LatencyModel& latency,
                               const std::vector<sim::HostId>& probes,
                               const std::vector<sim::HostId>& good_anchors,
                               const SanitizeConfig& config) {
  const obs::TraceSpan span("dataset.sanitize.probes");
  auto gen = latency.world().rng().fork("sanitize-probes").gen();
  return iterative_removal(
      probes, sweep_pairs(latency, probes, good_anchors, Columns::All, config,
                          gen));
}

}  // namespace geoloc::dataset
