#include "dataset/sanitize.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "geo/constants.h"
#include "geo/geodesy.h"
#include "geo/geodesy_batch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace geoloc::dataset {

namespace {

double effective_soi(const SanitizeConfig& config) {
  return config.soi_km_per_ms > 0.0 ? config.soi_km_per_ms
                                    : geo::kSoiTwoThirdsKmPerMs;
}

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
  std::unordered_set<sim::HostId> removed;
  for (;;) {
    sim::HostId worst = sim::kInvalidHost;
    int worst_count = 0;
    for (const auto& [host, c] : count) {
      // Deterministic tie-break on host id keeps runs reproducible.
      if (c > worst_count || (c == worst_count && c > 0 &&
                              (worst == sim::kInvalidHost || host < worst))) {
        worst = host;
        worst_count = c;
      }
    }
    if (worst_count == 0) break;
    removed.insert(worst);
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

  for (sim::HostId h : candidates) {
    if (!removed.contains(h)) result.kept.push_back(h);
  }
  return result;
}

/// Which columns a row pairs with: every one (probes × anchors), or only
/// those after the row's own index (the anchor mesh, each pair once).
enum class Columns { All, AboveDiagonal };

/// Rows per block of the pair sweep, and the scratch budget that caps it
/// for very wide column sets (two doubles per pair).
constexpr std::size_t kBlockRows = 64;
constexpr std::size_t kScratchBytes = std::size_t{1} << 20;

/// The SOI-violating (row, column) pairs of one sanitiser, pinged with
/// src = row. The pure half — each pair's deterministic base RTT and the
/// distance between the reported locations — runs per row on the pool
/// into block scratch; the serial half then walks the block in (i, j)
/// order on the calling thread, so `gen` sees exactly the draws of one
/// min_rtt_ms(row, column) call per pair at any worker count (DESIGN.md
/// §9).
std::vector<Violation> sweep_pairs(const sim::LatencyModel& latency,
                                   const std::vector<sim::HostId>& rows,
                                   const std::vector<sim::HostId>& cols,
                                   Columns columns,
                                   const SanitizeConfig& config,
                                   util::Pcg32& gen) {
  static obs::Counter& pairs_swept =
      obs::Registry::instance().counter("dataset.sanitize.pairs");
  const double soi = effective_soi(config);
  const sim::World& world = latency.world();
  const sim::LatencyModel::HostSoA row_soa = latency.host_soa(rows);
  const sim::LatencyModel::HostSoA col_soa = latency.host_soa(cols);
  geo::PointsSoA col_reported;
  col_reported.reserve(cols.size());
  for (const sim::HostId h : cols) {
    col_reported.push_back(world.host(h).reported_location);
  }
  const std::size_t n_cols = cols.size();
  const auto first_col = [columns](std::size_t i) {
    return columns == Columns::All ? std::size_t{0} : i + 1;
  };

  const std::size_t block_rows = std::clamp<std::size_t>(
      kScratchBytes / (2 * sizeof(double) * std::max<std::size_t>(n_cols, 1)),
      1, kBlockRows);
  std::vector<double> base(block_rows * n_cols);
  std::vector<double> reported_d(block_rows * n_cols);
  std::vector<Violation> violations;
  std::uint64_t pairs = 0;
  for (std::size_t b0 = 0; b0 < rows.size(); b0 += block_rows) {
    const std::size_t b1 = std::min(rows.size(), b0 + block_rows);
    util::parallel_for(
        b1 - b0,
        [&](std::size_t r) {
          const std::size_t i = b0 + r;
          const std::size_t j0 = std::min(first_col(i), n_cols);
          sim::LatencyModel::CityPairCache cache;
          latency.base_rtt_ms_batch(row_soa, i, col_soa, j0, n_cols, cache,
                                    base.data() + r * n_cols);
          geo::distance_km_batch(world.host(rows[i]).reported_location,
                                 col_reported, j0, n_cols,
                                 reported_d.data() + r * n_cols);
        },
        /*grain=*/1);
    for (std::size_t i = b0; i < b1; ++i) {
      const std::size_t j0 = std::min(first_col(i), n_cols);
      const double* row_base = base.data() + (i - b0) * n_cols;
      const double* row_d = reported_d.data() + (i - b0) * n_cols;
      pairs += n_cols - j0;
      for (std::size_t k = 0; j0 + k < n_cols; ++k) {
        // An unresponsive column answers nothing and draws nothing.
        const auto rtt =
            latency
                .ping_sample_with_base(row_base[k],
                                       col_soa.responsive[j0 + k] != 0,
                                       config.ping_packets, gen)
                .min_rtt_ms;
        if (rtt && geo::violates_soi(*rtt, row_d[k], soi)) {
          violations.push_back({rows[i], cols[j0 + k]});
        }
      }
    }
  }
  pairs_swept.add(pairs);
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
