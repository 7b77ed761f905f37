#include "core/streaming_campaign.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/million_scale.h"
#include "geo/geodesy.h"
#include "util/parallel.h"

namespace geoloc::core {

namespace {

// Rows per threshold refresh of the bounded sweep. A property of the
// selection, not of the tile shape: thresholds tighten every 32 rows
// whatever the VP block is, so a campaign with a single VP block (few VPs)
// still prunes after its first stride.
constexpr std::size_t kThresholdStride = 32;

}  // namespace

std::vector<std::vector<std::size_t>> streamed_select_block(
    scenario::RttTileSource& reps, std::size_t target_block, int k,
    std::span<const sim::HostId> col_self) {
  if (!col_self.empty() && col_self.size() < reps.cols()) {
    throw std::invalid_argument(
        "streamed_select_block: col_self must name every rep column");
  }
  const std::size_t col_begin = target_block * reps.shape().target_block;
  const std::size_t col_end =
      std::min(reps.cols(), col_begin + reps.shape().target_block);
  const std::size_t n_cols = col_end - col_begin;
  const auto kk = static_cast<std::size_t>(std::max(k, 0));
  const auto& vps = reps.campaign().vps;

  // Per column, a max-heap of the k smallest (rtt, row) pairs. The pair
  // ordering is the one the dense partial_sort uses, and the set of k
  // smallest pairs is independent of scan order, so the sorted heap equals
  // the dense selection exactly.
  //
  // Rows arrive one stride at a time from the bounded sweep, which skips a
  // cell whose RTT floor is >= its column's threshold: the heap's largest
  // RTT once the heap is full. The thresholds are taken before the stride
  // and the heaps then update serially in row order, so a threshold only
  // falls while the stride merges; a skipped cell is at least the
  // snapshot, and on a tie its row is later than every row in the heap, so
  // it loses the (rtt, row) comparison anyway. The selection is therefore
  // the full sweep's at any thread count, tile shape or stride.
  std::vector<std::vector<std::pair<float, std::size_t>>> best(n_cols);
  std::vector<std::vector<std::size_t>> out(n_cols);
  if (kk == 0) return out;
  std::vector<float> threshold(n_cols);
  std::vector<float> cells(kThresholdStride * n_cols);
  for (std::size_t r0 = 0; r0 < reps.rows(); r0 += kThresholdStride) {
    const std::size_t r1 = std::min(reps.rows(), r0 + kThresholdStride);
    for (std::size_t cc = 0; cc < n_cols; ++cc) {
      threshold[cc] = best[cc].size() < kk
                          ? std::numeric_limits<float>::infinity()
                          : best[cc].front().first;
    }
    reps.sweep_below(r0, r1, target_block, threshold, cells.data());
    for (std::size_t r = r0; r < r1; ++r) {
      const float* row = cells.data() + (r - r0) * n_cols;
      for (std::size_t cc = 0; cc < n_cols; ++cc) {
        const float rtt = row[cc];
        if (scenario::RttMatrix::is_missing(rtt)) continue;
        if (!col_self.empty() && vps[r] == col_self[col_begin + cc]) continue;
        auto& heap = best[cc];
        const std::pair<float, std::size_t> cand{rtt, r};
        if (heap.size() < kk) {
          heap.push_back(cand);
          std::push_heap(heap.begin(), heap.end());
        } else if (cand < heap.front()) {
          std::pop_heap(heap.begin(), heap.end());
          heap.back() = cand;
          std::push_heap(heap.begin(), heap.end());
        }
      }
    }
  }

  for (std::size_t cc = 0; cc < n_cols; ++cc) {
    std::sort(best[cc].begin(), best[cc].end());
    out[cc].reserve(best[cc].size());
    for (const auto& [rtt, r] : best[cc]) out[cc].push_back(r);
  }
  return out;
}

StreamingCampaignOutcome run_streaming_campaign(
    scenario::RttTileSource& reps, scenario::RttTileSource& targets,
    std::span<const std::uint32_t> target_to_rep_col,
    const StreamingCampaignConfig& config) {
  const auto& tc = targets.campaign();
  const sim::World& world = *tc.world;
  const std::size_t n_targets = targets.cols();
  const bool identity = target_to_rep_col.empty();
  if (identity && reps.cols() != n_targets) {
    throw std::invalid_argument(
        "run_streaming_campaign: identity mapping needs reps.cols() == "
        "targets.cols()");
  }
  if (!identity && target_to_rep_col.size() != n_targets) {
    throw std::invalid_argument(
        "run_streaming_campaign: target_to_rep_col must cover every target");
  }
  if (std::any_of(target_to_rep_col.begin(), target_to_rep_col.end(),
                  [&](std::uint32_t c) { return c >= reps.cols(); })) {
    throw std::invalid_argument(
        "run_streaming_campaign: target_to_rep_col names a column past "
        "reps.cols()");
  }
  if (tc.group != 1) {
    throw std::invalid_argument(
        "run_streaming_campaign: the targets campaign must ping one host "
        "per column (group 1)");
  }

  StreamingCampaignOutcome out;
  out.targets = n_targets;
  out.errors_km.assign(n_targets, -1.0);

  // Group target columns under the rep block their /24 column lives in, so
  // each rep tile stripe is generated once and every dependent target
  // consumes it while it is resident.
  const auto rep_col_of = [&](std::size_t t) -> std::size_t {
    return identity ? t : target_to_rep_col[t];
  };
  std::vector<std::vector<std::uint32_t>> targets_of_block(
      reps.target_blocks());
  for (std::size_t t = 0; t < n_targets; ++t) {
    targets_of_block[rep_col_of(t) / reps.shape().target_block].push_back(
        static_cast<std::uint32_t>(t));
  }

  struct TargetOutcome {
    double error_km = -1.0;
    std::uint32_t cells = 0;
  };
  for (std::size_t tb = 0; tb < reps.target_blocks(); ++tb) {
    const auto& block_targets = targets_of_block[tb];
    if (block_targets.empty()) continue;
    // Self-VP exclusion during selection is the dense pipeline's
    // anchors-as-both rule; it only applies when rep columns ARE target
    // columns (identity mapping).
    const auto selection = streamed_select_block(
        reps, tb, config.k,
        identity ? std::span<const sim::HostId>(tc.dsts)
                 : std::span<const sim::HostId>{});
    const std::size_t col_begin = tb * reps.shape().target_block;
    // The platform pings every rep column of the block from every VP;
    // synthesis skips what selection cannot use, the measurement does not.
    out.rep_cells += reps.rows() * selection.size();
    // Final pings + CBG per target: each column is a pure function of its
    // selection and the sparse cells it computes, so the block maps in
    // parallel and folds in column order (bit-identical at any thread
    // count).
    const std::vector<TargetOutcome> results =
        util::parallel_map<TargetOutcome>(
            block_targets.size(), [&](std::size_t i) {
              const std::size_t t = block_targets[i];
              const auto& rows = selection[rep_col_of(t) - col_begin];
              const sim::HostId target = tc.dsts[t];
              TargetOutcome to;
              std::vector<VpObservation> obs;
              obs.reserve(rows.size());
              for (const std::size_t r : rows) {
                if (tc.vps[r] == target) continue;
                const float rtt = targets.cell(r, t);
                ++to.cells;
                if (scenario::RttMatrix::is_missing(rtt)) continue;
                obs.push_back(VpObservation{
                    world.host(tc.vps[r]).reported_location, rtt});
              }
              const CbgResult res = cbg_geolocate(obs, config.cbg);
              if (res.ok) {
                to.error_km = geo::distance_km(
                    res.estimate, world.host(target).true_location);
              }
              return to;
            });
    for (std::size_t i = 0; i < block_targets.size(); ++i) {
      out.errors_km[block_targets[i]] = results[i].error_km;
      out.target_cells += results[i].cells;
      if (results[i].error_km >= 0.0) {
        ++out.located;
      } else {
        ++out.failed;
      }
    }
  }
  out.rep_stats = reps.stats();
  out.target_stats = targets.stats();
  return out;
}

scenario::RttTileSource make_resilient_rep_source(
    const scenario::Scenario& s, const atlas::FaultModel* faults,
    scenario::TileShape shape, std::size_t budget_tiles) {
  scenario::TileCampaign c;
  c.world = &s.world();
  c.latency = &s.latency();
  c.vps = s.vps();
  c.group = 3;
  c.dsts.reserve(s.targets().size() * 3);
  for (const sim::HostId target : s.targets()) {
    const RepresentativeFallback fb =
        resilient_representatives(s, target, faults, 3);
    for (const sim::HostId rep : fb.chosen) c.dsts.push_back(rep);
    for (std::size_t i = fb.chosen.size(); i < 3; ++i) {
      c.dsts.push_back(sim::kInvalidHost);
    }
  }
  c.stream = s.world().rng().fork("campaign-reps-resilient");
  c.ping_packets = s.config().ping_packets;
  return scenario::RttTileSource(std::move(c), shape, budget_tiles);
}

}  // namespace geoloc::core
