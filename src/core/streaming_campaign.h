// Million-scale campaigns over streaming RTT tiles (DESIGN.md §14).
//
// The dense pipeline (core/million_scale.h) reads two fully materialised
// RttMatrix campaigns — O(|VPs| × |targets|) floats before the first CBG
// solve. This runner executes the same algorithm against a
// scenario::RttTileSource pair: per rep-campaign block it streams the
// VP rows once to pick each column's k lowest-RTT vantage points, then the
// chosen VPs ping the target through the sparse single-cell path and CBG
// runs on the result.
//
// Measurement cost versus synthesis. What the campaign *measures* — what
// a real platform would be charged — is |VPs| × group pings per rep column
// (shared by every target in the /24) plus k pings per target: it scales
// with measurements used, not world size², and rep_cells reports it. What
// the simulation *synthesises* is far less. Selection keeps only the k
// lowest RTTs per column, and no ping can beat the pair's speed-of-Internet
// RTT floor, so the bounded sweep synthesises a rep cell only while its
// floor is below the column's current k-th best (on campaign_wide, under
// 1 % of the cells). Peak memory is one stride of cells plus k pairs per
// column; the tile cache is not used.
//
// Equivalence: with the scenario's own tile sources and the identity
// target→rep-column mapping, the selected rows, observations, CBG results
// and errors are bit-identical to MillionScale over the dense matrices
// (asserted by the scale suite).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atlas/faults.h"
#include "core/cbg.h"
#include "scenario/scenario.h"
#include "scenario/tile_source.h"

namespace geoloc::core {

/// Row indices of the k VPs with the lowest representative RTT for every
/// column of one rep-campaign target block — the streaming equivalent of
/// MillionScale::select_vps_by_representatives, column for column (same
/// rows, same order, including (rtt, row) tie handling). `col_self`, when
/// non-empty, names the host to exclude per *global* rep column (the
/// anchors-as-both-targets-and-VPs rule); columns without a self pass
/// kInvalidHost or an empty span. Only the cells whose RTT floor can still
/// beat a column's k-th best are synthesised (RttTileSource::sweep_below),
/// with thresholds refreshed every 32 rows; the selection equals the full
/// sweep's. Throws std::invalid_argument when a non-empty col_self is
/// shorter than reps.cols().
std::vector<std::vector<std::size_t>> streamed_select_block(
    scenario::RttTileSource& reps, std::size_t target_block, int k,
    std::span<const sim::HostId> col_self = {});

struct StreamingCampaignConfig {
  int k = 3;  ///< VPs selected per target (the paper's shortest-ping k)
  CbgConfig cbg;
};

struct StreamingCampaignOutcome {
  std::size_t targets = 0;
  std::size_t located = 0;  ///< CBG produced an estimate
  std::size_t failed = 0;
  std::vector<double> errors_km;  ///< per target column; -1 when CBG failed
  /// Rep-campaign cells measured: every VP × rep column of each block with
  /// targets. The platform's ping cost; rep_stats.synthesised_cells counts
  /// the ones the simulation synthesised.
  std::uint64_t rep_cells = 0;
  std::uint64_t target_cells = 0;  ///< final sparse target pings
  scenario::RttTileSource::Stats rep_stats;
  scenario::RttTileSource::Stats target_stats;
};

/// Run the original million-scale algorithm over tile sources. `reps` is
/// the representative campaign (group up to 3), `targets` the final-ping
/// campaign (group 1, one column per target). `target_to_rep_col` maps a
/// target column to its rep column (several targets of one /24 share a rep
/// column at internet scale); empty means identity, which additionally
/// enables the dense pipeline's self-VP exclusion during selection and
/// requires reps.cols() == targets.cols(). Deterministic for any tile
/// shape, budget and GEOLOC_THREADS. Throws std::invalid_argument on a
/// mapping of the wrong size or naming a column past reps.cols(), and on a
/// targets campaign with group != 1.
StreamingCampaignOutcome run_streaming_campaign(
    scenario::RttTileSource& reps, scenario::RttTileSource& targets,
    std::span<const std::uint32_t> target_to_rep_col = {},
    const StreamingCampaignConfig& config = {});

/// Rep-campaign tile source whose per-/24 destination groups come from
/// resilient_representatives — responsive reps ranked by hitlist score
/// with next-best substitution, the executor's fault-aware path — instead
/// of the raw hitlist order. Groups with fewer than three usable reps are
/// padded with kInvalidHost placeholders (never responsive, consume no
/// RNG), exactly how the dense path treats a rep that does not answer.
scenario::RttTileSource make_resilient_rep_source(
    const scenario::Scenario& s, const atlas::FaultModel* faults = nullptr,
    scenario::TileShape shape = {}, std::size_t budget_tiles = 0);

}  // namespace geoloc::core
