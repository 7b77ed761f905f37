// Streaming, tiled RTT production (DESIGN.md §14).
//
// The dense campaigns materialise a full VP × target RttMatrix up front —
// O(rows × cols) floats and seconds of synthesis even when a consumer needs
// a sliver of it. RttTileSource replaces the up-front matrix with an
// on-demand producer of fixed-size VP-block × target-block tiles:
// consumers ask for the tile covering (r, c), the source generates it
// (rows parallelised on util::parallel), keeps at most a budget of
// tiles (default 64) in a bounded LRU cache, and evicts
// deterministically in least-recently-used order. Campaign cost then
// scales with the measurements a consumer actually touches, not with
// world size². Streamed selection reads no tiles at all: sweep_below
// synthesises only the cells whose RTT floor can still beat a column's
// k-th best.
//
// Determinism and equivalence: every cell's randomness is the same pure
// function of (row, column) the dense loops use —
// stream.fork("m", (r << 20) | c) — and the cell synthesis routes through
// the bit-identical batched base-RTT path, so a tile holds exactly the
// bytes the dense matrix holds at those coordinates, for any tile shape,
// any access order, any eviction history and any GEOLOC_THREADS. The
// scale test suite asserts this (tiled materialise == dense loops,
// byte for byte). The (r << 20) | c packing caps campaigns at 2^20
// (1 048 576) columns, one bit above the 1 M-target acceptance point;
// the constructor enforces the bound instead of silently colliding.
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "scenario/rtt_matrix.h"
#include "sim/latency_model.h"
#include "sim/world.h"
#include "util/rng.h"

namespace geoloc::scenario {

class Scenario;

/// Tile geometry. Zero means the default: 256 VP rows × 512 target columns.
struct TileShape {
  std::size_t vp_block = 0;
  std::size_t target_block = 0;
};

/// What one campaign measures. Column c pings the destination group
/// dsts[c * group .. (c + 1) * group): group == 1 is a plain target
/// campaign (cell = min RTT), group == 3 the /24-representative campaign
/// (cell = median over the responsive representatives' min RTTs, exactly
/// as the dense representative_rtts loop computes it).
struct TileCampaign {
  const sim::World* world = nullptr;
  const sim::LatencyModel* latency = nullptr;
  std::vector<sim::HostId> vps;
  std::vector<sim::HostId> dsts;
  std::size_t group = 1;
  util::RngStream stream{0};  ///< per-cell forks "m", (r << 20) | c
  int ping_packets = 3;
};

class RttTileSource {
 public:
  /// One generated tile: row-major floats, NaN = no response.
  struct Tile {
    std::size_t vp_begin = 0, vp_end = 0;
    std::size_t target_begin = 0, target_end = 0;
    std::vector<float> rtt;

    [[nodiscard]] std::size_t rows() const noexcept { return vp_end - vp_begin; }
    [[nodiscard]] std::size_t cols() const noexcept {
      return target_end - target_begin;
    }
    /// Cell (r, c) in *global* matrix coordinates.
    [[nodiscard]] float at(std::size_t r, std::size_t c) const {
      return rtt[(r - vp_begin) * cols() + (c - target_begin)];
    }
  };

  struct Stats {
    std::uint64_t hits = 0;        ///< tile() served from the cache
    std::uint64_t misses = 0;      ///< tiles generated on demand
    std::uint64_t evictions = 0;   ///< tiles discarded by the LRU bound
    std::uint64_t generated_cells = 0;  ///< cells of generated tiles
    /// Cells the bounded sweep synthesised; the rest of its sweep was
    /// pruned by the RTT floor.
    std::uint64_t synthesised_cells = 0;
    std::size_t resident_tiles = 0;
    std::size_t resident_bytes = 0;       ///< tile payload bytes held now
    std::size_t peak_resident_bytes = 0;  ///< high-water mark incl. scratch
  };

  /// `budget_tiles` bounds the cache (0 = the default, 64 tiles). Throws
  /// std::invalid_argument on a campaign with more than 2^20 columns or a
  /// dsts size that is not a multiple of group.
  explicit RttTileSource(TileCampaign campaign, TileShape shape = {},
                         std::size_t budget_tiles = 0);

  /// The scenario's two campaigns, cell-for-cell equal to the dense
  /// target_rtts() / representative_rtts() materialisation loops.
  static RttTileSource for_targets(const Scenario& s, TileShape shape = {},
                                   std::size_t budget_tiles = 0);
  static RttTileSource for_representatives(const Scenario& s,
                                           TileShape shape = {},
                                           std::size_t budget_tiles = 0);

  [[nodiscard]] std::size_t rows() const noexcept {
    return campaign_.vps.size();
  }
  [[nodiscard]] std::size_t cols() const noexcept {
    return campaign_.dsts.size() / campaign_.group;
  }
  [[nodiscard]] std::size_t vp_blocks() const noexcept;
  [[nodiscard]] std::size_t target_blocks() const noexcept;
  [[nodiscard]] const TileShape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t budget_tiles() const noexcept { return budget_; }
  [[nodiscard]] const TileCampaign& campaign() const noexcept {
    return campaign_;
  }

  /// Borrow the tile at block coordinates, generating it on a cache miss
  /// and evicting the least recently used tile past the budget. The
  /// reference stays valid until the next tile()/at() call.
  const Tile& tile(std::size_t vp_block, std::size_t target_block);

  /// Cell (r, c) through the cache — the random-access consumer's path.
  float at(std::size_t r, std::size_t c);

  /// Cell (r, c) computed directly, touching neither the cache nor other
  /// cells — the sparse consumer's path (k selected VPs ping one target).
  [[nodiscard]] float cell(std::size_t r, std::size_t c) const;

  /// The bounded sweep behind streamed selection (DESIGN.md §14): the
  /// cells of VP rows [vp_begin, vp_end) × target block `target_block`,
  /// row-major into `out` (rows × block columns). A cell is synthesised —
  /// with exactly the bytes tile() holds there — unless the RTT floor of
  /// every responsive destination in its group is >= threshold[cc]: such a
  /// cell is at least its threshold, and reads NaN like a missing one. Rows
  /// run on the pool; the result is the same at any worker count. The
  /// cells synthesised are added to Stats::synthesised_cells and
  /// scenario.rtt_tiles.synthesised.
  void sweep_below(std::size_t vp_begin, std::size_t vp_end,
                   std::size_t target_block, std::span<const float> threshold,
                   float* out) const;

  /// Assemble the full dense matrix by sweeping tiles in row-major block
  /// order with a single scratch tile (generate → copy → discard); the
  /// cache is bypassed, so peak memory is matrix + one tile.
  [[nodiscard]] RttMatrix materialise() const;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  void generate(std::size_t vp_block, std::size_t target_block,
                Tile& out) const;
  [[nodiscard]] float synthesise_cell(std::size_t r, std::size_t c,
                                      const double* base) const;
  void note_resident(std::size_t bytes) const;

  TileCampaign campaign_;
  TileShape shape_;
  std::size_t budget_ = 0;
  sim::LatencyModel::HostSoA vp_soa_;
  sim::LatencyModel::HostSoA dst_soa_;

  struct CacheEntry {
    std::size_t key = 0;
    Tile tile;
  };
  std::list<CacheEntry> lru_;  ///< front = most recently used
  std::unordered_map<std::size_t, std::list<CacheEntry>::iterator> cached_;
  mutable Stats stats_;
};

}  // namespace geoloc::scenario
