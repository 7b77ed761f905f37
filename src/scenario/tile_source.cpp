#include "scenario/tile_source.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "geo/constants.h"
#include "geo/geodesy_batch.h"
#include "obs/metrics.h"
#include "scenario/scenario.h"
#include "util/parallel.h"

namespace geoloc::scenario {

namespace {

struct TileMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& evictions;
  obs::Counter& cells;
  obs::Counter& synthesised;
};

TileMetrics& tile_metrics() {
  static auto& reg = obs::Registry::instance();
  static TileMetrics m{reg.counter("scenario.rtt_tiles.hits"),
                       reg.counter("scenario.rtt_tiles.misses"),
                       reg.counter("scenario.rtt_tiles.evictions"),
                       reg.counter("scenario.rtt_tiles.cells"),
                       reg.counter("scenario.rtt_tiles.synthesised")};
  return m;
}

constexpr std::size_t kMaxColumns = std::size_t{1} << 20;

// The bounded sweep's dot-product prefilter turns a threshold into a
// maximum angle and widens it by a relative slack and an absolute band
// before it prunes a pair without the haversine. The band dwarfs every
// rounding error of the test: a dot product of unit vectors is off by a few
// 1e-16, which near the flat ends of cos is an angle of at most ~3e-8 rad,
// and the floor and its inversion are off by a few ulps, which the slack
// covers relative to the angle. The band costs a pair at most 6.4 km of
// reach, so only pairs within that of the limit take the exact floor
// needlessly.
constexpr double kPrefilterSlack = 1e-9;
constexpr double kPrefilterBand = 1e-6;  // rad

// Default tile geometry and cache bound. Any shape yields the same bytes
// (DESIGN.md §14); the budget bounds peak memory, never results.
constexpr std::size_t kDefaultVpBlock = 256;
constexpr std::size_t kDefaultTargetBlock = 512;
constexpr std::size_t kDefaultBudgetTiles = 64;

}  // namespace

RttTileSource::RttTileSource(TileCampaign campaign, TileShape shape,
                             std::size_t budget_tiles)
    : campaign_(std::move(campaign)) {
  if (campaign_.world == nullptr || campaign_.latency == nullptr) {
    throw std::invalid_argument(
        "RttTileSource: campaign needs a world and a latency model");
  }
  if (campaign_.group < 1 || campaign_.group > 3) {
    throw std::invalid_argument(
        "RttTileSource: destination group size must be 1..3");
  }
  if (campaign_.dsts.size() % campaign_.group != 0) {
    throw std::invalid_argument(
        "RttTileSource: dsts size must be a multiple of group");
  }
  if (cols() > kMaxColumns) {
    throw std::invalid_argument(
        "RttTileSource: the (r << 20) | c cell-RNG packing caps campaigns "
        "at 2^20 columns");
  }
  shape_.vp_block = shape.vp_block != 0 ? shape.vp_block : kDefaultVpBlock;
  shape_.target_block =
      shape.target_block != 0 ? shape.target_block : kDefaultTargetBlock;
  budget_ = budget_tiles != 0 ? budget_tiles : kDefaultBudgetTiles;
  vp_soa_ = campaign_.latency->host_soa(campaign_.vps);
  dst_soa_ = campaign_.latency->host_soa(campaign_.dsts);
}

RttTileSource RttTileSource::for_targets(const Scenario& s, TileShape shape,
                                         std::size_t budget_tiles) {
  TileCampaign c;
  c.world = &s.world();
  c.latency = &s.latency();
  c.vps = s.vps();
  c.dsts = s.targets();
  c.group = 1;
  c.stream = s.world().rng().fork("campaign-target");
  c.ping_packets = s.config().ping_packets;
  return RttTileSource(std::move(c), shape, budget_tiles);
}

RttTileSource RttTileSource::for_representatives(const Scenario& s,
                                                 TileShape shape,
                                                 std::size_t budget_tiles) {
  TileCampaign c;
  c.world = &s.world();
  c.latency = &s.latency();
  c.vps = s.vps();
  c.group = 3;
  c.dsts.reserve(s.targets().size() * 3);
  for (const sim::HostId target : s.targets()) {
    for (const auto& rep : s.hitlist().for_target(target).reps) {
      c.dsts.push_back(rep.host);
    }
  }
  c.stream = s.world().rng().fork("campaign-reps");
  c.ping_packets = s.config().ping_packets;
  return RttTileSource(std::move(c), shape, budget_tiles);
}

std::size_t RttTileSource::vp_blocks() const noexcept {
  return (rows() + shape_.vp_block - 1) / shape_.vp_block;
}

std::size_t RttTileSource::target_blocks() const noexcept {
  return (cols() + shape_.target_block - 1) / shape_.target_block;
}

float RttTileSource::synthesise_cell(std::size_t r, std::size_t c,
                                     const double* base) const {
  // The dense loops' cell recipe, verbatim: one RNG forked from (r, c),
  // consumed sequentially across the column's destination group, median by
  // the same explicit swap sequence. Any change here breaks tile-vs-dense
  // byte-identity.
  auto gen = campaign_.stream.fork("m", (r << 20) | c).gen();
  const std::size_t g = campaign_.group;
  double vals[3];
  int n = 0;
  for (std::size_t k = 0; k < g; ++k) {
    const std::size_t d = c * g + k;
    const auto sample = campaign_.latency->ping_sample_with_base(
        base[k], dst_soa_.responsive[d] != 0, campaign_.ping_packets, gen);
    if (sample.min_rtt_ms) vals[n++] = *sample.min_rtt_ms;
  }
  if (n == 0) return std::numeric_limits<float>::quiet_NaN();
  if (n > 1 && vals[0] > vals[1]) std::swap(vals[0], vals[1]);
  if (n > 2 && vals[1] > vals[2]) std::swap(vals[1], vals[2]);
  if (n > 1 && vals[0] > vals[1]) std::swap(vals[0], vals[1]);
  const double med = (n == 3)   ? vals[1]
                     : (n == 2) ? (vals[0] + vals[1]) / 2.0
                                : vals[0];
  return static_cast<float>(med);
}

void RttTileSource::generate(std::size_t vp_block, std::size_t target_block,
                             Tile& out) const {
  const std::size_t g = campaign_.group;
  out.vp_begin = vp_block * shape_.vp_block;
  out.vp_end = std::min(rows(), out.vp_begin + shape_.vp_block);
  out.target_begin = target_block * shape_.target_block;
  out.target_end = std::min(cols(), out.target_begin + shape_.target_block);
  const std::size_t tile_rows = out.rows();
  const std::size_t tile_cols = out.cols();
  out.rtt.assign(tile_rows * tile_cols,
                 std::numeric_limits<float>::quiet_NaN());
  // Rows own disjoint slices and every cell derives its randomness from
  // (r, c), so the tile is bit-identical at any worker count — the same
  // argument the dense loops make (DESIGN.md §9).
  util::parallel_for(
      tile_rows,
      [&](std::size_t rr) {
        const std::size_t r = out.vp_begin + rr;
        sim::LatencyModel::CityPairCache cache;
        std::vector<double> base(tile_cols * g);
        campaign_.latency->base_rtt_ms_batch(vp_soa_, r, dst_soa_,
                                             out.target_begin * g,
                                             out.target_end * g, cache,
                                             base.data());
        float* row_out = out.rtt.data() + rr * tile_cols;
        for (std::size_t cc = 0; cc < tile_cols; ++cc) {
          row_out[cc] =
              synthesise_cell(r, out.target_begin + cc, base.data() + cc * g);
        }
      },
      /*grain=*/1);
  stats_.generated_cells += tile_rows * tile_cols;
  tile_metrics().cells.add(static_cast<std::int64_t>(tile_rows * tile_cols));
}

void RttTileSource::sweep_below(std::size_t vp_begin, std::size_t vp_end,
                                std::size_t target_block,
                                std::span<const float> threshold,
                                float* out) const {
  const std::size_t g = campaign_.group;
  const std::size_t c_begin = target_block * shape_.target_block;
  const std::size_t n_cols =
      std::min(cols(), c_begin + shape_.target_block) - c_begin;
  const sim::LatencyModel& latency = *campaign_.latency;
  const sim::LatencyModel::HostSoA& vp = vp_soa_;
  const sim::LatencyModel::HostSoA& dst = dst_soa_;

  // Stage 1 set-up. floor >= threshold holds for every row of the sweep
  // beyond the reach the sweep's smallest VP last mile allows, so per
  // (column, destination) a pair whose unit vectors' dot product is below
  // cos(reach angle + margins) is pruned without its haversine. An
  // unresponsive destination never keeps a cell (+inf prunes every pair);
  // an infinite threshold or a reach past the antipode prunes none (-inf).
  double lm_min = std::numeric_limits<double>::infinity();
  for (std::size_t r = vp_begin; r < vp_end; ++r) {
    lm_min = std::min(lm_min, vp.last_mile_ms[r]);
  }
  std::vector<double> limit(n_cols * g);
  for (std::size_t cc = 0; cc < n_cols; ++cc) {
    for (std::size_t k = 0; k < g; ++k) {
      const std::size_t d = (c_begin + cc) * g + k;
      double& lim = limit[cc * g + k];
      if (dst.responsive[d] == 0) {
        lim = std::numeric_limits<double>::infinity();
        continue;
      }
      const double reach = latency.floor_reach_km(
          threshold[cc], lm_min + dst.last_mile_ms[d]);
      const double angle =
          reach / geo::kEarthRadiusKm * (1.0 + kPrefilterSlack) +
          kPrefilterBand;
      lim = angle < geo::kPi ? std::cos(angle)
                             : -std::numeric_limits<double>::infinity();
    }
  }

  using Cache = std::optional<sim::LatencyModel::CityPairCache>;
  const auto sweep_row = [&](std::size_t rr, Cache& cache) -> std::size_t {
    const std::size_t r = vp_begin + rr;
    float* row_out = out + rr * n_cols;
    const double vx = vp.points.x[r];
    const double vy = vp.points.y[r];
    const double vz = vp.points.z[r];
    std::size_t made = 0;
    for (std::size_t cc = 0; cc < n_cols; ++cc) {
      row_out[cc] = std::numeric_limits<float>::quiet_NaN();
      // Stages 1 and 2: the cell is at least the smallest floor of its
      // responsive destinations, so it survives when one floor is below
      // the threshold.
      double dist[3] = {0.0, 0.0, 0.0};
      bool have[3] = {false, false, false};
      bool alive = false;
      for (std::size_t k = 0; k < g; ++k) {
        const std::size_t d = (c_begin + cc) * g + k;
        if (vx * dst.points.x[d] + vy * dst.points.y[d] +
                vz * dst.points.z[d] <
            limit[cc * g + k]) {
          continue;
        }
        geo::distance_km_batch(vp.location[r], dst.points, d, d + 1,
                               &dist[k]);
        have[k] = true;
        if (latency.rtt_floor_ms(vp, r, dst, d, dist[k]) < threshold[cc]) {
          alive = true;
        }
      }
      if (!alive) continue;
      // Stage 3: the exact cell, from the distances already in hand.
      double base[3] = {0.0, 0.0, 0.0};
      for (std::size_t k = 0; k < g; ++k) {
        const std::size_t d = (c_begin + cc) * g + k;
        if (dst.responsive[d] == 0) continue;  // its base is never read
        if (!have[k]) {
          geo::distance_km_batch(vp.location[r], dst.points, d, d + 1,
                                 &dist[k]);
        }
        if (!cache) cache.emplace();
        base[k] = latency.base_rtt_ms_at(vp, r, dst, d, dist[k], *cache);
      }
      row_out[cc] = synthesise_cell(r, c_begin + cc, base);
      ++made;
    }
    return made;
  };
  // Rows go to the pool in chunks of at least ~4 k pairs, so a sweep over
  // a few columns does not pay a dispatch per row. Each chunk creates its
  // scratch (the city-pair cache) only if one of its rows synthesises.
  const std::size_t n = vp_end - vp_begin;
  const std::size_t grain =
      std::max<std::size_t>(1, 4096 / std::max<std::size_t>(1, n_cols * g));
  std::vector<std::size_t> made((n + grain - 1) / grain, 0);
  util::global_pool().run_chunks(
      n, grain, [&](std::size_t begin, std::size_t end) {
        Cache cache;
        for (std::size_t rr = begin; rr < end; ++rr) {
          made[begin / grain] += sweep_row(rr, cache);
        }
      });
  std::size_t total = 0;
  for (const std::size_t m : made) total += m;
  stats_.synthesised_cells += total;
  tile_metrics().synthesised.add(static_cast<std::int64_t>(total));
}

void RttTileSource::note_resident(std::size_t bytes) const {
  stats_.peak_resident_bytes = std::max(stats_.peak_resident_bytes, bytes);
}

const RttTileSource::Tile& RttTileSource::tile(std::size_t vp_block,
                                               std::size_t target_block) {
  const std::size_t key = vp_block * target_blocks() + target_block;
  if (const auto it = cached_.find(key); it != cached_.end()) {
    ++stats_.hits;
    tile_metrics().hits.add();
    lru_.splice(lru_.begin(), lru_, it->second);
    return lru_.front().tile;
  }
  ++stats_.misses;
  tile_metrics().misses.add();
  lru_.emplace_front();
  lru_.front().key = key;
  generate(vp_block, target_block, lru_.front().tile);
  cached_[key] = lru_.begin();
  stats_.resident_bytes += lru_.front().tile.rtt.size() * sizeof(float);
  note_resident(stats_.resident_bytes);
  while (lru_.size() > budget_) {
    const CacheEntry& victim = lru_.back();
    stats_.resident_bytes -= victim.tile.rtt.size() * sizeof(float);
    cached_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
    tile_metrics().evictions.add();
  }
  stats_.resident_tiles = lru_.size();
  return lru_.front().tile;
}

float RttTileSource::at(std::size_t r, std::size_t c) {
  return tile(r / shape_.vp_block, c / shape_.target_block).at(r, c);
}

float RttTileSource::cell(std::size_t r, std::size_t c) const {
  sim::LatencyModel::CityPairCache cache;
  double base[3];
  const std::size_t g = campaign_.group;
  campaign_.latency->base_rtt_ms_batch(vp_soa_, r, dst_soa_, c * g,
                                       (c + 1) * g, cache, base);
  return synthesise_cell(r, c, base);
}

RttMatrix RttTileSource::materialise() const {
  RttMatrix m(rows(), cols());
  Tile scratch;
  const std::size_t n_vb = vp_blocks();
  const std::size_t n_tb = target_blocks();
  for (std::size_t vb = 0; vb < n_vb; ++vb) {
    for (std::size_t tb = 0; tb < n_tb; ++tb) {
      generate(vb, tb, scratch);
      note_resident(stats_.resident_bytes +
                    scratch.rtt.size() * sizeof(float));
      for (std::size_t r = scratch.vp_begin; r < scratch.vp_end; ++r) {
        for (std::size_t c = scratch.target_begin; c < scratch.target_end;
             ++c) {
          m.set(r, c, scratch.at(r, c));
        }
      }
    }
  }
  return m;
}

}  // namespace geoloc::scenario
