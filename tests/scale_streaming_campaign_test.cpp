// Streaming million-scale campaign vs the dense pipeline (DESIGN.md §14).
//
// run_streaming_campaign executes MillionScale's algorithm — rep-based VP
// selection, final pings, CBG — against tile sources instead of dense
// matrices. With the scenario's own campaigns and the identity
// target→rep-column mapping the two pipelines must agree bitwise: same
// selected rows per target, same per-target errors, at every tile shape and
// thread count.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/million_scale.h"
#include "core/streaming_campaign.h"
#include "eval/experiments.h"
#include "geo/geodesy.h"
#include "oracles/streamed_select_block_reference.h"
#include "scenario/presets.h"
#include "scenario/tile_source.h"
#include "test_scenario.h"
#include "util/parallel.h"

namespace geoloc {
namespace {

using scenario::RttTileSource;
using scenario::TileShape;

struct ThreadGuard {
  ThreadGuard() = default;
  ~ThreadGuard() { util::set_thread_count(0); }
};

/// Dense per-target outcome of the original algorithm: selected rows and
/// the resulting CBG error (-1 when CBG failed).
struct DenseOutcome {
  std::vector<std::vector<std::size_t>> rows;
  std::vector<double> errors_km;
};

DenseOutcome dense_pipeline(const scenario::Scenario& s, int k) {
  const core::MillionScale ms(s);
  DenseOutcome out;
  out.rows.resize(s.targets().size());
  out.errors_km.assign(s.targets().size(), -1.0);
  for (std::size_t t = 0; t < s.targets().size(); ++t) {
    out.rows[t] = ms.select_vps_by_representatives(t, k);
    const core::CbgResult res = ms.geolocate(out.rows[t], t);
    if (res.ok) out.errors_km[t] = ms.error_km(res.estimate, t);
  }
  return out;
}

TEST(ScaleStreamingCampaign, SelectionMatchesDensePartialSortPerColumn) {
  const auto& s = testing::small_scenario();
  (void)s.representative_rtts();  // warm the dense oracle
  const core::MillionScale ms(s);
  for (const TileShape& shape :
       {TileShape{16, 64}, TileShape{7, 13}, TileShape{1024, 4096}}) {
    RttTileSource reps = RttTileSource::for_representatives(s, shape);
    for (std::size_t tb = 0; tb < reps.target_blocks(); ++tb) {
      const auto block = core::streamed_select_block(
          reps, tb, /*k=*/3, std::span<const sim::HostId>(s.targets()));
      const std::size_t col_begin = tb * reps.shape().target_block;
      for (std::size_t cc = 0; cc < block.size(); ++cc) {
        const auto dense = ms.select_vps_by_representatives(col_begin + cc, 3);
        EXPECT_EQ(dense, block[cc])
            << "column " << col_begin + cc << " at shape " << shape.vp_block
            << "x" << shape.target_block;
      }
    }
  }
}

TEST(ScaleStreamingCampaign, KLargerThanCandidatesAndKZeroMatchDense) {
  const auto& s = testing::small_scenario();
  (void)s.representative_rtts();
  const core::MillionScale ms(s);
  RttTileSource reps = RttTileSource::for_representatives(s, {16, 64});
  const auto all = core::streamed_select_block(
      reps, 0, /*k=*/100000, std::span<const sim::HostId>(s.targets()));
  const auto none = core::streamed_select_block(
      reps, 0, /*k=*/0, std::span<const sim::HostId>(s.targets()));
  const std::size_t n =
      std::min(reps.shape().target_block, reps.cols());
  for (std::size_t cc = 0; cc < n; ++cc) {
    EXPECT_EQ(ms.select_vps_by_representatives(cc, 100000), all[cc]);
    EXPECT_TRUE(none[cc].empty());
  }
}

TEST(ScaleStreamingCampaign, CampaignMatchesDensePipelineAcrossShapesAndThreads) {
  const auto& s = testing::small_scenario();
  (void)s.target_rtts();
  (void)s.representative_rtts();
  const DenseOutcome dense = dense_pipeline(s, /*k=*/3);
  ThreadGuard guard;
  for (const unsigned threads : {1u, 8u}) {
    util::set_thread_count(threads);
    for (const TileShape& shape : {TileShape{16, 64}, TileShape{7, 13}}) {
      RttTileSource reps = RttTileSource::for_representatives(s, shape);
      RttTileSource targets = RttTileSource::for_targets(s, shape);
      const auto outcome = core::run_streaming_campaign(reps, targets);
      ASSERT_EQ(outcome.targets, s.targets().size());
      ASSERT_EQ(outcome.errors_km.size(), dense.errors_km.size());
      for (std::size_t t = 0; t < dense.errors_km.size(); ++t) {
        // Bitwise double equality: same observations, same CBG solve.
        EXPECT_EQ(dense.errors_km[t], outcome.errors_km[t])
            << "target " << t << " at " << threads << " thread(s), shape "
            << shape.vp_block << "x" << shape.target_block;
      }
      const auto located = static_cast<std::size_t>(std::count_if(
          dense.errors_km.begin(), dense.errors_km.end(),
          [](double e) { return e >= 0.0; }));
      EXPECT_EQ(outcome.located, located);
      EXPECT_EQ(outcome.failed, dense.errors_km.size() - located);
      EXPECT_GT(outcome.rep_cells, 0u);
      EXPECT_GT(outcome.target_cells, 0u);
      // The whole point: the final-ping campaign is sparse — k cells per
      // target, never the dense rows x cols.
      EXPECT_LE(outcome.target_cells, 3 * s.targets().size());
    }
  }
}

TEST(ScaleStreamingCampaign, ExplicitIdentityMappingDisablesSelfExclusion) {
  // A non-empty mapping (even the identity values) routes through the
  // shared-rep-column path, which cannot assume rep column == target, so
  // self-VP exclusion moves entirely to the final-ping stage. The outcome
  // may legitimately differ from the dense pipeline only for targets whose
  // own anchor won selection; everything else must agree.
  const auto& s = testing::small_scenario();
  RttTileSource reps = RttTileSource::for_representatives(s, {16, 64});
  RttTileSource targets = RttTileSource::for_targets(s, {16, 64});
  std::vector<std::uint32_t> identity(s.targets().size());
  for (std::size_t t = 0; t < identity.size(); ++t) {
    identity[t] = static_cast<std::uint32_t>(t);
  }
  const auto outcome =
      core::run_streaming_campaign(reps, targets, identity);
  EXPECT_EQ(outcome.targets, s.targets().size());
  EXPECT_EQ(outcome.located + outcome.failed, outcome.targets);
  // Most targets still locate: the self anchor rarely has the lowest
  // median RTT to its own /24's reps from a *different* /24's perspective.
  EXPECT_GT(outcome.located, outcome.targets / 2);
}

TEST(ScaleStreamingCampaign, MappingSizeIsValidated) {
  const auto& s = testing::small_scenario();
  RttTileSource reps = RttTileSource::for_representatives(s, {16, 64});
  RttTileSource targets = RttTileSource::for_targets(s, {16, 64});
  const std::vector<std::uint32_t> short_map(s.targets().size() / 2, 0);
  EXPECT_THROW(core::run_streaming_campaign(reps, targets, short_map),
               std::invalid_argument);
}

TEST(ScaleStreamingCampaign, MappingPastRepColumnsIsRejected) {
  const auto& s = testing::small_scenario();
  RttTileSource reps = RttTileSource::for_representatives(s, {16, 64});
  RttTileSource targets = RttTileSource::for_targets(s, {16, 64});
  std::vector<std::uint32_t> map(s.targets().size(), 0);
  map.back() = static_cast<std::uint32_t>(reps.cols());
  EXPECT_THROW(core::run_streaming_campaign(reps, targets, map),
               std::invalid_argument);
}

TEST(ScaleStreamingCampaign, TargetsCampaignMustPingOneHostPerColumn) {
  // A rep-shaped (group 3) final-ping campaign would pair target t with
  // host dsts[t] instead of dsts[3t].
  const auto& s = testing::small_scenario();
  RttTileSource reps = RttTileSource::for_representatives(s, {16, 64});
  RttTileSource grouped = RttTileSource::for_representatives(s, {16, 64});
  ASSERT_EQ(reps.cols(), grouped.cols());
  EXPECT_THROW(core::run_streaming_campaign(reps, grouped),
               std::invalid_argument);
}

TEST(ScaleStreamingCampaign, ShortColSelfIsRejected) {
  const auto& s = testing::small_scenario();
  RttTileSource reps = RttTileSource::for_representatives(s, {16, 64});
  const std::span<const sim::HostId> all(s.targets());
  EXPECT_THROW(core::streamed_select_block(reps, 0, 3,
                                           all.first(reps.cols() - 1)),
               std::invalid_argument);
  EXPECT_NO_THROW(core::streamed_select_block(reps, 0, 3, all));
}

TEST(ScaleStreamingCampaign, ResilientRepSourceIsDeterministicAndFaultAware) {
  const auto& s = testing::small_scenario();
  RttTileSource a = core::make_resilient_rep_source(s, nullptr, {16, 64});
  RttTileSource b = core::make_resilient_rep_source(s, nullptr, {16, 64});
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), s.targets().size());
  // Same construction → same campaign → same bytes.
  const scenario::RttMatrix ma = a.materialise();
  const scenario::RttMatrix mb = b.materialise();
  for (std::size_t r = 0; r < ma.rows(); ++r) {
    for (std::size_t c = 0; c < ma.cols(); ++c) {
      const float x = ma.at(r, c);
      const float y = mb.at(r, c);
      ASSERT_TRUE((scenario::RttMatrix::is_missing(x) &&
                   scenario::RttMatrix::is_missing(y)) ||
                  x == y)
          << "(" << r << ", " << c << ")";
    }
  }
  // The fault-aware source uses its own RNG stream: it is a different
  // campaign from the hitlist-ordered one, not a re-labelling.
  EXPECT_EQ(a.campaign().group, 3u);
  EXPECT_EQ(a.campaign().dsts.size(), 3 * s.targets().size());
}

// ---------------------------------------------------------------------------
// Bounded selection vs the full-tile sweep (tests/oracles). The bounded
// sweep synthesises a rep cell only while its RTT floor can beat the
// column's k-th best; these tests pin it column for column to the sweep
// that synthesises every cell.

constexpr TileShape kShapes[] = {{1, 1}, {7, 13}, {16, 64}, {256, 512}};

/// Bounded selection of every target block of `campaign` at every shape
/// in `shapes` and every k, against the oracle at one shape; `col_self`
/// as streamed_select_block takes it. `synthesised`, when given, receives
/// the cells the bounded sweep synthesised at the last shape for k = 3.
void expect_bounded_matches_oracle(const scenario::TileCampaign& campaign,
                                   std::span<const sim::HostId> col_self,
                                   const std::string& what,
                                   std::span<const TileShape> shapes = kShapes,
                                   std::uint64_t* synthesised = nullptr) {
  RttTileSource ref(campaign, {256, 512}, /*budget_tiles=*/4096);
  const int rows = static_cast<int>(ref.rows());
  for (const int k : {0, 1, 3, 10, rows + 7}) {
    std::vector<std::vector<std::size_t>> want;
    for (std::size_t tb = 0; tb < ref.target_blocks(); ++tb) {
      auto block =
          core::oracle::streamed_select_block_reference(ref, tb, k, col_self);
      for (auto& col : block) want.push_back(std::move(col));
    }
    ASSERT_EQ(want.size(), ref.cols());
    for (const TileShape& shape : shapes) {
      // k > rows never fills a heap, so nothing is pruned and every shape
      // runs the same unbounded path: one shape is enough there.
      if (k > rows && &shape != &shapes.back()) continue;
      RttTileSource src(campaign, shape);
      std::size_t col = 0;
      for (std::size_t tb = 0; tb < src.target_blocks(); ++tb) {
        const auto got = core::streamed_select_block(src, tb, k, col_self);
        for (const auto& rows_of_col : got) {
          ASSERT_EQ(want[col], rows_of_col)
              << what << ": column " << col << ", k " << k << ", shape "
              << shape.vp_block << "x" << shape.target_block;
          ++col;
        }
      }
      ASSERT_EQ(col, ref.cols());
      if (k == 3 && synthesised != nullptr) {
        *synthesised = src.stats().synthesised_cells;
      }
      if (k == 0) {
        EXPECT_EQ(src.stats().synthesised_cells, 0u);
      }
    }
  }
}

scenario::Scenario make_scenario(std::uint64_t seed,
                                 const sim::LatencyModelConfig& latency = {}) {
  auto cfg = scenario::small_config(seed);
  cfg.cache_dir = "";
  cfg.latency = latency;
  return scenario::Scenario(cfg);
}

TEST(ScaleBoundedSelection, MatchesFullSweepAcrossSeedsShapesAndK) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const scenario::Scenario s = make_scenario(seed);
    const auto campaign = RttTileSource::for_representatives(s).campaign();
    const std::string what = "seed " + std::to_string(seed);
    std::uint64_t made = 0;
    expect_bounded_matches_oracle(campaign, {}, what + " without self",
                                  kShapes, &made);
    expect_bounded_matches_oracle(campaign, s.targets(), what + " with self");
    // The bound prunes: most rep cells are never synthesised.
    const std::uint64_t all = campaign.vps.size() * s.targets().size();
    EXPECT_GT(made, 0u) << what;
    EXPECT_LT(made, all / 2) << what;
  }
}

TEST(ScaleBoundedSelection, SelectionAndCountAreThreadInvariant) {
  const auto& s = testing::small_scenario();
  ThreadGuard guard;
  std::vector<std::vector<std::size_t>> first;
  std::uint64_t first_made = 0;
  for (const unsigned threads : {1u, 2u, 8u}) {
    util::set_thread_count(threads);
    RttTileSource reps = RttTileSource::for_representatives(s, {16, 64});
    std::vector<std::vector<std::size_t>> all;
    for (std::size_t tb = 0; tb < reps.target_blocks(); ++tb) {
      for (auto& col : core::streamed_select_block(reps, tb, 3)) {
        all.push_back(std::move(col));
      }
    }
    if (threads == 1) {
      first = all;
      first_made = reps.stats().synthesised_cells;
    }
    EXPECT_EQ(first, all) << threads << " threads";
    EXPECT_EQ(first_made, reps.stats().synthesised_cells)
        << threads << " threads";
  }
}

TEST(ScaleBoundedSelection, PlaceholdersAndUnresponsiveColumnsMatchOracle) {
  const auto& s = testing::small_scenario();
  const atlas::FaultModel faults(s.world(), scenario::stormy_weather());
  auto campaign =
      core::make_resilient_rep_source(s, &faults).campaign();
  ASSERT_NE(std::count(campaign.dsts.begin(), campaign.dsts.end(),
                       sim::kInvalidHost),
            0)
      << "the storm should leave /24s short of usable representatives";
  // Blank every fifth column: no responsive destination at all, so the
  // column selects nothing and the sweep synthesises nothing there.
  std::vector<sim::HostId> unresponsive;
  for (const sim::HostId h : s.targets()) {
    if (!s.world().host(h).responsive) unresponsive.push_back(h);
  }
  const std::size_t cols = campaign.dsts.size() / 3;
  for (std::size_t c = 0; c < cols; c += 5) {
    for (std::size_t k = 0; k < 3; ++k) {
      campaign.dsts[c * 3 + k] =
          (k == 1 && !unresponsive.empty()) ? unresponsive[c % unresponsive.size()]
                                            : sim::kInvalidHost;
    }
  }
  expect_bounded_matches_oracle(campaign, {}, "resilient reps");
  expect_bounded_matches_oracle(campaign, s.targets(), "resilient reps, self");
  RttTileSource src(campaign, {16, 64});
  const auto sel = core::streamed_select_block(src, 0, 3);
  for (std::size_t c = 0; c < sel.size(); c += 5) {
    EXPECT_TRUE(sel[c].empty()) << "column " << c;
  }
}

/// Latency models whose floor is (nearly) the value itself, so thresholds
/// and floors meet at the boundary: each pins one term, the last all four.
std::vector<sim::LatencyModelConfig> pinned_models() {
  std::vector<sim::LatencyModelConfig> m(5);
  for (const std::size_t i : {0u, 4u}) m[i].min_inflation = 8.0;  // clamps
  for (const std::size_t i : {1u, 4u}) {
    m[i].overhead_mean_ms = 0.0;
    m[i].overhead_local_mean_ms = 0.0;
  }
  for (const std::size_t i : {2u, 4u}) m[i].loss_rate = 0.5;
  for (const std::size_t i : {3u, 4u}) m[i].jitter_mean_ms = 1e-9;
  return m;
}

TEST(ScaleBoundedSelection, FloorPinnedLatencyModelsMatchOracle) {
  constexpr TileShape shapes[] = {{7, 13}, {256, 512}};
  const auto models = pinned_models();
  for (std::size_t which = 0; which < models.size(); ++which) {
    const scenario::Scenario s = make_scenario(1, models[which]);
    const auto campaign = RttTileSource::for_representatives(s).campaign();
    const std::string what = "pinned model " + std::to_string(which);
    expect_bounded_matches_oracle(campaign, {}, what, shapes);
    expect_bounded_matches_oracle(campaign, s.targets(), what + ", self",
                                  shapes);
  }
}

TEST(ScaleBoundedSelection, RttFloorNeverExceedsAPing) {
  // floor <= base <= every packet, for many pairs, under the default model
  // and every pinned one.
  auto models = pinned_models();
  models.insert(models.begin(), sim::LatencyModelConfig{});
  for (std::size_t which = 0; which < models.size(); ++which) {
    const scenario::Scenario s = make_scenario(2, models[which]);
    const sim::LatencyModel& lm = s.latency();
    const std::span<const sim::HostId> srcs(s.vps());
    const std::vector<sim::HostId> reps =
        RttTileSource::for_representatives(s).campaign().dsts;
    const auto src = lm.host_soa(srcs);
    const auto dst = lm.host_soa(reps);
    auto pick = util::RngStream(99).fork("pairs", which).gen();
    int checked = 0;
    for (int trial = 0; trial < 4000; ++trial) {
      const std::size_t i = pick.bounded(static_cast<std::uint32_t>(src.size()));
      const std::size_t j = pick.bounded(static_cast<std::uint32_t>(dst.size()));
      if (dst.ids[j] == sim::kInvalidHost) continue;
      const double d = geo::distance_km(src.location[i], dst.location[j]);
      const double floor = lm.rtt_floor_ms(src, i, dst, j, d);
      ASSERT_LE(floor, lm.base_rtt_ms(src.ids[i], dst.ids[j]));
      auto gen = util::RngStream(trial).gen();
      const auto ping = lm.ping_sample(src.ids[i], dst.ids[j], 3, gen);
      if (ping.min_rtt_ms) {
        ASSERT_LE(floor, *ping.min_rtt_ms)
            << "model " << which << ", pair " << i << " -> " << j;
        ++checked;
      }
      // Beyond the inverted floor's reach (plus a relative hair for
      // rounding) the floor is at or above the RTT it was inverted for.
      const double rtt = floor * pick.uniform(0.5, 1.5);
      const double reach =
          lm.floor_reach_km(rtt, src.last_mile_ms[i] + dst.last_mile_ms[j]);
      if (d > reach * (1.0 + 1e-9)) {
        ASSERT_GE(floor, rtt) << "model " << which;
      }
    }
    EXPECT_GT(checked, 1000) << "model " << which;
  }
}

// A hand-placed world for the sweep's boundary cases, under the fully
// pinned model (floor == value up to ~1e-9 ms of jitter). Each cluster
// sits on its own continent, far enough from the others never to enter
// their selections. In every cluster the first two strides (64 rows)
// fill the heaps with VPs that set a threshold, and later strides hold
// VPs that must still be selected although a wrong bound would prune
// them:
//   colocated — VPs at exactly their /24's location, a float ulp under
//               the threshold: only the prefilter band keeps them (the
//               dot product of equal unit vectors may round below 1);
//   waived    — same-city VPs in a poorly connected city with a local
//               exchange: their floor has no penalty;
//   spread    — /24s with a third representative on another continent:
//               the cell is a median, bounded by the *nearest* rep's floor;
//   decoyed   — every late stride opens with a VP of large last mile, so
//               only the stride's *minimum* last mile bounds the reach.
struct BoundaryWorld {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<sim::LatencyModel> latency;
  std::vector<sim::HostId> vps;
  std::vector<sim::HostId> reps;
};

constexpr std::size_t kEarlyRows = 64;

BoundaryWorld make_boundary_world() {
  BoundaryWorld b;
  sim::WorldConfig wc;
  wc.seed = 4242;
  wc.poorly_connected_city_prob = {0.5, 0.5, 0.5, 0.5, 0.5, 0.5};
  wc.local_peering_rate = 0.5;
  b.world = std::make_unique<sim::World>(wc);
  sim::World& w = *b.world;
  auto gen = w.rng().fork("boundary").gen();
  const net::Asn asn = w.create_as(sim::AsCategory::Access, 0);
  net::Prefix prefix = w.allocate_site_prefix(asn);
  std::uint32_t octet = 0;
  const auto add = [&](sim::PlaceId place, const geo::GeoPoint& at,
                       double last_mile) {
    if (++octet == 255) {
      prefix = w.allocate_site_prefix(asn);
      octet = 1;
    }
    sim::Host h;
    h.kind = sim::HostKind::Probe;
    h.asn = asn;
    h.place = place;
    h.true_location = at;
    h.reported_location = at;
    h.last_mile_ms = last_mile;
    h.addr = prefix.address_at(octet);
    return w.add_host(h);
  };
  // One city per cluster, on distinct continents.
  const auto city_on = [&](sim::Continent cont, auto&& ok) {
    for (const sim::PlaceId c : w.cities()) {
      if (w.place(c).continent == cont && ok(c)) return c;
    }
    ADD_FAILURE() << "no suitable city";
    return w.cities()[0];
  };
  const auto well = [&](sim::PlaceId c) { return w.access_penalty_ms(c) == 0.0; };
  const sim::PlaceId zc = city_on(sim::Continent::EU, well);
  const sim::PlaceId wcity = city_on(sim::Continent::AS, [&](sim::PlaceId c) {
    return w.access_penalty_ms(c) >= 4.0 && w.has_local_peering(c);
  });
  const sim::PlaceId sc = city_on(sim::Continent::NA, well);
  const sim::PlaceId far = city_on(sim::Continent::OC, well);
  const sim::PlaceId mc = city_on(sim::Continent::SA, well);
  const auto near = [&](sim::PlaceId c, double km) {
    return geo::destination(w.place(c).location, gen.uniform(0.0, 360.0),
                            gen.uniform(0.0, km));
  };
  const double float_ulp_at_2 = std::ldexp(1.0, -22);

  std::vector<sim::HostId> early, late;
  const auto add_site = [&](sim::PlaceId place, const geo::GeoPoint& a,
                            const geo::GeoPoint& bb, const geo::GeoPoint& c,
                            sim::PlaceId c_place) {
    b.reps.push_back(add(place, a, 1.0));
    b.reps.push_back(add(place, bb, 1.0));
    b.reps.push_back(add(c_place, c, 1.0));
  };
  // colocated: 3 early VPs at exactly 2 + 1 ulp, one late VP at 2.0.
  for (int i = 0; i < 12; ++i) {
    const geo::GeoPoint at = near(zc, 30.0);
    add_site(zc, at, at, at, zc);
    for (int e = 0; e < 3; ++e) early.push_back(add(zc, at, 1.0 + float_ulp_at_2));
    late.push_back(add(zc, at, 1.0));
  }
  // waived: early same-city VPs with a slow last mile, late fast ones.
  for (int i = 0; i < 6; ++i) {
    add_site(wcity, near(wcity, 3.0), near(wcity, 3.0), near(wcity, 3.0),
             wcity);
  }
  for (int e = 0; e < 4; ++e) early.push_back(add(wcity, near(wcity, 3.0), 4.0));
  for (int e = 0; e < 4; ++e) late.push_back(add(wcity, near(wcity, 3.0), 1.0));
  // spread: two reps at home, one on another continent.
  for (int i = 0; i < 6; ++i) {
    add_site(sc, near(sc, 3.0), near(sc, 3.0), near(far, 3.0), far);
  }
  for (int e = 0; e < 4; ++e) early.push_back(add(sc, near(sc, 3.0), 5.0));
  for (int e = 0; e < 4; ++e) late.push_back(add(sc, near(sc, 3.0), 1.0));
  // decoyed: early VPs ~100 km out, late ones in town.
  for (int i = 0; i < 6; ++i) {
    add_site(mc, near(mc, 3.0), near(mc, 3.0), near(mc, 3.0), mc);
  }
  for (int e = 0; e < 4; ++e) {
    early.push_back(add(mc, geo::destination(w.place(mc).location,
                                             90.0 * e, 100.0),
                        1.0));
  }
  for (int e = 0; e < 4; ++e) late.push_back(add(mc, near(mc, 3.0), 1.0));

  // Rows: the early VPs padded to two strides with far-away fillers, then
  // late strides that each open with a slow decoy and hold 7 late VPs.
  const auto filler = [&](double last_mile) {
    const sim::PlaceId c = city_on(sim::Continent::AF, well);
    return add(c, near(c, 200.0), last_mile);
  };
  b.vps = early;
  while (b.vps.size() < kEarlyRows) b.vps.push_back(filler(gen.uniform(1.0, 9.0)));
  std::size_t next = 0;
  while (next < late.size()) {
    b.vps.push_back(filler(9.5));  // the decoy opening the stride
    for (int slot = 1; slot < 32; ++slot) {
      const bool take = slot % 4 == 0 && next < late.size();
      b.vps.push_back(take ? late[next++] : filler(gen.uniform(1.0, 9.0)));
    }
  }
  b.latency = std::make_unique<sim::LatencyModel>(w, pinned_models().back());
  return b;
}

TEST(ScaleBoundedSelection, BoundaryWorldMatchesOracle) {
  const BoundaryWorld b = make_boundary_world();
  ASSERT_GE(b.vps.size(), kEarlyRows + 3 * 32);
  scenario::TileCampaign c;
  c.world = b.world.get();
  c.latency = b.latency.get();
  c.vps = b.vps;
  c.dsts = b.reps;
  c.group = 3;
  c.stream = b.world->rng().fork("boundary-reps");
  c.ping_packets = 3;
  ThreadGuard guard;
  for (const unsigned threads : {1u, 8u}) {
    util::set_thread_count(threads);
    expect_bounded_matches_oracle(c, {}, std::to_string(threads) + " threads");
  }
  // The world is built as designed: in every cluster column the full sweep
  // selects a late row while the early rows already fill the heap, so a
  // wrong prune would show as a selection difference above.
  RttTileSource ref(c, {256, 512}, 64);
  const auto sel = core::oracle::streamed_select_block_reference(ref, 0, 3);
  ASSERT_EQ(sel.size(), b.reps.size() / 3);
  for (std::size_t col = 0; col < sel.size(); ++col) {
    ASSERT_EQ(sel[col].size(), 3u) << "column " << col;
    EXPECT_GE(sel[col].front(), kEarlyRows) << "column " << col;
  }
}

}  // namespace
}  // namespace geoloc
