// geo::NearestRanker against two oracles: brute force (every row ranked by
// (distance_km, index)) pins the first m, and the planner's chord-filter
// scan (tests/oracles/) pins the whole candidate list, so the ranker's
// exact distance_km count is the planner's. The three production callers
// (planner, fusion verifiers, traceroute waypoints) are pinned against the
// scans they replaced.
#include "geo/nearest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "fusion/pipeline.h"
#include "geo/geodesy.h"
#include "geo/geodesy_batch.h"
#include "oracles/nearest_scan_reference.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "sim/latency_model.h"
#include "sim/traceroute.h"
#include "util/rng.h"

namespace geoloc::geo {
namespace {

using Ranked = NearestRanker::Ranked;

std::vector<Ranked> brute_force(std::span<const GeoPoint> pts,
                                const GeoPoint& q) {
  std::vector<Ranked> all;
  all.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    all.emplace_back(distance_km(pts[i], q), i);
  }
  std::sort(all.begin(), all.end());
  return all;
}

GeoPoint random_point(util::Pcg32& gen) {
  return {rad_to_deg(std::asin(gen.uniform(-1.0, 1.0))),
          gen.uniform(-180.0, 180.0)};
}

/// One pool, checked at every (query, m): the first min(m, n) rows against
/// brute force, the whole list against the chord-filter scan.
class Pool {
 public:
  explicit Pool(std::vector<GeoPoint> pts)
      : pts_(std::move(pts)), soa_(PointsSoA::build(pts_)), ranker_(pts_) {}

  void check(const GeoPoint& q, std::span<const std::size_t> ms,
             const std::string& what) const {
    const std::vector<Ranked> all = brute_force(pts_, q);
    for (const std::size_t m : ms) {
      const std::string at = what + " q=" + to_string(q) +
                             " m=" + std::to_string(m) +
                             " n=" + std::to_string(pts_.size());
      const std::vector<Ranked> got = ranker_.rank(q, m);
      const std::size_t first = std::min(m, pts_.size());
      if (first == 0) {
        EXPECT_TRUE(got.empty()) << at;
        continue;
      }
      ASSERT_GE(got.size(), first) << at;
      for (std::size_t i = 0; i < first; ++i) {
        ASSERT_EQ(got[i], all[i]) << at << " rank " << i;
      }
      EXPECT_EQ(got, oracle::chord_filter_rank(pts_, soa_, q, first)) << at;
    }
  }

  [[nodiscard]] const NearestRanker& ranker() const { return ranker_; }

 private:
  std::vector<GeoPoint> pts_;
  PointsSoA soa_;
  NearestRanker ranker_;
};

TEST(NearestRanker, EmptyPoolAndZeroMRankNothing) {
  const NearestRanker empty(std::vector<GeoPoint>{});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.rank({10.0, 20.0}, 0).empty());
  EXPECT_TRUE(empty.rank({10.0, 20.0}, 5).empty());
  EXPECT_TRUE(NearestRanker().rank({0.0, 0.0}, 1).empty());

  const NearestRanker one(std::vector<GeoPoint>{{48.85, 2.35}});
  EXPECT_TRUE(one.rank({0.0, 0.0}, 0).empty());
  const auto got = one.rank({0.0, 0.0}, 3);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].second, 0u);
  EXPECT_EQ(got[0].first, distance_km(GeoPoint{48.85, 2.35}, {0.0, 0.0}));
}

TEST(NearestRanker, EveryMFromZeroPastThePool) {
  util::Pcg32 gen = util::RngStream(11).gen();
  for (const std::size_t n : {1u, 2u, 16u, 17u, 33u, 200u}) {
    std::vector<GeoPoint> pts;
    for (std::size_t i = 0; i < n; ++i) pts.push_back(random_point(gen));
    const Pool pool(pts);
    const std::vector<std::size_t> ms = {0, 1, n - 1, n, n + 1, 3 * n};
    for (int j = 0; j < 10; ++j) pool.check(random_point(gen), ms, "every-m");
  }
}

TEST(NearestRanker, TiesOnOneCityStraddleTheMthBoundary) {
  // 40 VPs share one city's exact coordinates, interleaved in pool order
  // with 60 VPs elsewhere: every m in [1, 40] cuts through a 40-way tie on
  // both key and distance, which only the pool index can break.
  const GeoPoint city{52.52, 13.405};
  util::Pcg32 gen = util::RngStream(7).gen();
  std::vector<GeoPoint> pts;
  for (std::size_t i = 0; i < 100; ++i) {
    pts.push_back(i % 5 < 2 ? city : random_point(gen));
  }
  const Pool pool(pts);
  const std::vector<std::size_t> ms = {1, 2, 7, 20, 39, 40, 41, 62, 99, 100};
  pool.check(city, ms, "at the city");
  pool.check({52.53, 13.41}, ms, "next to the city");
  pool.check({-52.52, -166.595}, ms, "antipode of the city");
  for (int j = 0; j < 10; ++j) pool.check(random_point(gen), ms, "random");
}

TEST(NearestRanker, JitteredClusterWhereKeyAndDistanceOrderDisagree) {
  // Rows a few ulps of a degree apart: their squared chords and distances
  // round independently, so key order and (distance, index) order
  // disagree, and only rows within the margin of the m-th key may rank.
  const GeoPoint centre{35.6762, 139.6503};
  util::Pcg32 gen = util::RngStream(3).gen();
  std::vector<GeoPoint> pts;
  for (std::size_t i = 0; i < 300; ++i) {
    pts.push_back({centre.lat_deg + gen.uniform(-1e-9, 1e-9),
                   centre.lon_deg + gen.uniform(-1e-9, 1e-9)});
  }
  const Pool pool(pts);
  const std::vector<std::size_t> ms = {1, 2, 5, 50, 62, 150, 299, 300};
  pool.check(centre, ms, "centre");
  for (int j = 0; j < 20; ++j) {
    pool.check({centre.lat_deg + gen.uniform(-2e-9, 2e-9),
                centre.lon_deg + gen.uniform(-2e-9, 2e-9)},
               ms, "inside");
  }
}

TEST(NearestRanker, PolesAntimeridianAndAntipodes) {
  util::Pcg32 gen = util::RngStream(5).gen();
  std::vector<GeoPoint> pts;
  // A cluster on the antimeridian, rows at both poles, and rows spread
  // over the globe.
  for (int i = 0; i < 50; ++i) {
    pts.push_back({gen.uniform(-10.0, 10.0),
                   i % 2 == 0 ? gen.uniform(179.0, 179.999999)
                              : gen.uniform(-180.0, -179.0)});
  }
  for (int i = 0; i < 6; ++i) {
    pts.push_back({90.0, gen.uniform(-180.0, 180.0)});
    pts.push_back({-90.0, gen.uniform(-180.0, 180.0)});
  }
  for (int i = 0; i < 300; ++i) pts.push_back(random_point(gen));
  const Pool pool(pts);
  const std::vector<std::size_t> ms = {1, 3, 6, 7, 12, 13, 50, 62, 200};
  for (const GeoPoint q :
       {GeoPoint{90.0, 0.0}, GeoPoint{-90.0, 0.0}, GeoPoint{90.0, 123.0},
        GeoPoint{0.0, -180.0}, GeoPoint{0.0, 179.9999999},
        GeoPoint{5.0, -180.0}, GeoPoint{0.0, 0.0}, GeoPoint{-5.0, 0.5},
        GeoPoint{89.999, -179.999}}) {
    pool.check(q, ms, "edge");
  }
}

TEST(NearestRanker, RandomPoolsAcrossSeedsAndSizes) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Pcg32 gen = util::RngStream(seed).gen();
    for (const std::size_t n : {1u, 5u, 20u, 100u, 1000u, 20000u}) {
      std::vector<GeoPoint> pts;
      pts.reserve(n);
      for (std::size_t i = 0; i < n; ++i) pts.push_back(random_point(gen));
      const Pool pool(pts);
      const std::vector<std::size_t> ms = {1, 3, 62, n};
      const int queries = n >= 20000 ? 6 : 25;
      for (int j = 0; j < queries; ++j) {
        pool.check(random_point(gen), ms, "seed " + std::to_string(seed));
      }
    }
  }
}

TEST(NearestRanker, KeepsAFarRowLyingExactlyOnTheCut) {
  // A pool on one meridian splits on z first, at its median row p. The
  // query q mirrors p through the equator, so p's key is exactly the
  // split distance squared, d*d. Row r over the south pole is chosen so
  // that the m-th key plus the margin rounds to exactly that value: the
  // range pass must still visit p's side of the split (prune only on
  // d*d > cut) and keep p.
  const GeoPoint q{-40.0, 0.0};
  const GeoPoint p{40.0, 0.0};
  const auto key = [](const GeoPoint& a, const GeoPoint& b) {
    const Vec3 u = unit_vector(a), v = unit_vector(b);
    const double dx = u.x - v.x, dy = u.y - v.y, dz = u.z - v.z;
    return dx * dx + dy * dy + dz * dz;
  };
  const double key_p = key(p, q);
  const double d = unit_vector(p).z - unit_vector(q).z;
  ASSERT_EQ(key_p, d * d);

  // r sits ~80 degrees from q, across the pole: |lat| just over 60. Its
  // key steps by a few ulps per ulp of latitude, so nudging its longitude
  // off the antimeridian fills in the values latitude alone skips.
  GeoPoint r;
  bool found = false;
  for (int j = 0; j < 200 && !found; ++j) {
    for (int i = -400; i < 400 && !found; ++i) {
      r = {-60.0 - 2.9e-11 + i * 7.105427357601002e-15, -180.0 + j * 1e-6};
      found = key(r, q) + oracle::kChordKeyMargin == key_p;
    }
  }
  ASSERT_TRUE(found);

  std::vector<GeoPoint> pts;
  util::Pcg32 gen = util::RngStream(9).gen();
  for (int i = 0; i < 11; ++i) {  // the m - 1 nearest, around q
    pts.push_back({q.lat_deg + gen.uniform(-3.0, 3.0), gen.uniform(-3.0, 3.0)});
  }
  pts.push_back(r);  // the m-th
  const std::size_t m = pts.size();
  pts.push_back(p);  // the median row in z
  const std::size_t p_index = pts.size() - 1;
  for (int i = 0; i < 12; ++i) {  // above p
    pts.push_back({62.0 + 2.0 * i, 0.0});
  }
  const std::vector<std::size_t> ms = {m};
  const Pool pool(pts);
  pool.check(q, ms, "cut");

  const auto got = pool.ranker().rank(q, m);
  EXPECT_TRUE(std::any_of(got.begin(), got.end(), [&](const Ranked& e) {
    return e.second == p_index;
  })) << "p, exactly on the cut, left out";
}

// -- the production callers ------------------------------------------------

TEST(NearestRanker, FusionVerifierPoolMatchesItsScan) {
  auto cfg = scenario::small_config(/*seed=*/3);
  cfg.cache_dir = "";
  cfg.build_web = false;
  const scenario::Scenario s(cfg);
  const auto vps = std::span<const sim::HostId>(s.vps());
  util::Pcg32 gen = util::RngStream(17).gen();
  for (const std::size_t take : {std::size_t{1}, std::size_t{40}, vps.size()}) {
    const auto campaign = vps.first(take);
    const fusion::VerifierPool pool(s.world(), campaign);
    for (int j = 0; j < 40; ++j) {
      // Claims at VP locations (exact ties) and anywhere.
      const GeoPoint at =
          j % 2 == 0
              ? s.world().host(vps[gen.index(vps.size())]).reported_location
              : random_point(gen);
      for (const int k : {-1, 0, 1, 3, 7, 1000}) {
        EXPECT_EQ(pool.nearest(at, k),
                  oracle::nearest_vps(s.world(), campaign, at, k))
            << "take=" << take << " k=" << k << " at " << to_string(at);
      }
    }
  }
}

TEST(NearestRanker, TracerouteNearestCityMatchesItsScan) {
  const sim::World world;
  const sim::LatencyModel latency(world);
  const sim::TracerouteEngine tracer(world, latency);
  const auto cities = world.cities();
  ASSERT_GE(cities.size(), 3u);
  util::Pcg32 gen = util::RngStream(23).gen();
  const auto pick = [&] {
    return cities[gen.index(cities.size())];
  };
  for (int j = 0; j < 2000; ++j) {
    // Points on a city (the excluded one, sometimes) and anywhere.
    const sim::PlaceId a = pick(), b = j % 7 == 0 ? a : pick();
    const GeoPoint at = j % 3 == 0   ? world.place(a).location
                        : j % 3 == 1 ? world.place(pick()).location
                                     : random_point(gen);
    EXPECT_EQ(tracer.nearest_city(at, a, b),
              oracle::nearest_city(world, at, a, b))
        << to_string(at);
  }
}

}  // namespace
}  // namespace geoloc::geo
