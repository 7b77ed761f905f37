// The churn model's contract: deterministic replay (the longitudinal
// driver re-derives the world on resume instead of persisting it), rate
// knobs that do what they say, VP pool bookkeeping, and drift that moves
// reported locations while the ground truth stays put.
#include "sim/churn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "geo/geodesy.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"

namespace geoloc::sim {
namespace {

scenario::Scenario fresh_scenario(std::uint64_t seed = 42) {
  auto cfg = scenario::small_config(seed);
  cfg.cache_dir = "";
  return scenario::Scenario(cfg);
}

/// World state digest the replay test compares: every target's true and
/// reported location plus responsiveness.
std::vector<double> world_digest(const scenario::Scenario& s) {
  std::vector<double> out;
  for (const Host& h : s.world().hosts()) {
    out.push_back(h.true_location.lat_deg);
    out.push_back(h.true_location.lon_deg);
    out.push_back(h.reported_location.lat_deg);
    out.push_back(h.reported_location.lon_deg);
    out.push_back(h.responsive ? 1.0 : 0.0);
  }
  return out;
}

TEST(ChurnModel, ReplayReproducesWorldAndSummaries) {
  ChurnConfig cc;
  cc.prefix_reassignment_rate = 0.08;
  cc.vp_decommission_rate = 0.05;
  cc.vp_addition_rate = 0.05;
  cc.drift_onset_rate = 0.05;

  auto s1 = fresh_scenario();
  auto s2 = fresh_scenario();
  ChurnModel m1(s1.world(), s1.targets(), s1.vps(), cc);
  ChurnModel m2(s2.world(), s2.targets(), s2.vps(), cc);

  for (std::uint64_t e = 1; e <= 4; ++e) {
    const EpochChurnSummary a = m1.advance(e);
    const EpochChurnSummary b = m2.advance(e);
    EXPECT_EQ(a.prefixes_reassigned, b.prefixes_reassigned) << "epoch " << e;
    EXPECT_EQ(a.hosts_relocated, b.hosts_relocated);
    EXPECT_EQ(a.vps_decommissioned, b.vps_decommissioned);
    EXPECT_EQ(a.vps_added, b.vps_added);
    EXPECT_EQ(a.vps_drifting, b.vps_drifting);
    ASSERT_EQ(a.moved_prefixes.size(), b.moved_prefixes.size());
    for (std::size_t i = 0; i < a.moved_prefixes.size(); ++i) {
      EXPECT_EQ(a.moved_prefixes[i], b.moved_prefixes[i]);
    }
  }
  EXPECT_EQ(world_digest(s1), world_digest(s2));
  ASSERT_EQ(m1.active_vps().size(), m2.active_vps().size());
  EXPECT_TRUE(std::equal(m1.active_vps().begin(), m1.active_vps().end(),
                         m2.active_vps().begin()));
}

TEST(ChurnModel, MovedPrefixesAreSortedAndFromTheUniverse) {
  ChurnConfig cc;
  cc.prefix_reassignment_rate = 0.15;
  auto s = fresh_scenario();
  ChurnModel m(s.world(), s.targets(), s.vps(), cc);
  const auto universe = m.prefix_universe();
  ASSERT_FALSE(universe.empty());
  EXPECT_TRUE(std::is_sorted(universe.begin(), universe.end()));

  std::size_t total_moved = 0;
  for (std::uint64_t e = 1; e <= 3; ++e) {
    const EpochChurnSummary sum = m.advance(e);
    EXPECT_TRUE(std::is_sorted(sum.moved_prefixes.begin(),
                               sum.moved_prefixes.end()));
    for (const net::Prefix& p : sum.moved_prefixes) {
      EXPECT_TRUE(std::binary_search(universe.begin(), universe.end(), p));
    }
    total_moved += sum.moved_prefixes.size();
  }
  // 15% onset over three epochs (plus waves) must move something.
  EXPECT_GT(total_moved, 0u);
}

TEST(ChurnModel, ReassignmentMovesEveryHostOfThePrefixTogether) {
  ChurnConfig cc;
  cc.prefix_reassignment_rate = 0.3;
  cc.host_relocation_rate = 0.0;  // isolate the prefix process
  auto s = fresh_scenario();
  ChurnModel m(s.world(), s.targets(), s.vps(), cc);
  const EpochChurnSummary sum = m.advance(1);
  ASSERT_FALSE(sum.moved_prefixes.empty());
  for (const net::Prefix& p : sum.moved_prefixes) {
    // All hosts inside a moved /24 now share one place (the new tenant's
    // city) — anchor and representatives moved as a block.
    bool seen = false;
    PlaceId place = 0;
    for (const Host& h : s.world().hosts()) {
      if (!p.contains(h.addr) || h.kind == HostKind::Router) continue;
      if (!seen) {
        seen = true;
        place = h.place;
      } else {
        EXPECT_EQ(h.place, place) << p.network().value();
      }
    }
  }
}

TEST(ChurnModel, DecommissionShrinksPoolAndSilencesHosts) {
  ChurnConfig cc;
  cc.vp_decommission_rate = 0.25;
  cc.vp_addition_rate = 0.0;
  auto s = fresh_scenario();
  ChurnModel m(s.world(), s.targets(), s.vps(), cc);
  const std::vector<HostId> pool_before(m.active_vps().begin(),
                                        m.active_vps().end());
  const EpochChurnSummary sum = m.advance(1);
  EXPECT_GT(sum.vps_decommissioned, 0u);
  EXPECT_EQ(m.active_vps().size(),
            pool_before.size() - sum.vps_decommissioned);
  // Decommissioned VPs (probes *and* anchors) stopped answering for good.
  std::size_t silent = 0;
  for (const HostId vp : pool_before) {
    if (!s.world().host(vp).responsive) ++silent;
  }
  EXPECT_GE(silent, sum.vps_decommissioned);
}

TEST(ChurnModel, AdditionsJoinThePoolAsLiveProbes) {
  ChurnConfig cc;
  cc.vp_decommission_rate = 0.0;
  cc.vp_addition_rate = 0.1;
  auto s = fresh_scenario();
  const std::size_t hosts_before = s.world().hosts().size();
  ChurnModel m(s.world(), s.targets(), s.vps(), cc);
  const std::size_t pool_before = m.active_vps().size();
  const EpochChurnSummary sum = m.advance(1);
  EXPECT_GT(sum.vps_added, 0u);
  EXPECT_EQ(m.active_vps().size(), pool_before + sum.vps_added);
  EXPECT_GT(s.world().hosts().size(), hosts_before);
  for (std::size_t i = pool_before; i < m.active_vps().size(); ++i) {
    const Host& h = s.world().host(m.active_vps()[i]);
    EXPECT_EQ(h.kind, HostKind::Probe);
    EXPECT_TRUE(h.responsive);
    EXPECT_TRUE(s.world().bgp_lookup(h.addr).has_value());
  }
}

TEST(ChurnModel, DriftMovesReportedLocationOnly) {
  ChurnConfig cc;
  cc.prefix_reassignment_rate = 0.0;
  cc.host_relocation_rate = 0.0;
  cc.vp_decommission_rate = 0.0;
  cc.vp_addition_rate = 0.0;
  cc.drift_onset_rate = 1.0;  // everyone starts drifting at epoch 1
  cc.drift_step_km = 25.0;
  auto s = fresh_scenario();
  ChurnModel m(s.world(), s.targets(), s.vps(), cc);

  std::vector<geo::GeoPoint> true_before;
  for (const HostId vp : m.active_vps()) {
    true_before.push_back(s.world().host(vp).true_location);
  }
  const EpochChurnSummary e1 = m.advance(1);
  EXPECT_EQ(e1.vps_drifting, m.active_vps().size());
  for (std::size_t i = 0; i < m.active_vps().size(); ++i) {
    const Host& h = s.world().host(m.active_vps()[i]);
    EXPECT_NEAR(geo::distance_km(h.true_location, true_before[i]), 0.0, 1e-9);
    EXPECT_NEAR(geo::distance_km(h.reported_location, h.true_location), 25.0,
                1.0);
  }
  // Drift accumulates along the per-VP bearing: two epochs ~ two steps.
  (void)m.advance(2);
  const Host& h = s.world().host(m.active_vps()[0]);
  EXPECT_NEAR(geo::distance_km(h.reported_location, h.true_location), 50.0,
              2.0);
}

}  // namespace
}  // namespace geoloc::sim
