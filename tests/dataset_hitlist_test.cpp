#include "dataset/hitlist.h"

#include <gtest/gtest.h>

#include "geo/geodesy.h"
#include "test_scenario.h"

namespace geoloc::dataset {
namespace {

using geoloc::testing::small_scenario;

TEST(Hitlist, EveryTargetHasThreeRepresentatives) {
  const auto& s = small_scenario();
  EXPECT_EQ(s.hitlist().size(), s.catalog().anchors.size());
  for (sim::HostId target : s.catalog().anchors) {
    const RepresentativeSet& set = s.hitlist().for_target(target);
    EXPECT_EQ(set.prefix, net::slash24_of(s.world().host(target).addr));
    for (const Representative& r : set.reps) {
      ASSERT_NE(r.host, sim::kInvalidHost);
      EXPECT_EQ(s.world().host(r.host).kind, sim::HostKind::Representative);
      EXPECT_TRUE(set.prefix.contains(s.world().host(r.host).addr));
    }
  }
}

TEST(Hitlist, UnknownTargetThrows) {
  const auto& s = small_scenario();
  EXPECT_THROW(
      static_cast<void>(s.hitlist().for_target(sim::kInvalidHost)),
      std::out_of_range);
}

TEST(Hitlist, MostRepresentativesAreColocated) {
  const auto& s = small_scenario();
  int colocated = 0, total = 0;
  for (sim::HostId target : s.catalog().anchors) {
    const geo::GeoPoint t = s.world().host(target).true_location;
    for (const Representative& r : s.hitlist().for_target(target).reps) {
      ++total;
      if (geo::distance_km(s.world().host(r.host).true_location, t) < 20.0) {
        ++colocated;
      }
    }
  }
  const double rate = static_cast<double>(colocated) / total;
  EXPECT_GT(rate, s.config().hitlist.colocated_rate - 0.08);
  EXPECT_LT(rate, 1.0);  // some stray representatives must exist
}

TEST(Hitlist, StrayRepresentativesAreFar) {
  const auto& s = small_scenario();
  int strays = 0;
  for (sim::HostId target : s.catalog().anchors) {
    const geo::GeoPoint t = s.world().host(target).true_location;
    for (const Representative& r : s.hitlist().for_target(target).reps) {
      const double d =
          geo::distance_km(s.world().host(r.host).true_location, t);
      if (d > 20.0) {
        ++strays;
        EXPECT_GE(d, s.config().hitlist.stray_min_km * 0.9);
      }
    }
  }
  EXPECT_GT(strays, 0);
}

TEST(Hitlist, ResponsiveScoresMatchResponsiveness) {
  const auto& s = small_scenario();
  for (sim::HostId target : s.catalog().anchors) {
    for (const Representative& r : s.hitlist().for_target(target).reps) {
      if (r.from_hitlist && r.responsiveness_score > 0) {
        EXPECT_TRUE(s.world().host(r.host).responsive);
      }
    }
  }
}

TEST(Hitlist, ToppedUpTargetsHaveFillIns) {
  // Build a hitlist with a low responsive rate to force fill-ins, exactly
  // the paper's 8-targets-with-fewer-than-three-responsive case.
  sim::World world;
  auto gen = world.rng().fork("hitlist-test").gen();
  const net::Asn as = world.create_as(sim::AsCategory::Content, 0);
  std::vector<sim::HostId> targets;
  for (int i = 0; i < 40; ++i) {
    sim::Host h;
    h.kind = sim::HostKind::Anchor;
    h.asn = as;
    h.place = world.cities()[gen.index(world.cities().size())];
    h.true_location = world.sample_location(h.place, 4.0, gen);
    h.reported_location = h.true_location;
    h.addr = world.allocate_site_prefix(as).address_at(1);
    targets.push_back(world.add_host(h));
  }
  HitlistConfig cfg;
  cfg.responsive_rate = 0.5;  // force many unresponsive representatives
  const Hitlist hitlist = Hitlist::build(world, targets, cfg);
  EXPECT_GT(hitlist.topped_up_targets().size(), 5u);
  for (sim::HostId t : hitlist.topped_up_targets()) {
    int fill_ins = 0;
    for (const Representative& r : hitlist.for_target(t).reps) {
      fill_ins += r.from_hitlist ? 0 : 1;
    }
    EXPECT_GT(fill_ins, 0);
  }
}

TEST(Hitlist, FillInAddressesDoNotCollide) {
  sim::World world;
  const net::Asn as = world.create_as(sim::AsCategory::Content, 0);
  std::vector<sim::HostId> targets;
  for (int i = 0; i < 60; ++i) {
    sim::Host h;
    h.kind = sim::HostKind::Anchor;
    h.asn = as;
    h.place = world.cities()[0];
    h.true_location = world.place(h.place).location;
    h.reported_location = h.true_location;
    h.addr = world.allocate_site_prefix(as).address_at(1);
    targets.push_back(world.add_host(h));
  }
  HitlistConfig cfg;
  cfg.responsive_rate = 0.0;  // every representative becomes a fill-in
  const Hitlist hitlist = Hitlist::build(world, targets, cfg);
  for (sim::HostId t : targets) {
    const auto& reps = hitlist.for_target(t).reps;
    EXPECT_NE(world.host(reps[0].host).addr, world.host(reps[1].host).addr);
    EXPECT_NE(world.host(reps[1].host).addr, world.host(reps[2].host).addr);
    EXPECT_NE(world.host(reps[0].host).addr, world.host(reps[2].host).addr);
  }
}

}  // namespace
}  // namespace geoloc::dataset
