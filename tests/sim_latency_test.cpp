// Latency-model unit tests plus the SOI-safety property sweep — the
// cornerstone invariant of the whole reproduction: no measurement may beat
// the speed of Internet with respect to *true* host locations.
#include "sim/latency_model.h"

#include <gtest/gtest.h>

#include <vector>

#include "geo/constants.h"
#include "geo/geodesy.h"
#include "sim/world.h"
#include "util/rng.h"

namespace geoloc::sim {
namespace {

class LatencyTest : public ::testing::Test {
 protected:
  LatencyTest() : latency_(world_) {
    auto gen = world_.rng().fork("latency-test").gen();
    // A spread of hosts across random places, mixed classes.
    for (int i = 0; i < 60; ++i) {
      Host h;
      h.addr = net::IPv4Address{static_cast<std::uint32_t>(0x0A000000 + i)};
      h.kind = i % 2 == 0 ? HostKind::Probe : HostKind::Anchor;
      h.place = world_.cities()[gen.index(world_.cities().size())];
      h.true_location = world_.sample_location(h.place, 5.0, gen);
      h.reported_location = h.true_location;
      h.last_mile_ms = gen.uniform(0.1, 3.0);
      hosts_.push_back(world_.add_host(h));
    }
  }

  World world_;
  LatencyModel latency_;
  std::vector<HostId> hosts_;
};

TEST_F(LatencyTest, BaseRttIsSymmetric) {
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = i + 1; j < 10; ++j) {
      EXPECT_DOUBLE_EQ(latency_.base_rtt_ms(hosts_[i], hosts_[j]),
                       latency_.base_rtt_ms(hosts_[j], hosts_[i]));
    }
  }
}

TEST_F(LatencyTest, BaseRttIsDeterministic) {
  const double a = latency_.base_rtt_ms(hosts_[0], hosts_[1]);
  const double b = latency_.base_rtt_ms(hosts_[0], hosts_[1]);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST_F(LatencyTest, SamplesNeverBelowBase) {
  auto gen = world_.rng().fork("s").gen();
  const double base = latency_.base_rtt_ms(hosts_[0], hosts_[1]);
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(latency_.sample_rtt_ms(hosts_[0], hosts_[1], gen), base);
  }
}

TEST_F(LatencyTest, PairInflationAtLeastFloor) {
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = i + 1; j < 20; ++j) {
      EXPECT_GE(latency_.pair_inflation(hosts_[i], hosts_[j]),
                latency_.config().min_inflation);
    }
  }
}

TEST_F(LatencyTest, MinRttDecreasesWithMorePackets) {
  auto g1 = world_.rng().fork("p1").gen();
  auto g2 = world_.rng().fork("p1").gen();  // same stream
  const auto one = latency_.min_rtt_ms(hosts_[2], hosts_[3], 1, g1);
  // With the same generator state, more packets can only lower the min.
  const auto ten = latency_.min_rtt_ms(hosts_[2], hosts_[3], 10, g2);
  ASSERT_TRUE(one.has_value());
  ASSERT_TRUE(ten.has_value());
  EXPECT_LE(*ten, *one + 1e-12);
}

TEST_F(LatencyTest, UnresponsiveHostReturnsNothing) {
  Host h;
  h.addr = net::IPv4Address{10, 9, 9, 9};
  h.place = world_.cities()[0];
  h.true_location = world_.place(h.place).location;
  h.reported_location = h.true_location;
  h.responsive = false;
  const HostId dead = world_.add_host(h);
  auto gen = world_.rng().fork("d").gen();
  EXPECT_FALSE(latency_.min_rtt_ms(hosts_[0], dead, 3, gen).has_value());
}

TEST_F(LatencyTest, SameCityPairsAreFastDifferentContinentSlow) {
  // Build two hosts in the same city and two far apart, compare.
  auto gen = world_.rng().fork("x").gen();
  Host a, b;
  a.addr = net::IPv4Address{10, 8, 0, 1};
  b.addr = net::IPv4Address{10, 8, 0, 2};
  a.place = b.place = world_.cities()[0];
  a.true_location = world_.sample_location(a.place, 2.0, gen);
  b.true_location = world_.sample_location(b.place, 2.0, gen);
  a.reported_location = a.true_location;
  b.reported_location = b.true_location;
  a.last_mile_ms = b.last_mile_ms = 0.2;
  const HostId ha = world_.add_host(a);
  const HostId hb = world_.add_host(b);
  const double close = latency_.base_rtt_ms(ha, hb);

  double far = 0.0;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const double d = geo::distance_km(world_.host(ha).true_location,
                                      world_.host(hosts_[i]).true_location);
    if (d > 5'000.0) {
      far = latency_.base_rtt_ms(ha, hosts_[i]);
      break;
    }
  }
  if (far > 0.0) {
    EXPECT_GT(far, close);
  }
}

TEST_F(LatencyTest, RouterHopRttIsNoisierThanPing) {
  const HostId router = world_.router_of(world_.host(hosts_[1]).place);
  auto gen = world_.rng().fork("r").gen();
  // Hop RTT varies across measurements (ICMP generation delay),
  // end-to-end base does not.
  const double h1 = latency_.router_hop_rtt_ms(hosts_[0], router, gen);
  const double h2 = latency_.router_hop_rtt_ms(hosts_[0], router, gen);
  EXPECT_NE(h1, h2);
}

TEST_F(LatencyTest, AccessPenaltyRaisesRtt) {
  // Find a poorly connected city without local peering if one exists; its
  // hosts' RTTs must carry the penalty even for nearby pairs.
  ASSERT_FALSE(world_.poorly_connected_cities().empty());
  const PlaceId poor = world_.poorly_connected_cities()[0];
  Host a;
  a.addr = net::IPv4Address{10, 7, 0, 1};
  a.place = poor;
  a.true_location = world_.place(poor).location;
  a.reported_location = a.true_location;
  a.last_mile_ms = 0.1;
  const HostId ha = world_.add_host(a);
  // Compare against a clean host far from `poor` but at the same distance
  // class: the penalty shows up as an RTT floor above the geodesic minimum.
  const double rtt = latency_.base_rtt_ms(ha, hosts_[0]);
  const double d = geo::distance_km(world_.host(ha).true_location,
                                    world_.host(hosts_[0]).true_location);
  const bool same_city = world_.place(world_.host(hosts_[0]).place).parent ==
                         world_.place(poor).parent;
  if (!same_city) {
    EXPECT_GE(rtt, geo::distance_to_min_rtt_ms(d) +
                       world_.access_penalty_ms(poor));
  }
}

// skip_ping_sample leaves the generator exactly where ping_sample_with_base
// leaves it, at any loss rate, packet count and responsiveness: the §4.3
// sanitiser swaps one for the other on pairs that cannot violate.
TEST(LatencySkip, SpendsExactlyThePingsDraws) {
  const World world;
  for (const double loss : {0.0, 0.006, 0.3, 1.0}) {
    LatencyModelConfig lc;
    lc.loss_rate = loss;
    const LatencyModel latency(world, lc);
    for (const int packets : {0, 1, 3, 8}) {
      for (const bool responsive : {true, false}) {
        SCOPED_TRACE(::testing::Message() << "loss=" << loss << " packets="
                                          << packets << " responsive="
                                          << responsive);
        for (std::uint64_t seed = 1; seed <= 256; ++seed) {
          util::Pcg32 pinged{seed};
          util::Pcg32 skipped{seed};
          static_cast<void>(
              latency.ping_sample_with_base(12.5, responsive, packets, pinged));
          latency.skip_ping_sample(responsive, packets, skipped);
          for (int k = 0; k < 8; ++k) ASSERT_EQ(pinged(), skipped());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Property: SOI safety. For random host pairs and repeated samples, the RTT
// never violates the 2/3-c bound w.r.t. true locations.
class SoiProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoiProperty, NoSampleBeatsTheSpeedOfInternet) {
  WorldConfig wc;
  wc.seed = GetParam();
  World world(wc);
  LatencyModel latency(world);
  auto gen = world.rng().fork("soi-prop").gen();

  std::vector<HostId> hosts;
  for (int i = 0; i < 30; ++i) {
    Host h;
    h.addr = net::IPv4Address{static_cast<std::uint32_t>(0x0B000000 + i)};
    h.place = world.cities()[gen.index(world.cities().size())];
    h.true_location = world.sample_location(h.place, 8.0, gen);
    h.reported_location = h.true_location;
    h.last_mile_ms = gen.uniform(0.05, 10.0);
    hosts.push_back(world.add_host(h));
  }

  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (std::size_t j = i + 1; j < hosts.size(); ++j) {
      const double d = geo::distance_km(world.host(hosts[i]).true_location,
                                        world.host(hosts[j]).true_location);
      const auto rtt = latency.min_rtt_ms(hosts[i], hosts[j], 3, gen);
      ASSERT_TRUE(rtt.has_value());
      EXPECT_FALSE(geo::violates_soi(*rtt, d))
          << "pair " << i << "," << j << " rtt=" << *rtt << " d=" << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoiProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace geoloc::sim
