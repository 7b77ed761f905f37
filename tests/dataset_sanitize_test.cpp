// Tests of the Section 4.3 sanitiser: the speed-of-Internet mesh filter
// must remove exactly the misgeolocated hosts and nothing else.
#include "dataset/sanitize.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <unordered_set>

#include "dataset/catalog.h"
#include "oracles/sanitize_reference.h"
#include "test_scenario.h"
#include "util/parallel.h"

namespace geoloc::dataset {
namespace {

using geoloc::testing::small_scenario;

TEST(SanitizeAnchors, RemovesExactlyTheMisgeolocated) {
  const auto& s = small_scenario();
  const auto& result = s.anchor_sanitisation();
  EXPECT_EQ(result.removed.size(),
            static_cast<std::size_t>(s.config().catalog.anchors_misgeolocated));
  for (sim::HostId id : result.removed) {
    EXPECT_TRUE(s.world().host(id).misgeolocated)
        << "sanitiser removed a correctly geolocated anchor";
  }
  for (sim::HostId id : result.kept) {
    EXPECT_FALSE(s.world().host(id).misgeolocated);
  }
}

TEST(SanitizeProbes, RemovesExactlyTheMisgeolocated) {
  const auto& s = small_scenario();
  const auto& result = s.probe_sanitisation();
  EXPECT_EQ(result.removed.size(),
            static_cast<std::size_t>(s.config().catalog.probes_misgeolocated));
  for (sim::HostId id : result.removed) {
    EXPECT_TRUE(s.world().host(id).misgeolocated);
  }
}

TEST(Sanitize, KeptPlusRemovedIsInput) {
  const auto& s = small_scenario();
  const auto& r = s.anchor_sanitisation();
  std::unordered_set<sim::HostId> all(r.kept.begin(), r.kept.end());
  all.insert(r.removed.begin(), r.removed.end());
  EXPECT_EQ(all.size(), s.catalog().anchors.size());
}

TEST(Sanitize, ViolationsWereObserved) {
  const auto& s = small_scenario();
  EXPECT_GT(s.anchor_sanitisation().violating_pairs, 0u);
  EXPECT_GT(s.probe_sanitisation().violating_pairs, 0u);
}

TEST(Sanitize, CleanInputIsUntouched) {
  // A catalogue without misgeolocations must survive unharmed.
  auto cfg = scenario::small_config(/*seed=*/55);
  cfg.cache_dir = "";
  cfg.catalog.anchors_misgeolocated = 0;
  cfg.catalog.probes_misgeolocated = 0;
  cfg.build_web = false;
  const scenario::Scenario s = scenario::Scenario::without_web(cfg);
  EXPECT_TRUE(s.anchor_sanitisation().removed.empty());
  EXPECT_TRUE(s.probe_sanitisation().removed.empty());
  EXPECT_EQ(s.anchor_sanitisation().violating_pairs, 0u);
}

TEST(Sanitize, StricterSoiRemovesMore) {
  // With an unphysically low assumed speed, even honest pairs violate.
  const auto& s = small_scenario();
  SanitizeConfig strict;
  strict.soi_km_per_ms = 10.0;  // absurd: 10 km/ms
  const auto result =
      sanitize_anchors(s.latency(), s.catalog().anchors, strict);
  EXPECT_GT(result.removed.size(),
            static_cast<std::size_t>(s.config().catalog.anchors_misgeolocated));
}

TEST(Sanitize, IterativeRemovalIsDeterministic) {
  const auto& s = small_scenario();
  const auto r1 = sanitize_anchors(s.latency(), s.catalog().anchors);
  const auto r2 = sanitize_anchors(s.latency(), s.catalog().anchors);
  EXPECT_EQ(r1.removed, r2.removed);
  EXPECT_EQ(r1.kept, r2.kept);
}

// The blocked pair sweep against the serial loops it replaced
// (tests/oracles/sanitize_reference.h): same kept, removed and
// violating_pairs at one and four workers.
struct ReferenceCase {
  std::string name;
  std::uint64_t seed;
  bool misgeolocated;  ///< false: a catalogue with no misgeolocation
  double soi_km_per_ms;  ///< 0 = 2/3 c
  std::size_t decommission_every;  ///< > 0: every n-th anchor unresponsive
  bool noisy = false;  ///< heavy jitter and loss: draws decide many pairs
};

// Test names (and ctest's "GetParam() = ..." suffix) show the case name,
// not the struct's bytes.
void PrintTo(const ReferenceCase& c, std::ostream* os) { *os << c.name; }

class SanitizeReference : public ::testing::TestWithParam<ReferenceCase> {};

void expect_same(const SanitizeResult& got, const SanitizeResult& want) {
  EXPECT_EQ(got.kept, want.kept);
  EXPECT_EQ(got.removed, want.removed);
  EXPECT_EQ(got.violating_pairs, want.violating_pairs);
}

TEST_P(SanitizeReference, MatchesSerialLoopsAtOneAndFourThreads) {
  const ReferenceCase& c = GetParam();
  auto cfg = scenario::small_config(c.seed);
  if (!c.misgeolocated) {
    cfg.catalog.anchors_misgeolocated = 0;
    cfg.catalog.probes_misgeolocated = 0;
  }
  // The world as Scenario::build makes it, but mutable, so anchors can be
  // decommissioned the way churn does it.
  sim::WorldConfig wc = cfg.world;
  wc.seed = cfg.seed;
  sim::World world(wc);
  const Catalog catalog = build_catalog(world, cfg.catalog);
  const auto& anchors = catalog.anchors;
  const auto& probes = catalog.probes;
  if (c.decommission_every > 0) {
    for (std::size_t k = 0; k < anchors.size(); k += c.decommission_every) {
      world.set_responsive(anchors[k], false);
    }
  }
  sim::LatencyModelConfig lc = cfg.latency;
  if (c.noisy) {
    lc.jitter_mean_ms = 5.0;
    lc.loss_rate = 0.3;
  }
  const sim::LatencyModel latency(world, lc);
  SanitizeConfig sc;
  sc.ping_packets = cfg.ping_packets;
  sc.soi_km_per_ms = c.soi_km_per_ms;

  const SanitizeResult want_anchors =
      oracle::sanitize_anchors_reference(latency, anchors, sc);
  const SanitizeResult want_probes = oracle::sanitize_probes_reference(
      latency, probes, want_anchors.kept, sc);
  if (c.soi_km_per_ms > 0.0) {
    EXPECT_GT(want_anchors.removed.size(),
              static_cast<std::size_t>(cfg.catalog.anchors_misgeolocated));
  } else if (c.misgeolocated) {
    EXPECT_GT(want_probes.violating_pairs, 0u);
  } else {
    EXPECT_EQ(want_anchors.violating_pairs, 0u);
  }
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::set_thread_count(threads);
    const SanitizeResult got_anchors = sanitize_anchors(latency, anchors, sc);
    expect_same(got_anchors, want_anchors);
    expect_same(sanitize_probes(latency, probes, got_anchors.kept, sc),
                want_probes);
  }
  util::set_thread_count(0);
}

// With the default latency model a pair's verdict hardly depends on its
// jitter and loss draws (the minimum of three packets sits ~0.04 ms above
// the base RTT), so a reordered generator can leave kept/removed intact.
// The noisy cases make the draws decide many verdicts; soi 150 km/ms puts
// honest pairs near the bound too.
INSTANTIATE_TEST_SUITE_P(
    Cases, SanitizeReference,
    ::testing::Values(ReferenceCase{"seed1", 1, true, 0.0, 0},
                      ReferenceCase{"seed2", 2, true, 0.0, 0},
                      ReferenceCase{"seed3", 3, true, 0.0, 0},
                      ReferenceCase{"seed55_clean", 55, false, 0.0, 0},
                      ReferenceCase{"seed1_soi10", 1, true, 10.0, 0},
                      ReferenceCase{"seed1_soi150", 1, true, 150.0, 0},
                      ReferenceCase{"seed2_decommissioned", 2, true, 0.0, 7},
                      ReferenceCase{"seed1_noisy", 1, true, 0.0, 0, true},
                      ReferenceCase{"seed3_noisy_soi150", 3, true, 150.0, 7,
                                    true}),
    [](const ::testing::TestParamInfo<ReferenceCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace geoloc::dataset
