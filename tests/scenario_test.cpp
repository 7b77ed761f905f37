// Integration tests of the assembled scenario and its measurement matrices.
#include "scenario/scenario.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "geo/constants.h"
#include "geo/geodesy.h"
#include "scenario/presets.h"
#include "test_scenario.h"

namespace geoloc::scenario {
namespace {

using geoloc::testing::small_scenario;
using geoloc::testing::small_scenario_alt_seed;

TEST(Scenario, SanitisedSetsHaveExpectedSizes) {
  const auto& s = small_scenario();
  const auto& cfg = s.config().catalog;
  EXPECT_EQ(s.targets().size(),
            static_cast<std::size_t>(cfg.anchor_quota.total()));
  EXPECT_EQ(s.vps().size(),
            s.targets().size() + static_cast<std::size_t>(cfg.probes_kept));
}

TEST(Scenario, AnchorsComeFirstInVpSet) {
  const auto& s = small_scenario();
  for (std::size_t i = 0; i < s.targets().size(); ++i) {
    EXPECT_EQ(s.vps()[i], s.targets()[i]);
  }
}

TEST(Scenario, IndexLookupsRoundTrip) {
  const auto& s = small_scenario();
  EXPECT_EQ(s.vp_index(s.vps()[5]), 5u);
  EXPECT_EQ(s.target_index(s.targets()[7]), 7u);
  EXPECT_THROW(static_cast<void>(s.vp_index(sim::kInvalidHost)),
               std::out_of_range);
}

TEST(Scenario, TargetRttMatrixShapeAndContent) {
  const auto& s = small_scenario();
  const RttMatrix& m = s.target_rtts();
  EXPECT_EQ(m.rows(), s.vps().size());
  EXPECT_EQ(m.cols(), s.targets().size());
  std::size_t present = 0;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      const float v = m.at(r, c);
      if (!RttMatrix::is_missing(v)) {
        EXPECT_GT(v, 0.0F);
        EXPECT_LT(v, 1'000.0F);
        ++present;
      }
    }
  }
  // Targets are responsive anchors: nearly every measurement succeeds.
  EXPECT_GT(static_cast<double>(present) / (m.rows() * m.cols()), 0.999);
}

TEST(Scenario, TargetRttsRespectSoi) {
  const auto& s = small_scenario();
  const RttMatrix& m = s.target_rtts();
  for (std::size_t r = 0; r < m.rows(); r += 37) {
    for (std::size_t c = 0; c < m.cols(); c += 11) {
      const float v = m.at(r, c);
      if (RttMatrix::is_missing(v)) continue;
      const double d =
          geo::distance_km(s.world().host(s.vps()[r]).true_location,
                           s.world().host(s.targets()[c]).true_location);
      EXPECT_FALSE(geo::violates_soi(v, d)) << "r=" << r << " c=" << c;
    }
  }
}

TEST(Scenario, RepresentativeRttsCorrelateWithTargetRtts) {
  // Representatives are mostly colocated with their target, so the two
  // campaigns must broadly agree for any given VP.
  const auto& s = small_scenario();
  const RttMatrix& t = s.target_rtts();
  const RttMatrix& rep = s.representative_rtts();
  ASSERT_EQ(rep.rows(), t.rows());
  ASSERT_EQ(rep.cols(), t.cols());
  int close = 0, total = 0;
  for (std::size_t r = 0; r < t.rows(); r += 17) {
    for (std::size_t c = 0; c < t.cols(); c += 7) {
      if (RttMatrix::is_missing(t.at(r, c)) ||
          RttMatrix::is_missing(rep.at(r, c))) {
        continue;
      }
      ++total;
      close += std::abs(t.at(r, c) - rep.at(r, c)) <
               0.5F * std::max(t.at(r, c), rep.at(r, c)) + 3.0F;
    }
  }
  ASSERT_GT(total, 100);
  EXPECT_GT(static_cast<double>(close) / total, 0.8);
}

TEST(Scenario, FingerprintDistinguishesConfigs) {
  auto a = scenario::small_config();
  auto b = scenario::small_config();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.seed = 999;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  auto c = scenario::small_config();
  c.latency.overhead_mean_ms += 0.1;
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  auto d = scenario::small_config();
  d.world.poorly_connected_city_prob[2] += 0.01;
  EXPECT_NE(a.fingerprint(), d.fingerprint());
}

TEST(Scenario, DifferentSeedsProduceDifferentWorlds) {
  const auto& a = small_scenario();
  const auto& b = small_scenario_alt_seed();
  ASSERT_EQ(a.targets().size(), b.targets().size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.targets().size() && !any_diff; ++i) {
    any_diff = !(a.world().host(a.targets()[i]).true_location ==
                 b.world().host(b.targets()[i]).true_location);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Scenario, WithoutWebThrowsOnWebAccess) {
  auto cfg = scenario::small_config(/*seed=*/3);
  cfg.cache_dir = "";
  const Scenario s = Scenario::without_web(cfg);
  EXPECT_FALSE(s.has_web());
  EXPECT_THROW(static_cast<void>(s.web()), std::logic_error);
}

TEST(Scenario, PopulationGridIsLazilyAvailable) {
  const auto& s = small_scenario();
  EXPECT_GT(s.population().density_per_km2(
                s.world().host(s.targets()[0]).true_location),
            0.0);
}

TEST(RttMatrixIo, SaveLoadRoundTrip) {
  RttMatrix m(3, 2);
  m.set(0, 0, 1.5F);
  m.set(2, 1, 42.0F);
  const std::string path = ::testing::TempDir() + "geoloc-rtt-test.bin";
  ASSERT_TRUE(m.save(path, /*tag=*/7));
  RttMatrix loaded;
  ASSERT_TRUE(loaded.load(path, 7));
  EXPECT_EQ(loaded.rows(), 3u);
  EXPECT_EQ(loaded.cols(), 2u);
  EXPECT_FLOAT_EQ(loaded.at(0, 0), 1.5F);
  EXPECT_FLOAT_EQ(loaded.at(2, 1), 42.0F);
  EXPECT_TRUE(RttMatrix::is_missing(loaded.at(1, 1)));
  // A wrong tag must refuse to load.
  RttMatrix wrong;
  EXPECT_FALSE(wrong.load(path, 8));
  std::remove(path.c_str());
}

TEST(RttMatrixIo, MissingFileFailsGracefully) {
  RttMatrix m;
  EXPECT_FALSE(m.load("/nonexistent/geoloc.bin", 1));
}

TEST(Scenario, DiskCacheReproducesMatrices) {
  const std::string dir = ::testing::TempDir() + "geoloc-cache-test";
  std::filesystem::remove_all(dir);
  auto cfg = scenario::small_config(/*seed=*/11);
  cfg.cache_dir = dir;

  const Scenario first(cfg);
  const float v = first.target_rtts().at(3, 3);

  const Scenario second(cfg);  // loads from cache
  EXPECT_EQ(second.target_rtts().at(3, 3), v);
  EXPECT_FALSE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(Presets, PaperConfigMatchesPaperNumbers) {
  const auto cfg = scenario::paper_config();
  EXPECT_EQ(cfg.catalog.anchor_quota.total(), 723);
  EXPECT_EQ(cfg.catalog.anchors_misgeolocated, 9);
  EXPECT_EQ(cfg.catalog.probes_kept, 10'000);
  EXPECT_EQ(cfg.catalog.probes_misgeolocated, 96);
  EXPECT_EQ(cfg.catalog.anchor_as_pool, 561);
}

}  // namespace
}  // namespace geoloc::scenario
