#include "eval/street_campaign.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <vector>

#include "scenario/presets.h"
#include "sim/churn.h"
#include "test_scenario.h"
#include "util/stats.h"

namespace geoloc::eval {
namespace {

using geoloc::testing::small_scenario;

const StreetCampaign& campaign() { return street_campaign(small_scenario()); }

TEST(StreetCampaign, OneRecordPerTarget) {
  EXPECT_EQ(campaign().records.size(), small_scenario().targets().size());
}

TEST(StreetCampaign, ProcessCacheReturnsSameObject) {
  EXPECT_EQ(&street_campaign(small_scenario()), &campaign());
}

TEST(StreetCampaign, ErrorsAreFiniteAndBounded) {
  for (const StreetRecord& r : campaign().records) {
    EXPECT_GE(r.street_error_km, 0.0F);
    EXPECT_LT(r.street_error_km, 20'000.0F);
    EXPECT_GE(r.elapsed_seconds, 0.0F);
  }
}

TEST(StreetCampaign, StreetTracksCbg) {
  // Figure 5a's headline: street level ~ CBG, not two orders better.
  std::vector<double> street, cbg;
  for (const StreetRecord& r : campaign().records) {
    street.push_back(r.street_error_km);
    if (r.cbg_error_km >= 0) cbg.push_back(r.cbg_error_km);
  }
  const double ms = util::median(street);
  const double mc = util::median(cbg);
  EXPECT_LT(ms, mc * 4.0);
  EXPECT_GT(ms, mc / 4.0);
  EXPECT_GT(ms, 1.0);  // nowhere near the original paper's 690 m
}

TEST(StreetCampaign, OracleIsTheLowerBound) {
  std::vector<double> street, oracle;
  for (const StreetRecord& r : campaign().records) {
    if (r.oracle_error_km < 0) continue;
    street.push_back(r.street_error_km);
    oracle.push_back(r.oracle_error_km);
  }
  EXPECT_LT(util::median(oracle), util::median(street));
}

TEST(StreetCampaign, NegativeFractionsAreFractions) {
  int measured = 0;
  for (const StreetRecord& r : campaign().records) {
    if (r.negative_fraction < 0) continue;
    ++measured;
    EXPECT_LE(r.negative_fraction, 1.0F);
  }
  EXPECT_GT(measured, static_cast<int>(campaign().records.size() / 2));
}

TEST(StreetCampaign, DistancePairsAreUsableLandmarks) {
  for (const StreetRecord& r : campaign().records) {
    for (const auto& [geo_km, meas_km] : r.distances) {
      EXPECT_GE(geo_km, 0.0F);
      EXPECT_GE(meas_km, 0.0F);
    }
  }
}

TEST(StreetCampaign, PearsonIsWeak) {
  // Section 5.2.3: the measured/geographic distance correlation is ~0.08.
  std::vector<double> pearson;
  for (const StreetRecord& r : campaign().records) {
    if (r.landmarks_measured >= 2) pearson.push_back(r.pearson);
  }
  ASSERT_GT(pearson.size(), 20u);
  EXPECT_LT(util::median(pearson), 0.4);
}

TEST(StreetCampaign, NearestCheckedNeverCloserThanNearest) {
  for (const StreetRecord& r : campaign().records) {
    if (r.nearest_checked_landmark_km < 0) continue;
    ASSERT_GE(r.nearest_landmark_km, 0.0F);
    EXPECT_GE(r.nearest_checked_landmark_km, r.nearest_landmark_km);
  }
}

TEST(StreetCampaign, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "street-campaign-test.bin";
  ASSERT_TRUE(campaign().save(path, /*tag=*/99));
  StreetCampaign loaded;
  ASSERT_TRUE(loaded.load(path, 99));
  ASSERT_EQ(loaded.records.size(), campaign().records.size());
  for (std::size_t i = 0; i < loaded.records.size(); ++i) {
    EXPECT_EQ(loaded.records[i].street_error_km,
              campaign().records[i].street_error_km);
    EXPECT_EQ(loaded.records[i].distances, campaign().records[i].distances);
    EXPECT_EQ(loaded.records[i].tier_reached,
              campaign().records[i].tier_reached);
  }
  StreetCampaign wrong;
  EXPECT_FALSE(wrong.load(path, 98));
  std::remove(path.c_str());
}

TEST(StreetCampaign, ChurnedScenarioNeitherReadsNorWritesDiskCache) {
  // invalidate_rtt_matrices() detaches a mutated world from the
  // config-keyed disk cache, GEOLOC_CACHE_DIR included; the street
  // campaign must honour that like the RTT matrices do.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "street-campaign-churned-cache";
  fs::remove_all(dir);
  auto cfg = scenario::small_config(/*seed=*/4711);
  cfg.catalog.anchor_quota = {/*af=*/1, /*as=*/4, /*eu=*/10, /*na=*/4,
                              /*oc=*/1, /*sa=*/1};
  cfg.cache_dir = "";
  scenario::Scenario s(cfg);
  s.invalidate_rtt_matrices();

  ASSERT_EQ(::setenv("GEOLOC_CACHE_DIR", dir.c_str(), 1), 0);
  const StreetCampaign& c = street_campaign(s);
  ASSERT_EQ(::unsetenv("GEOLOC_CACHE_DIR"), 0);

  EXPECT_EQ(c.records.size(), s.targets().size());
  if (fs::exists(dir)) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      EXPECT_NE(entry.path().filename().string().rfind("street-campaign-", 0),
                0u)
          << entry.path();
    }
  }
  fs::remove_all(dir);
}

TEST(StreetCampaign, ChurnedScenarioOwnsItsCampaignInProcess) {
  // The in-process memo is keyed by config fingerprint, which churn does
  // not change: in a process that already holds the unchurned world's
  // campaign, a churned scenario with the same config must still get a
  // campaign of its own world.
  auto cfg = scenario::small_config(/*seed=*/4711);
  cfg.catalog.anchor_quota = {/*af=*/1, /*as=*/4, /*eu=*/10, /*na=*/4,
                              /*oc=*/1, /*sa=*/1};
  cfg.cache_dir = "";
  sim::ChurnConfig cc;
  cc.prefix_reassignment_rate = 0.5;
  cc.host_relocation_rate = 0.5;
  const auto churned = [&] {
    auto s = std::make_unique<scenario::Scenario>(cfg);
    sim::ChurnModel churn(s->world(), s->targets(), s->vps(), cc);
    (void)churn.advance(1);
    s->invalidate_rtt_matrices();
    return s;
  };
  const auto errors = [](const StreetCampaign& c) {
    std::vector<float> out;
    for (const StreetRecord& r : c.records) out.push_back(r.street_error_km);
    return out;
  };

  const scenario::Scenario calm(cfg);
  const StreetCampaign& calm_campaign = street_campaign(calm);
  const auto moved = churned();
  const StreetCampaign& moved_campaign = street_campaign(*moved);

  EXPECT_NE(&moved_campaign, &calm_campaign);
  EXPECT_EQ(&street_campaign(*moved), &moved_campaign);
  EXPECT_EQ(&street_campaign(calm), &calm_campaign);
  EXPECT_NE(errors(moved_campaign), errors(calm_campaign));

  // A twin churned the same way computes the same campaign, on its own.
  const auto twin = churned();
  const StreetCampaign& twin_campaign = street_campaign(*twin);
  EXPECT_NE(&twin_campaign, &moved_campaign);
  EXPECT_EQ(errors(twin_campaign), errors(moved_campaign));
}

}  // namespace
}  // namespace geoloc::eval
