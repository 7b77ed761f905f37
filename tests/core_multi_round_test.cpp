#include "core/multi_round.h"

#include <gtest/gtest.h>

#include "core/million_scale.h"
#include "test_scenario.h"
#include "util/stats.h"

namespace geoloc::core {
namespace {

using geoloc::testing::small_scenario;

TEST(MultiRound, ConfigClampsToTwoRounds) {
  MultiRoundConfig cfg;
  cfg.rounds = 0;
  const MultiRoundSelector selector(small_scenario(), cfg);
  EXPECT_EQ(selector.config().rounds, 2);
}

TEST(MultiRound, RunsAndAccountsEveryRound) {
  MultiRoundConfig cfg;
  cfg.rounds = 3;
  cfg.first_round_size = 40;
  const MultiRoundSelector selector(small_scenario(), cfg);
  const MultiRoundOutcome o = selector.run(0);
  ASSERT_TRUE(o.ok);
  EXPECT_EQ(o.rounds_executed, 3);
  EXPECT_EQ(o.candidates_per_round.size(), 3u);
  EXPECT_DOUBLE_EQ(o.elapsed_seconds, 3 * cfg.api_round_seconds);
  EXPECT_GT(o.total_pings, 0u);
}

TEST(MultiRound, CandidateSetsShrink) {
  MultiRoundConfig cfg;
  cfg.rounds = 4;
  cfg.first_round_size = 60;
  const MultiRoundSelector selector(small_scenario(), cfg);
  const MultiRoundOutcome o = selector.run(1);
  ASSERT_TRUE(o.ok);
  for (std::size_t i = 1; i < o.candidates_per_round.size(); ++i) {
    EXPECT_LE(o.candidates_per_round[i], cfg.first_round_size);
  }
}

TEST(MultiRound, NeverPicksTheTarget) {
  MultiRoundConfig cfg;
  cfg.first_round_size = 40;
  const MultiRoundSelector selector(small_scenario(), cfg);
  const auto& s = small_scenario();
  for (std::size_t col = 0; col < 20; ++col) {
    const MultiRoundOutcome o = selector.run(col);
    if (o.ok) {
      EXPECT_NE(s.vps()[o.chosen_row], s.targets()[col]);
    }
  }
}

TEST(MultiRound, AccuracyComparableToTwoStep) {
  const auto& s = small_scenario();
  const MillionScale tools(s);
  MultiRoundConfig cfg;
  cfg.rounds = 3;
  cfg.first_round_size = 50;
  const MultiRoundSelector selector(s, cfg);
  std::vector<double> errors;
  for (std::size_t col = 0; col < s.targets().size(); ++col) {
    const MultiRoundOutcome o = selector.run(col);
    if (o.ok) errors.push_back(tools.error_km(o.estimate, col));
  }
  ASSERT_GT(errors.size(), s.targets().size() * 8 / 10);
  EXPECT_LT(util::median(errors), 250.0);
}

TEST(MultiRound, MoreRoundsCostMoreLatencyNotMorePings) {
  const auto& s = small_scenario();
  MultiRoundConfig two;
  two.rounds = 2;
  two.first_round_size = 80;
  MultiRoundConfig four = two;
  four.rounds = 4;
  const MultiRoundSelector s2(s, two), s4(s, four);
  std::uint64_t pings2 = 0, pings4 = 0;
  double lat2 = 0, lat4 = 0;
  for (std::size_t col = 0; col < 30; ++col) {
    const auto o2 = s2.run(col), o4 = s4.run(col);
    pings2 += o2.total_pings;
    pings4 += o4.total_pings;
    lat2 += o2.elapsed_seconds;
    lat4 += o4.elapsed_seconds;
  }
  EXPECT_GT(lat4, lat2);
  // Extra rounds re-probe ever-smaller candidate sets, so the ping total
  // grows only modestly (well under the per-round first step each time).
  EXPECT_LT(pings4, pings2 * 2);
}

TEST(MultiRound, DeterministicPerTarget) {
  MultiRoundConfig cfg;
  cfg.first_round_size = 30;
  const MultiRoundSelector selector(small_scenario(), cfg);
  const auto a = selector.run(3);
  const auto b = selector.run(3);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.chosen_row, b.chosen_row);
  EXPECT_EQ(a.total_pings, b.total_pings);
}

}  // namespace
}  // namespace geoloc::core
