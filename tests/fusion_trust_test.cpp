// Trust-score dynamics: quarantine onset, consultation gating, probation
// release, and the weather guard (inconclusive outcomes carry no signal).
#include "fusion/trust.h"

#include <gtest/gtest.h>

namespace geoloc::fusion {
namespace {

TrustConfig quick_config() {
  TrustConfig c;
  c.quarantine_rejection_rate = 0.4;
  c.min_observations = 5;
  c.probation_epochs = 2;
  return c;
}

TEST(TrustTracker, UnknownSourcesAreConsulted) {
  const TrustTracker t;
  EXPECT_TRUE(t.consult("never-seen.example"));
  EXPECT_EQ(t.find("never-seen.example"), nullptr);
}

TEST(TrustTracker, AdversarialSourceCrossesThresholdAndIsQuarantined) {
  TrustTracker t(quick_config());
  // Four rejections out of five conclusive tests: rate 0.8 > 0.4.
  t.record("evil.example", ClaimOutcome::Accepted);
  for (int i = 0; i < 3; ++i) {
    t.record("evil.example", ClaimOutcome::Rejected);
    EXPECT_TRUE(t.consult("evil.example")) << "judged before min_observations";
  }
  t.record("evil.example", ClaimOutcome::Rejected);
  EXPECT_FALSE(t.consult("evil.example"));
  ASSERT_NE(t.find("evil.example"), nullptr);
  EXPECT_TRUE(t.find("evil.example")->quarantined);
  EXPECT_EQ(t.find("evil.example")->quarantines, 1u);
}

TEST(TrustTracker, HonestSourceStaysConsultedForever) {
  TrustTracker t(quick_config());
  for (int i = 0; i < 100; ++i) {
    t.record("good.example", ClaimOutcome::Accepted);
    // An occasional rejection (stale entry) keeps the rate well below 0.4.
    if (i % 10 == 0) t.record("good.example", ClaimOutcome::Rejected);
  }
  EXPECT_TRUE(t.consult("good.example"));
}

TEST(TrustTracker, InconclusiveOutcomesCannotQuarantine) {
  TrustTracker t(quick_config());
  // A storm: every verification starved. Rejection rate must stay 0/0.
  for (int i = 0; i < 50; ++i) {
    t.record("unlucky.example", ClaimOutcome::Inconclusive);
  }
  EXPECT_TRUE(t.consult("unlucky.example"));
  EXPECT_EQ(t.find("unlucky.example")->rejection_rate(), 0.0);
}

TEST(TrustTracker, QuarantineLiftsOnlyAfterTheProbationWindow) {
  TrustTracker t(quick_config());
  for (int i = 0; i < 5; ++i) t.record("evil.example", ClaimOutcome::Rejected);
  EXPECT_FALSE(t.consult("evil.example"));

  t.advance_epoch();  // epoch 1 < release epoch 2: still quarantined
  EXPECT_FALSE(t.consult("evil.example"));

  t.advance_epoch();  // epoch 2 = release epoch: released, counters reset
  EXPECT_TRUE(t.consult("evil.example"));
  const SourceTrust* s = t.find("evil.example");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->conclusive(), 0u);
  EXPECT_EQ(s->quarantines, 1u) << "lifetime quarantine count survives reset";
}

TEST(TrustTracker, ReleasedSourceMustReoffendFromScratch) {
  TrustTracker t(quick_config());
  for (int i = 0; i < 5; ++i) t.record("evil.example", ClaimOutcome::Rejected);
  t.advance_epoch();
  t.advance_epoch();
  ASSERT_TRUE(t.consult("evil.example"));

  // Fewer than min_observations new rejections: not yet re-quarantined.
  for (int i = 0; i < 4; ++i) t.record("evil.example", ClaimOutcome::Rejected);
  EXPECT_TRUE(t.consult("evil.example"));
  t.record("evil.example", ClaimOutcome::Rejected);
  EXPECT_FALSE(t.consult("evil.example"));
  EXPECT_EQ(t.find("evil.example")->quarantines, 2u);
}

TEST(TrustTracker, ProbationWindowIsConfigurable) {
  TrustConfig cfg = quick_config();
  cfg.probation_epochs = 4;
  TrustTracker t(cfg);
  for (int i = 0; i < 5; ++i) t.record("evil.example", ClaimOutcome::Rejected);
  for (int e = 0; e < 3; ++e) {
    t.advance_epoch();
    EXPECT_FALSE(t.consult("evil.example")) << "epoch " << t.epoch();
  }
  t.advance_epoch();
  EXPECT_TRUE(t.consult("evil.example"));
}

TEST(TrustTracker, FromEnvUsesDefaultsWhenUnset) {
  const TrustConfig c{};
  EXPECT_DOUBLE_EQ(c.quarantine_rejection_rate, 0.4);
  EXPECT_EQ(c.min_observations, 5u);
  EXPECT_EQ(c.probation_epochs, 2u);
}

}  // namespace
}  // namespace geoloc::fusion
