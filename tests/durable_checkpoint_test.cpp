// Kill-and-resume: the executor's checkpoint/resume contract is that a
// campaign interrupted at ANY round boundary and resumed produces a
// CampaignReport byte-identical (encode_report) to an uninterrupted run —
// under calm and stormy weather, at 1 and 8 worker threads, through
// chained kills, corrupt checkpoints and foreign checkpoints. The
// interruption mechanism is CheckpointPolicy::stop_after_rounds, the
// deterministic stand-in for `kill -9`: each "process" is a fresh Platform
// and executor, with only the checkpoint file carrying state across.
#include "atlas/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "atlas/executor.h"
#include "scenario/presets.h"
#include "test_scenario.h"
#include "util/durable.h"
#include "util/parallel.h"

namespace geoloc::atlas {
namespace {

namespace fs = std::filesystem;
using geoloc::testing::small_scenario;

/// Run fn with the pool sized to `threads`, restoring the default after.
template <typename Fn>
auto at_threads(unsigned threads, Fn&& fn) {
  util::set_thread_count(threads);
  auto result = fn();
  util::set_thread_count(0);
  return result;
}

class CheckpointResumeTest : public ::testing::Test {
 protected:
  CheckpointResumeTest() : scenario_(small_scenario()) {}

  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("geoloc-ckpt-" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    ckpt_path_ = (dir_ / "campaign.ckpt").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Small batches force many round boundaries out of a small mesh; short
  /// backoffs keep the simulated campaign brief.
  [[nodiscard]] ExecutorConfig base_config() const {
    ExecutorConfig cfg;
    cfg.scheduler.batch_size = 8;
    cfg.scheduler.round_overhead_s = 60.0;
    cfg.retry.initial_backoff_s = 30.0;
    return cfg;
  }

  [[nodiscard]] std::vector<MeasurementRequest> requests() const {
    std::vector<MeasurementRequest> reqs;
    const std::span<const sim::HostId> vps{scenario_.vps().data() + 40, 4};
    const std::span<const sim::HostId> targets{scenario_.targets().data(), 10};
    for (sim::HostId vp : vps) {
      for (sim::HostId target : targets) {
        reqs.push_back({vp, target, MeasurementKind::Ping, 3});
      }
    }
    return reqs;
  }

  [[nodiscard]] std::span<const sim::HostId> spares() const {
    return {scenario_.vps().data() + 300, 6};
  }

  /// One uninterrupted run on a fresh platform; no checkpointing at all.
  [[nodiscard]] CampaignReport reference_run(const FaultModel* faults) const {
    Platform platform(scenario_.world(), scenario_.latency());
    if (faults) platform.set_fault_model(faults);
    return CampaignExecutor(platform, base_config())
        .execute(requests(), spares());
  }

  /// One "process": fresh platform + executor, checkpointing to
  /// ckpt_path_, stopping after `stop_after_rounds` total rounds (0 runs
  /// to completion).
  [[nodiscard]] CampaignReport slice(const FaultModel* faults,
                                     std::uint64_t stop_after_rounds) const {
    Platform platform(scenario_.world(), scenario_.latency());
    if (faults) platform.set_fault_model(faults);
    ExecutorConfig cfg = base_config();
    cfg.checkpoint.path = ckpt_path_;
    cfg.checkpoint.stop_after_rounds = stop_after_rounds;
    return CampaignExecutor(platform, cfg).execute(requests(), spares());
  }

  const scenario::Scenario& scenario_;
  fs::path dir_;
  std::string ckpt_path_;
};

TEST_F(CheckpointResumeTest, UninterruptedRunsAreByteIdentical) {
  const auto a = encode_report(reference_run(nullptr));
  const auto b = encode_report(reference_run(nullptr));
  EXPECT_EQ(a, b);
}

TEST_F(CheckpointResumeTest, KillAtEveryEarlyBoundaryResumesByteIdentical) {
  const auto weather = scenario::stormy_weather();
  const FaultModel faults(scenario_.world(), weather);
  const auto reference = encode_report(reference_run(&faults));

  const CampaignReport probe = reference_run(&faults);
  ASSERT_GT(probe.rounds, 5u) << "fixture must span several round boundaries";

  for (const std::uint64_t kill_at : {1u, 2u, 3u, 5u}) {
    fs::remove(ckpt_path_);
    const CampaignReport interrupted = slice(&faults, kill_at);
    ASSERT_TRUE(interrupted.interrupted);
    EXPECT_EQ(interrupted.rounds, kill_at);
    ASSERT_TRUE(fs::exists(ckpt_path_))
        << "an interrupted slice must leave its checkpoint";

    const CampaignReport resumed = slice(&faults, 0);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.completed + resumed.abandoned, resumed.requested);
    EXPECT_EQ(encode_report(resumed), reference)
        << "kill at round " << kill_at << " diverged";
    EXPECT_FALSE(fs::exists(ckpt_path_))
        << "a completed campaign must consume its checkpoint";
  }
}

TEST_F(CheckpointResumeTest, ChainedKillsAcrossThreeProcessesStayExact) {
  const auto weather = scenario::stormy_weather();
  const FaultModel faults(scenario_.world(), weather);
  const auto reference = encode_report(reference_run(&faults));

  // Three successive "processes" each die one round later; the fourth
  // finishes. Every hop rides the checkpoint alone.
  for (const std::uint64_t stop : {1u, 2u, 3u}) {
    const CampaignReport r = slice(&faults, stop);
    ASSERT_TRUE(r.interrupted);
    ASSERT_EQ(r.rounds, stop);
  }
  const CampaignReport final_report = slice(&faults, 0);
  EXPECT_EQ(encode_report(final_report), reference);
}

TEST_F(CheckpointResumeTest, ResumeIsByteIdenticalAtOneAndEightThreads) {
  const auto weather = scenario::stormy_weather();
  const FaultModel faults(scenario_.world(), weather);

  const auto run_killed_then_resumed = [&](unsigned threads) {
    return at_threads(threads, [&] {
      fs::remove(ckpt_path_);
      const CampaignReport interrupted = slice(&faults, 2);
      EXPECT_TRUE(interrupted.interrupted);
      return encode_report(slice(&faults, 0));
    });
  };
  const auto serial = run_killed_then_resumed(1);
  const auto threaded = run_killed_then_resumed(8);
  const auto reference =
      at_threads(1, [&] { return encode_report(reference_run(&faults)); });
  EXPECT_EQ(serial, reference);
  EXPECT_EQ(threaded, reference);
}

TEST_F(CheckpointResumeTest, CalmCampaignResumesExactlyToo) {
  // Without weather the contract must hold as well (different code path:
  // no rejections/outages, single attempt per measurement).
  const auto reference = encode_report(reference_run(nullptr));
  const CampaignReport interrupted = slice(nullptr, 2);
  ASSERT_TRUE(interrupted.interrupted);
  EXPECT_EQ(encode_report(slice(nullptr, 0)), reference);
}

TEST_F(CheckpointResumeTest, CorruptCheckpointIsQuarantinedAndRunStartsFresh) {
  const auto weather = scenario::stormy_weather();
  const FaultModel faults(scenario_.world(), weather);
  const auto reference = encode_report(reference_run(&faults));

  ASSERT_TRUE(slice(&faults, 2).interrupted);
  // Flip one payload byte of the checkpoint.
  {
    std::fstream f(ckpt_path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(util::durable::kFrameHeaderBytes + 4));
    char b = 0;
    f.read(&b, 1);
    f.seekp(-1, std::ios::cur);
    b = static_cast<char>(b ^ 0x10);
    f.write(&b, 1);
  }

  const CampaignReport restarted = slice(&faults, 0);
  EXPECT_EQ(encode_report(restarted), reference)
      << "a corrupt checkpoint must mean a clean fresh start";
  EXPECT_TRUE(
      fs::exists(util::durable::quarantine_path_for(ckpt_path_)));
  EXPECT_FALSE(fs::exists(ckpt_path_));
}

TEST_F(CheckpointResumeTest, ForeignCampaignCheckpointIsIgnored) {
  const auto weather = scenario::stormy_weather();
  const FaultModel faults(scenario_.world(), weather);
  const auto reference = encode_report(reference_run(&faults));

  // Leave a checkpoint of a DIFFERENT campaign (one fewer request) at the
  // same path: the fingerprint must reject it and the run start fresh.
  {
    Platform platform(scenario_.world(), scenario_.latency());
    platform.set_fault_model(&faults);
    ExecutorConfig cfg = base_config();
    cfg.checkpoint.path = ckpt_path_;
    cfg.checkpoint.stop_after_rounds = 1;
    auto reqs = requests();
    reqs.pop_back();
    ASSERT_TRUE(
        CampaignExecutor(platform, cfg).execute(reqs, spares()).interrupted);
  }
  EXPECT_EQ(encode_report(slice(&faults, 0)), reference);
}

TEST_F(CheckpointResumeTest, ResumeCanBeDisabled) {
  const auto weather = scenario::stormy_weather();
  const FaultModel faults(scenario_.world(), weather);
  const auto reference = encode_report(reference_run(&faults));

  ASSERT_TRUE(slice(&faults, 3).interrupted);
  Platform platform(scenario_.world(), scenario_.latency());
  platform.set_fault_model(&faults);
  ExecutorConfig cfg = base_config();
  cfg.checkpoint.path = ckpt_path_;
  cfg.checkpoint.resume = false;
  const CampaignReport fresh =
      CampaignExecutor(platform, cfg).execute(requests(), spares());
  EXPECT_EQ(encode_report(fresh), reference)
      << "resume=false must replay the whole campaign from scratch";
}

TEST_F(CheckpointResumeTest, CheckpointDirEnvDerivesPerCampaignFiles) {
  const auto weather = scenario::stormy_weather();
  const FaultModel faults(scenario_.world(), weather);
  const auto reference = encode_report(reference_run(&faults));

  const std::string ckpt_dir = (dir_ / "ckpts").string();
  ASSERT_EQ(setenv("GEOLOC_CHECKPOINT_DIR", ckpt_dir.c_str(), 1), 0);

  const auto env_slice = [&](std::uint64_t stop) {
    Platform platform(scenario_.world(), scenario_.latency());
    platform.set_fault_model(&faults);
    ExecutorConfig cfg = base_config();  // no explicit path: env drives it
    cfg.checkpoint.every_rounds = 2;
    cfg.checkpoint.stop_after_rounds = stop;
    return CampaignExecutor(platform, cfg).execute(requests(), spares());
  };

  ASSERT_TRUE(env_slice(2).interrupted);
  // The derived file is keyed by the campaign fingerprint.
  bool found = false;
  for (const auto& entry : fs::directory_iterator(ckpt_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("campaign-", 0) == 0 &&
        name.size() > std::string("campaign-.ckpt").size()) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "expected a campaign-<fingerprint>.ckpt file";

  const CampaignReport resumed = env_slice(0);
  EXPECT_EQ(encode_report(resumed), reference);
  EXPECT_TRUE(fs::is_empty(ckpt_dir))
      << "completion must consume the derived checkpoint";

  ASSERT_EQ(unsetenv("GEOLOC_CHECKPOINT_DIR"), 0);
}

TEST_F(CheckpointResumeTest, ReportCodecRoundtripsAndRejectsTruncation) {
  const CampaignReport original = reference_run(nullptr);
  const std::vector<std::byte> bytes = encode_report(original);
  CampaignReport decoded;
  ASSERT_TRUE(decode_report(bytes, &decoded));
  EXPECT_EQ(encode_report(decoded), bytes);
  EXPECT_EQ(decoded.completed, original.completed);
  EXPECT_EQ(decoded.results.size(), original.results.size());

  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                                std::size_t{8}, std::size_t{0}}) {
    CampaignReport r;
    EXPECT_FALSE(
        decode_report(std::span<const std::byte>(bytes).first(cut), &r))
        << "truncation to " << cut << " bytes must be rejected";
  }
}

TEST_F(CheckpointResumeTest, FingerprintSeparatesCampaignsAndConfigs) {
  const ExecutorConfig cfg = base_config();
  Platform platform(scenario_.world(), scenario_.latency());
  const auto reqs = requests();
  const std::uint64_t base =
      campaign_fingerprint(reqs, spares(), cfg, platform);
  EXPECT_EQ(base, campaign_fingerprint(reqs, spares(), cfg, platform))
      << "the fingerprint must be stable";

  auto fewer = reqs;
  fewer.pop_back();
  EXPECT_NE(base, campaign_fingerprint(fewer, spares(), cfg, platform));

  ExecutorConfig other_retry = cfg;
  other_retry.retry.max_attempts += 1;
  EXPECT_NE(base, campaign_fingerprint(reqs, spares(), other_retry, platform));

  // The checkpoint policy itself must NOT change the identity — resuming
  // with a different cadence or stop point is the designed use.
  ExecutorConfig other_ckpt = cfg;
  other_ckpt.checkpoint.every_rounds = 5;
  other_ckpt.checkpoint.stop_after_rounds = 3;
  EXPECT_EQ(base, campaign_fingerprint(reqs, spares(), other_ckpt, platform));
}

}  // namespace
}  // namespace geoloc::atlas
