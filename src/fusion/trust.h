// Per-source trust accounting with quarantine and probation.
//
// Every evidence source (the rDNS hint corpus, each operator geofeed)
// accumulates verification outcomes as the fusion engine processes
// targets. A source whose *rejection rate* — claims actively disproven
// over claims conclusively tested — crosses the threshold is quarantined:
// its remaining claims are not consulted at all, so an adversarial feed
// stops costing verification pings after it has burned its credibility.
// Inconclusive verifications (weather) are deliberately excluded from the
// rate: a storm must not be able to quarantine an honest operator.
//
// Quarantine is not forever: after `probation_epochs` calls to
// advance_epoch() the source is released with its counters reset — it
// starts from scratch and must re-earn consultation, re-entering
// quarantine after `min_observations` new rejections just as fast as the
// first time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace geoloc::fusion {

struct TrustConfig {
  double quarantine_rejection_rate = 0.4;  ///< rate that triggers quarantine
  std::uint32_t min_observations = 5;  ///< conclusive tests before judging
  std::uint32_t probation_epochs = 2;  ///< epochs a quarantine lasts
};

/// What verification concluded about one claim.
enum class ClaimOutcome : std::uint8_t {
  Accepted,      ///< survived geometry and active verification
  Rejected,      ///< disproven (geometric exclusion or RTT contradiction)
  Inconclusive,  ///< verification starved (weather); no trust signal
};

struct SourceTrust {
  std::uint32_t accepted = 0;
  std::uint32_t rejected = 0;
  std::uint32_t inconclusive = 0;
  bool quarantined = false;
  std::uint32_t release_epoch = 0;  ///< epoch at which quarantine lifts
  std::uint32_t quarantines = 0;    ///< lifetime count, survives resets

  [[nodiscard]] std::uint32_t conclusive() const noexcept {
    return accepted + rejected;
  }
  [[nodiscard]] double rejection_rate() const noexcept {
    return conclusive() == 0
               ? 0.0
               : static_cast<double>(rejected) /
                     static_cast<double>(conclusive());
  }
};

class TrustTracker {
 public:
  explicit TrustTracker(const TrustConfig& config = {}) : config_(config) {}

  /// True when the source's claims should be evaluated at all.
  [[nodiscard]] bool consult(std::string_view source) const;

  /// Record a verification outcome; may flip the source into quarantine.
  void record(std::string_view source, ClaimOutcome outcome);

  /// Advance the probation clock (the pipeline calls this once per
  /// campaign epoch); sources whose window elapsed are released and reset.
  void advance_epoch();

  [[nodiscard]] const SourceTrust* find(std::string_view source) const;
  [[nodiscard]] const std::map<std::string, SourceTrust, std::less<>>&
  sources() const noexcept {
    return sources_;
  }
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const TrustConfig& config() const noexcept { return config_; }

 private:
  TrustConfig config_;
  // Ordered map: iteration (diagnostics, serialization) is deterministic.
  std::map<std::string, SourceTrust, std::less<>> sources_;
  std::uint32_t epoch_ = 0;
};

}  // namespace geoloc::fusion
