#include "fusion/trust.h"

#include "obs/metrics.h"

namespace geoloc::fusion {

bool TrustTracker::consult(std::string_view source) const {
  const auto it = sources_.find(source);
  return it == sources_.end() || !it->second.quarantined;
}

void TrustTracker::record(std::string_view source, ClaimOutcome outcome) {
  auto it = sources_.find(source);
  if (it == sources_.end()) {
    it = sources_.emplace(std::string(source), SourceTrust{}).first;
  }
  SourceTrust& t = it->second;
  switch (outcome) {
    case ClaimOutcome::Accepted: ++t.accepted; break;
    case ClaimOutcome::Rejected: ++t.rejected; break;
    case ClaimOutcome::Inconclusive: ++t.inconclusive; break;
  }
  if (!t.quarantined && t.conclusive() >= config_.min_observations &&
      t.rejection_rate() > config_.quarantine_rejection_rate) {
    t.quarantined = true;
    t.release_epoch = epoch_ + config_.probation_epochs;
    ++t.quarantines;
    static obs::Counter& quarantines =
        obs::Registry::instance().counter("fusion.trust.quarantines");
    quarantines.add();
  }
}

void TrustTracker::advance_epoch() {
  ++epoch_;
  for (auto& [name, t] : sources_) {
    if (t.quarantined && epoch_ >= t.release_epoch) {
      const std::uint32_t lifetime = t.quarantines;
      t = SourceTrust{};  // released: a clean slate, trust re-earned
      t.quarantines = lifetime;
    }
  }
}

const SourceTrust* TrustTracker::find(std::string_view source) const {
  const auto it = sources_.find(source);
  return it == sources_.end() ? nullptr : &it->second;
}

}  // namespace geoloc::fusion
