#include "fusion/engine.h"

#include "geo/constants.h"
#include "geo/geodesy.h"

namespace geoloc::fusion {

std::string_view to_string(EvidenceKind k) noexcept {
  switch (k) {
    case EvidenceKind::Hint: return "hint";
    case EvidenceKind::Geofeed: return "geofeed";
  }
  return "?";
}

std::string_view to_string(ClaimVerdict v) noexcept {
  switch (v) {
    case ClaimVerdict::Accepted: return "accepted";
    case ClaimVerdict::RejectedGeometric: return "rejected-geometric";
    case ClaimVerdict::RejectedActive: return "rejected-active";
    case ClaimVerdict::Inconclusive: return "inconclusive";
  }
  return "?";
}

bool geometric_feasible(std::span<const geo::Disk> disks,
                        const geo::GeoPoint& claim, double slack_km) {
  for (const geo::Disk& d : disks) {
    if (geo::distance_km(d.center, claim) > d.radius_km + slack_km) {
      return false;
    }
  }
  return true;
}

ClaimVerdict verify_claim(const geo::GeoPoint& claim,
                          std::span<const VerifyPing> pings,
                          const EngineConfig& config, int* contradictions) {
  int answered = 0;
  int contra = 0;
  for (const VerifyPing& p : pings) {
    if (!p.rtt_ms) continue;
    ++answered;
    // The RTT bounds how far the *target* can be from this VP. If the
    // claimed point is beyond that bound (plus slack), the target cannot
    // be there — a physical proof, not a heuristic.
    const double bound_km =
        geo::rtt_to_max_distance_km(*p.rtt_ms, config.soi_km_per_ms);
    if (geo::distance_km(p.vp_location, claim) > bound_km + config.slack_km) {
      ++contra;
    }
  }
  if (contradictions) *contradictions = contra;
  // One contradicting VP is a proof on its own: the fault model only loses
  // or inflates RTTs, and inflation *widens* the bound, so a too-small RTT
  // can never be weather. Acceptance, by contrast, is absence of evidence
  // and needs a quorum of answers before it means anything.
  if (contra > 0) return ClaimVerdict::RejectedActive;
  if (answered < config.min_conclusive) return ClaimVerdict::Inconclusive;
  return ClaimVerdict::Accepted;
}

}  // namespace geoloc::fusion
