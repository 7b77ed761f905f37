// Trust-but-verify evidence fusion for one target.
//
// A claim ("this target is at P") earns the published answer only by
// surviving two independent attacks:
//
//   1. Geometric filter — P must lie inside every CBG constraint disk
//      (plus slack for last-mile inflation). Latency already measured from
//      dozens of VPs is free evidence; a claim the physics of those RTTs
//      excludes is rejected without spending a single verification ping.
//   2. Active verification — targeted pings from the k VPs nearest to P.
//      Each answered ping gives an upper bound on the VP->target distance
//      (RTT/2 x speed of Internet); a VP whose bound is smaller than its
//      distance to P *proves* the target is not at P. Contradiction from
//      enough VPs rejects the claim; no contradiction with enough answers
//      accepts it.
//
// Verification under platform weather is fail-safe: if too few targeted
// pings answered to conclude anything, the claim is *downgraded* — the
// latency-only answer stands and the source's trust is untouched — never
// accepted by default. An attacker cannot ride a storm into the dataset,
// and an honest operator cannot be quarantined by one.
//
// The engine is pure: it sees pre-measured ping results and returns a
// decision. Issuing the pings (and the trust bookkeeping across targets)
// is the pipeline's job (fusion/pipeline.h), which keeps every decision
// rule unit-testable without a platform.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/cbg.h"
#include "geo/geopoint.h"

namespace geoloc::fusion {

/// Where a claim came from (provenance and per-kind accounting).
enum class EvidenceKind : std::uint8_t { Hint, Geofeed };
std::string_view to_string(EvidenceKind k) noexcept;

/// One candidate location for a target.
struct Claim {
  geo::GeoPoint location;
  EvidenceKind kind = EvidenceKind::Hint;
  std::string source;  ///< trust-tracker key ("rdns", "feed-1.example", ...)
};

/// One targeted verification ping, already executed.
struct VerifyPing {
  geo::GeoPoint vp_location;
  std::optional<double> rtt_ms;  ///< nullopt: no echo came back
};

enum class ClaimVerdict : std::uint8_t {
  Accepted,           ///< verified; claim becomes the answer
  RejectedGeometric,  ///< outside the CBG constraint region
  RejectedActive,     ///< targeted RTTs prove the claim impossible
  Inconclusive,       ///< too few verification answers (weather)
};
std::string_view to_string(ClaimVerdict v) noexcept;

struct EngineConfig {
  /// Slack added to every distance bound before calling a claim
  /// impossible: absorbs last-mile delay turning into phantom kilometres.
  /// Default generous enough that honest city-level evidence survives.
  double slack_km = 100.0;
  /// Verification VPs consulted per claim (the k nearest to the claim).
  int verify_k = 4;
  /// Minimum answered verification pings for a conclusive verdict.
  int min_conclusive = 2;
  /// Speed of Internet for the active-verification distance bounds.
  double soi_km_per_ms = geo::kSoiTwoThirdsKmPerMs;
};

/// Stage 1: can the claim coexist with the CBG constraint disks? A target
/// CBG could not constrain at all (no disks) passes trivially — there is
/// no geometry to contradict, stage 2 must do the work.
[[nodiscard]] bool geometric_feasible(std::span<const geo::Disk> disks,
                                      const geo::GeoPoint& claim,
                                      double slack_km);

/// Stage 2: judge a claim from its targeted pings. `contradictions` (when
/// non-null) receives the number of VPs that disproved the claim.
[[nodiscard]] ClaimVerdict verify_claim(const geo::GeoPoint& claim,
                                        std::span<const VerifyPing> pings,
                                        const EngineConfig& config,
                                        int* contradictions = nullptr);

/// A fused decision for one target.
struct FusionDecision {
  ClaimVerdict verdict = ClaimVerdict::Inconclusive;
  bool has_claim = false;       ///< any claim was evaluated at all
  std::size_t claim_index = 0;  ///< which claim the verdict is about
  geo::GeoPoint location;       ///< the accepted location (when Accepted)
  std::string provenance;       ///< human-readable audit trail fragment
};

}  // namespace geoloc::fusion
