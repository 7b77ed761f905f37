// The fused measurement campaign: latency base + adversarial evidence.
//
// Orchestration of one campaign epoch:
//
//   1. Base campaign — full VP x target mesh through the resilient
//      executor under the configured weather, then one CBG solve per
//      target (exactly the latency-only pipeline the eval sweeps run).
//   2. Evidence intake — rDNS hints arrive as structured claims; geofeeds
//      arrive as *text* and pass through the strict parser
//      (fusion/geofeed.h), so malformed or mostly-garbage feeds are
//      quarantined at the door.
//   3. Trust-gated fusion — per target, in target order: claims from
//      quarantined sources are skipped, survivors run the trust-but-verify
//      engine (geometric filter, then targeted pings from the k nearest
//      VPs through the same executor and weather). Outcomes feed the
//      per-source trust tracker, which can quarantine a source mid-pass.
//   4. Publication — one publish::Record per target; accepted evidence
//      publishes as Method::Fused with the full audit trail in the
//      provenance string, everything else keeps the latency answer.
//
// Determinism contract: the whole pipeline is a pure function of
// (scenario, evidence, options) and is byte-identical for any
// GEOLOC_THREADS — the fusion pass is serial in target order, and all
// measurement goes through the executor's thread-invariant rounds. With
// empty evidence the verification executor is never invoked, so the base
// CampaignReport, the records and the compiled snapshot bytes are
// *identical* to run_latency_campaign's (pinned by fusion_pipeline_test).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "atlas/executor.h"
#include "core/cbg.h"
#include "fusion/engine.h"
#include "fusion/geofeed.h"
#include "fusion/trust.h"
#include "geo/nearest.h"
#include "publish/snapshot.h"
#include "scenario/scenario.h"
#include "sim/evidence.h"

namespace geoloc::fusion {

/// The evidence available for one campaign epoch. Feeds are raw text —
/// the pipeline parses them the way it would parse a real operator's.
struct EvidenceBundle {
  std::vector<sim::LocationHint> hints;
  struct Feed {
    std::string source;
    std::string text;
  };
  std::vector<Feed> feeds;

  [[nodiscard]] bool empty() const noexcept {
    return hints.empty() && feeds.empty();
  }

  /// Bundle up generator output (sim/evidence.h) for the pipeline.
  static EvidenceBundle from_generated(
      std::vector<sim::LocationHint> hints,
      const std::vector<sim::GeneratedFeed>& feeds);
};

/// The verifiers stage 2 pings from: the responsive VPs of a campaign,
/// ranked by reported location (what an operator of the platform actually
/// knows). Built once per pipeline run; rows keep VP list order, so
/// distance ties break on it.
class VerifierPool {
 public:
  VerifierPool(const sim::World& world, std::span<const sim::HostId> vps);

  /// The max(k, 1) VPs nearest to `p`, nearest first (all of them when
  /// fewer respond).
  [[nodiscard]] std::vector<sim::HostId> nearest(const geo::GeoPoint& p,
                                                 int k) const;

 private:
  std::vector<sim::HostId> vps_;
  geo::NearestRanker ranker_;
};

struct PipelineOptions {
  core::CbgConfig cbg;
  EngineConfig engine;
  TrustConfig trust;
  /// Persistent trust state carried across campaign epochs. When null the
  /// run starts a fresh tracker from `trust`; either way the final state
  /// is copied into FusedCampaignResult::trust.
  TrustTracker* trust_state = nullptr;
  GeofeedLimits feed_limits;
  atlas::FaultConfig weather;      ///< default: calm (fault layer disabled)
  atlas::ExecutorConfig executor;
  /// Campaign VPs (0 = every scenario VP); the rest serve as spares.
  std::size_t max_vps = 0;
  double measured_at_s = 0.0;
  float ok_ttl_s = 30 * 86'400.0f;
  float degraded_ttl_s = 7 * 86'400.0f;
};

/// The latency-only baseline: base campaign + CBG + records, no evidence
/// machinery anywhere near the code path.
struct LatencyCampaign {
  atlas::CampaignReport report;
  std::vector<core::CbgResult> per_target;  ///< column order
  std::vector<publish::Record> records;     ///< one per target, column order
};
LatencyCampaign run_latency_campaign(const scenario::Scenario& s,
                                     const PipelineOptions& options = {});

struct FusedCampaignResult {
  atlas::CampaignReport base_report;
  std::vector<core::CbgResult> per_target;
  std::vector<FusionDecision> decisions;  ///< one per target, column order
  std::vector<publish::Record> records;
  TrustTracker trust;  ///< final tracker state (epoch already advanced)

  // -- accounting ----------------------------------------------------------
  std::size_t claims = 0;              ///< claims evaluated (post-gating)
  std::size_t accepted = 0;
  std::size_t rejected_geometric = 0;
  std::size_t rejected_active = 0;
  std::size_t inconclusive = 0;        ///< downgraded to the latency answer
  std::size_t skipped_quarantined = 0; ///< claims gated out by trust
  std::size_t feeds_quarantined = 0;   ///< feeds rejected at parse time
  std::size_t verify_pings = 0;        ///< targeted pings requested
};
FusedCampaignResult run_fused_campaign(const scenario::Scenario& s,
                                       const EvidenceBundle& evidence,
                                       const PipelineOptions& options = {});

}  // namespace geoloc::fusion
