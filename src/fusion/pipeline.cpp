#include "fusion/pipeline.h"

#include <algorithm>
#include <unordered_map>

#include "atlas/faults.h"
#include "atlas/platform.h"
#include "obs/metrics.h"
#include "util/parallel.h"

namespace geoloc::fusion {

namespace {

float ttl_for(core::CbgVerdict tier, const PipelineOptions& o) noexcept {
  return tier == core::CbgVerdict::Ok ? o.ok_ttl_s : o.degraded_ttl_s;
}

/// Per-target CBG over a campaign's surviving measurements, plus the
/// observation counts the provenance strings need.
struct Solved {
  std::vector<core::CbgResult> results;     // column order
  std::vector<std::size_t> observations;    // column order
};

Solved solve_all(const scenario::Scenario& s,
                 const atlas::CampaignReport& report,
                 const core::CbgConfig& cbg) {
  const auto& world = s.world();
  std::vector<std::vector<core::VpObservation>> per_target(
      s.targets().size());
  for (const atlas::PingMeasurement& m : report.results) {
    if (m.target == m.vp) continue;  // anchors are both targets and VPs
    per_target[s.target_index(m.target)].push_back(core::VpObservation{
        world.host(m.vp).reported_location, *m.min_rtt_ms});
  }
  Solved out;
  out.results = util::parallel_map<core::CbgResult>(
      s.targets().size(),
      [&](std::size_t col) { return core::cbg_geolocate(per_target[col], cbg); });
  out.observations.reserve(per_target.size());
  for (const auto& obs : per_target) out.observations.push_back(obs.size());
  return out;
}

std::vector<publish::Record> latency_records(const scenario::Scenario& s,
                                             const Solved& solved,
                                             const PipelineOptions& o) {
  std::vector<publish::Record> out;
  out.reserve(s.targets().size());
  for (std::size_t col = 0; col < s.targets().size(); ++col) {
    const core::CbgResult& cbg = solved.results[col];
    publish::Record r;
    r.prefix = net::slash24_of(s.world().host(s.targets()[col]).addr);
    r.measured_at_s = o.measured_at_s;
    r.method = publish::Method::Cbg;
    r.tier = cbg.verdict;
    r.location = cbg.estimate;
    r.confidence_radius_km = static_cast<float>(cbg.confidence_radius_km);
    r.ttl_s = ttl_for(r.tier, o);
    r.provenance =
        "cbg/campaign:obs=" + std::to_string(solved.observations[col]) +
        ",disks=" + std::to_string(cbg.surviving_constraints);
    out.push_back(std::move(r));
  }
  return out;
}

/// The per-target claim lists, in evaluation order: the hint corpus first,
/// then geofeed entries in bundle order. Feeds enter through the strict
/// parser; a feed quarantined at parse time contributes nothing.
std::vector<std::vector<Claim>> assemble_claims(
    const scenario::Scenario& s, const EvidenceBundle& evidence,
    const GeofeedLimits& limits, std::size_t* feeds_quarantined) {
  std::vector<std::vector<Claim>> out(s.targets().size());

  for (const sim::LocationHint& h : evidence.hints) {
    out[s.target_index(h.target)].push_back(
        Claim{h.location, EvidenceKind::Hint, "rdns"});
  }

  // Geofeed entries publish at /24 granularity; map them onto target
  // columns through the targets' own /24s (unknown prefixes are ignored —
  // a feed may legitimately cover address space we do not measure).
  std::unordered_map<std::uint32_t, std::size_t> col_by_net;
  col_by_net.reserve(s.targets().size());
  for (std::size_t col = 0; col < s.targets().size(); ++col) {
    const auto p = net::slash24_of(s.world().host(s.targets()[col]).addr);
    col_by_net.emplace(p.network().value(), col);
  }
  for (const EvidenceBundle::Feed& feed : evidence.feeds) {
    const GeofeedParseResult parsed = parse_geofeed(feed.text, limits);
    if (parsed.quarantined) {
      ++*feeds_quarantined;
      continue;
    }
    for (const GeofeedEntry& e : parsed.entries) {
      if (e.prefix.length() != 24) continue;
      const auto it = col_by_net.find(e.prefix.network().value());
      if (it == col_by_net.end()) continue;
      out[it->second].push_back(
          Claim{e.location, EvidenceKind::Geofeed, feed.source});
    }
  }
  return out;
}

struct VpSplit {
  std::span<const sim::HostId> campaign;
  std::span<const sim::HostId> spares;
};

VpSplit split_vps(const scenario::Scenario& s, std::size_t max_vps) {
  const auto& all = s.vps();
  const std::size_t n =
      (max_vps == 0 || max_vps >= all.size()) ? all.size() : max_vps;
  return VpSplit{{all.data(), n}, {all.data() + n, all.size() - n}};
}

}  // namespace

VerifierPool::VerifierPool(const sim::World& world,
                           std::span<const sim::HostId> vps) {
  std::vector<geo::GeoPoint> locs;
  for (const sim::HostId vp : vps) {
    const sim::Host& host = world.host(vp);
    if (!host.responsive) continue;
    vps_.push_back(vp);
    locs.push_back(host.reported_location);
  }
  ranker_ = geo::NearestRanker(locs);
}

std::vector<sim::HostId> VerifierPool::nearest(const geo::GeoPoint& p,
                                               int k) const {
  const std::size_t want =
      std::min(vps_.size(), static_cast<std::size_t>(std::max(k, 1)));
  const auto ranked = ranker_.rank(p, want);
  std::vector<sim::HostId> out;
  out.reserve(want);
  for (std::size_t i = 0; i < want; ++i) out.push_back(vps_[ranked[i].second]);
  return out;
}

EvidenceBundle EvidenceBundle::from_generated(
    std::vector<sim::LocationHint> hints,
    const std::vector<sim::GeneratedFeed>& feeds) {
  EvidenceBundle b;
  b.hints = std::move(hints);
  b.feeds.reserve(feeds.size());
  for (const sim::GeneratedFeed& f : feeds) {
    b.feeds.push_back(Feed{f.source, f.text});
  }
  return b;
}

LatencyCampaign run_latency_campaign(const scenario::Scenario& s,
                                     const PipelineOptions& options) {
  const auto [campaign_vps, spares] = split_vps(s, options.max_vps);
  atlas::Platform platform(s.world(), s.latency());
  const atlas::FaultModel faults(s.world(), options.weather);
  platform.set_fault_model(&faults);
  atlas::CampaignExecutor executor(platform, options.executor);

  LatencyCampaign out;
  out.report = executor.execute_full_mesh(
      campaign_vps, s.targets(), s.config().ping_packets, spares);
  Solved solved = solve_all(s, out.report, options.cbg);
  out.records = latency_records(s, solved, options);
  out.per_target = std::move(solved.results);
  return out;
}

FusedCampaignResult run_fused_campaign(const scenario::Scenario& s,
                                       const EvidenceBundle& evidence,
                                       const PipelineOptions& options) {
  const auto [campaign_vps, spares] = split_vps(s, options.max_vps);
  const auto& world = s.world();
  atlas::Platform platform(world, s.latency());
  const atlas::FaultModel faults(world, options.weather);
  platform.set_fault_model(&faults);
  atlas::CampaignExecutor executor(platform, options.executor);

  FusedCampaignResult result;

  // -- 1. base campaign + CBG + latency records (the fallback answers) ----
  result.base_report = executor.execute_full_mesh(
      campaign_vps, s.targets(), s.config().ping_packets, spares);
  Solved solved = solve_all(s, result.base_report, options.cbg);
  result.records = latency_records(s, solved, options);

  // -- 2. evidence intake --------------------------------------------------
  const std::vector<std::vector<Claim>> claims = assemble_claims(
      s, evidence, options.feed_limits, &result.feeds_quarantined);

  // -- 3. trust-gated fusion, serial in target order ----------------------
  const VerifierPool verifier_pool(world, campaign_vps);
  TrustTracker own_tracker(options.trust);
  TrustTracker& trust =
      options.trust_state ? *options.trust_state : own_tracker;
  result.decisions.resize(s.targets().size());

  for (std::size_t col = 0; col < s.targets().size(); ++col) {
    const sim::HostId target = s.targets()[col];
    FusionDecision& decision = result.decisions[col];

    int rejected_here = 0;
    bool any_inconclusive = false;
    bool any_active_reject = false;
    for (std::size_t ci = 0; ci < claims[col].size(); ++ci) {
      const Claim& claim = claims[col][ci];
      if (!trust.consult(claim.source)) {
        ++result.skipped_quarantined;
        continue;
      }
      decision.has_claim = true;
      ++result.claims;

      // Stage 1: free geometry from the base campaign.
      if (!geometric_feasible(solved.results[col].disks, claim.location,
                              options.engine.slack_km)) {
        trust.record(claim.source, ClaimOutcome::Rejected);
        ++result.rejected_geometric;
        ++rejected_here;
        continue;
      }

      // Stage 2: targeted pings from the k nearest VPs, through the same
      // executor (and weather) as everything else.
      const std::vector<sim::HostId> verifiers =
          verifier_pool.nearest(claim.location, options.engine.verify_k);
      std::vector<atlas::MeasurementRequest> requests;
      requests.reserve(verifiers.size());
      for (const sim::HostId vp : verifiers) {
        requests.push_back(atlas::MeasurementRequest{
            vp, target, atlas::MeasurementKind::Ping,
            s.config().ping_packets});
      }
      result.verify_pings += requests.size();
      const atlas::CampaignReport rep = executor.execute(requests);

      std::vector<VerifyPing> pings;
      pings.reserve(verifiers.size());
      for (const sim::HostId vp : verifiers) {
        VerifyPing p;
        p.vp_location = world.host(vp).reported_location;
        for (const atlas::PingMeasurement& m : rep.results) {
          if (m.vp == vp && m.target == target) {
            p.rtt_ms = m.min_rtt_ms;
            break;
          }
        }
        pings.push_back(p);
      }

      int contradictions = 0;
      const ClaimVerdict verdict = verify_claim(
          claim.location, pings, options.engine, &contradictions);
      if (verdict == ClaimVerdict::Accepted) {
        trust.record(claim.source, ClaimOutcome::Accepted);
        ++result.accepted;
        decision.verdict = ClaimVerdict::Accepted;
        decision.claim_index = ci;
        decision.location = claim.location;
        decision.provenance = "fused/" +
                              std::string(to_string(claim.kind)) + ":" +
                              claim.source +
                              ",verifiers=" + std::to_string(pings.size());
        break;  // first verified claim wins
      }
      if (verdict == ClaimVerdict::RejectedActive) {
        trust.record(claim.source, ClaimOutcome::Rejected);
        ++result.rejected_active;
        ++rejected_here;
        any_active_reject = true;
      } else {
        // Inconclusive: the storm ate the verdict. No trust signal — an
        // honest operator must not be quarantined by weather — and no
        // acceptance either: the claim is downgraded, the latency answer
        // stands.
        trust.record(claim.source, ClaimOutcome::Inconclusive);
        ++result.inconclusive;
        any_inconclusive = true;
      }
    }

    // -- 4. publication ----------------------------------------------------
    publish::Record& r = result.records[col];
    if (decision.verdict == ClaimVerdict::Accepted) {
      r.method = publish::Method::Fused;
      r.tier = core::CbgVerdict::Ok;
      r.location = decision.location;
      r.confidence_radius_km =
          std::min(r.confidence_radius_km,
                   static_cast<float>(options.engine.slack_km));
      r.ttl_s = options.ok_ttl_s;
      r.provenance = decision.provenance + ";" + r.provenance;
    } else if (decision.has_claim) {
      decision.verdict = any_inconclusive ? ClaimVerdict::Inconclusive
                         : any_active_reject
                             ? ClaimVerdict::RejectedActive
                             : ClaimVerdict::RejectedGeometric;
      decision.provenance =
          any_inconclusive
              ? "evidence-inconclusive"
              : "evidence-rejected=" + std::to_string(rejected_here);
      r.provenance += ";" + decision.provenance;
    }
  }

  trust.advance_epoch();
  result.trust = trust;

  static auto& reg = obs::Registry::instance();
  static obs::Counter& c_claims = reg.counter("fusion.claims");
  static obs::Counter& c_accepted = reg.counter("fusion.accepted");
  static obs::Counter& c_rej_geo = reg.counter("fusion.rejected_geometric");
  static obs::Counter& c_rej_act = reg.counter("fusion.rejected_active");
  static obs::Counter& c_inconclusive = reg.counter("fusion.inconclusive");
  static obs::Counter& c_skipped = reg.counter("fusion.skipped_quarantined");
  static obs::Counter& c_pings = reg.counter("fusion.verify_pings");
  static constexpr double kPingBounds[] = {0, 1, 2, 4, 8, 16, 32, 64};
  static obs::Histogram& h_pings =
      reg.histogram("fusion.verify_pings_per_target", kPingBounds);
  c_claims.add(result.claims);
  c_accepted.add(result.accepted);
  c_rej_geo.add(result.rejected_geometric);
  c_rej_act.add(result.rejected_active);
  c_inconclusive.add(result.inconclusive);
  c_skipped.add(result.skipped_quarantined);
  c_pings.add(result.verify_pings);
  if (!evidence.empty()) {
    h_pings.observe(static_cast<double>(result.verify_pings) /
                    static_cast<double>(s.targets().size()));
  }

  result.per_target = std::move(solved.results);
  return result;
}

}  // namespace geoloc::fusion
