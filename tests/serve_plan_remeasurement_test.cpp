// Equivalence suite for serve::plan_remeasurement: the production planner
// (VPs ranked once per stale prefix behind a squared-chord filter, targets
// found through an address-sorted index, prefixes planned in parallel)
// must emit exactly the request vector of the scan-everything oracle in
// tests/oracles/ — same VPs, same targets, same order — for every pool
// size, budget, tie pattern and prefix shape, at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracles/plan_remeasurement_reference.h"
#include "publish/snapshot.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "serve/geo_service.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace geoloc::serve {
namespace {

using Requests = std::vector<atlas::MeasurementRequest>;

std::unique_ptr<scenario::Scenario> make_scenario(std::uint64_t seed) {
  auto cfg = scenario::small_config(seed);
  cfg.cache_dir = "";
  cfg.build_web = false;
  return std::make_unique<scenario::Scenario>(cfg);
}

/// The scenario's targets' /24s, /16s and /12s, in target order, deduped.
/// The shorter lengths cover several targets at once.
std::vector<net::Prefix> covering_prefixes(const scenario::Scenario& s,
                                           int length) {
  std::vector<net::Prefix> out;
  for (const sim::HostId t : s.targets()) {
    const net::Prefix p{s.world().host(t).addr, length};
    if (std::find(out.begin(), out.end(), p) == out.end()) out.push_back(p);
  }
  return out;
}

/// A prior dataset estimating every `keep_every`-th of `prefixes` (the rest
/// are absent and take the stride fallback). Locations are the first
/// target's true location jittered by up to ~5 degrees, so priors land
/// between VPs as real stale estimates do.
std::shared_ptr<const publish::Snapshot> make_prior(
    const scenario::Scenario& s, std::span<const net::Prefix> prefixes,
    std::size_t keep_every, std::uint64_t seed) {
  util::Pcg32 rng = util::RngStream(seed).gen();
  publish::SnapshotBuilder b;
  for (std::size_t i = 0; i < prefixes.size(); i += keep_every) {
    geo::GeoPoint loc{0.0, 0.0};
    for (const sim::HostId t : s.targets()) {
      if (prefixes[i].contains(s.world().host(t).addr)) {
        loc = s.world().host(t).true_location;
        break;
      }
    }
    publish::Record r;
    r.prefix = prefixes[i];
    r.location = {geo::clamp_lat(loc.lat_deg + rng.uniform(-5.0, 5.0)),
                  geo::normalize_lon(loc.lon_deg + rng.uniform(-5.0, 5.0))};
    r.ttl_s = 100.0f;
    r.provenance = "prior";
    b.add(std::move(r));
  }
  std::string error;
  auto snap = publish::Snapshot::from_bytes(
      b.build(publish::SnapshotMeta{.dataset_version = 1, .source = "prior"}),
      &error);
  EXPECT_NE(snap, nullptr) << error;
  return snap;
}

void expect_same_requests(const Requests& got, const Requests& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  std::size_t mismatches = 0;
  std::size_t first = got.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].vp != want[i].vp || got[i].target != want[i].target ||
        got[i].kind != want[i].kind || got[i].packets != want[i].packets) {
      if (mismatches++ == 0) first = i;
    }
  }
  EXPECT_EQ(mismatches, 0u) << what << ": first mismatch at " << first;
}

/// Both overloads against their oracles for one (stale, prior, pool, k).
void check_both(const scenario::Scenario& s,
                std::span<const net::Prefix> stale,
                const publish::Snapshot& prior,
                std::span<const sim::HostId> vps, std::size_t k,
                const std::string& what) {
  expect_same_requests(
      plan_remeasurement(s, stale, prior, vps, k, 3),
      oracle::plan_remeasurement_reference(s, stale, prior, vps, k, 3),
      what + " proximity k=" + std::to_string(k));
  expect_same_requests(
      plan_remeasurement(s, stale, vps, k, 2),
      oracle::plan_remeasurement_reference(s, stale, vps, k, 2),
      what + " stride k=" + std::to_string(k));
}

std::vector<std::size_t> budgets(std::size_t pool) {
  return {0, 1, 3, 50, pool + 7};
}

TEST(PlanRemeasurement, MatchesOracleAcrossSeedsAndBudgets) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto s = make_scenario(seed);
    // Every target's /24 is stale; the prior knows two thirds of them.
    const auto stale = covering_prefixes(*s, 24);
    ASSERT_GT(stale.size(), 10u);
    const auto prior = make_prior(*s, stale, 1, seed);
    const auto partial = make_prior(*s, stale, 3, seed + 100);
    const std::span<const sim::HostId> vps(s->vps());
    for (const std::size_t k : budgets(vps.size())) {
      check_both(*s, stale, *prior, vps, k, "seed " + std::to_string(seed));
      check_both(*s, stale, *partial, vps, k,
                 "partial prior, seed " + std::to_string(seed));
    }
  }
}

TEST(PlanRemeasurement, CoveringPrefixesShareOneRanking) {
  const auto s = make_scenario(2);
  // /16s, /12s and /8s over the targets, plus overlapping and repeated
  // entries, a single /32 and the whole address space.
  std::vector<net::Prefix> stale;
  for (const int len : {16, 12, 8}) {
    const auto p = covering_prefixes(*s, len);
    stale.insert(stale.end(), p.begin(), p.end());
  }
  const net::IPv4Address first = s->world().host(s->targets()[0]).addr;
  stale.push_back(net::Prefix{first, 24});
  stale.push_back(net::Prefix{first, 32});
  stale.push_back(stale.front());
  stale.push_back(net::Prefix{net::IPv4Address{0}, 0});

  std::size_t shared = 0;
  for (const net::Prefix& p : stale) {
    std::size_t inside = 0;
    for (const sim::HostId t : s->targets()) {
      inside += p.contains(s->world().host(t).addr) ? 1 : 0;
    }
    shared += inside >= 2 ? 1 : 0;
  }
  ASSERT_GE(shared, 3u) << "no stale prefix holds several targets";

  const auto prior = make_prior(*s, stale, 2, 7);
  const std::span<const sim::HostId> vps(s->vps());
  for (const std::size_t k : budgets(vps.size())) {
    check_both(*s, stale, *prior, vps, k, "covering");
  }
}

TEST(PlanRemeasurement, DuplicatedLocationsTieAtTheBoundary) {
  const auto s = make_scenario(3);
  const auto stale = covering_prefixes(*s, 24);
  const auto prior = make_prior(*s, stale, 1, 11);

  // Distinct VPs reporting the same location, in groups of three: every
  // distance occurs in runs of three equal values, so the M-th ranked VP
  // sits inside a tie run for most budgets and only the pool-order
  // tie-break decides which VPs are in.
  const std::vector<sim::HostId> pool = s->vps();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    s->world().misgeolocate(
        pool[i], s->world().host(pool[i - i % 3]).reported_location);
  }
  for (const std::size_t k : budgets(pool.size())) {
    check_both(*s, stale, *prior, pool, k, "shared locations");
  }
  for (const std::size_t k : {2u, 4u, 5u, 7u, 13u, 62u}) {
    check_both(*s, stale, *prior, pool, k, "shared locations");
  }

  // A prior sitting exactly on a VP's reported location: distance zero,
  // shared by the other two VPs of its group.
  publish::SnapshotBuilder b;
  for (std::size_t i = 0; i < stale.size(); ++i) {
    publish::Record r;
    r.prefix = stale[i];
    r.location = s->world().host(pool[i % pool.size()]).reported_location;
    r.provenance = "on-vp";
    b.add(std::move(r));
  }
  std::string error;
  const auto on_vp = publish::Snapshot::from_bytes(
      b.build(publish::SnapshotMeta{.dataset_version = 1, .source = "on-vp"}),
      &error);
  ASSERT_NE(on_vp, nullptr) << error;
  for (const std::size_t k : budgets(pool.size())) {
    check_both(*s, stale, *on_vp, pool, k, "prior on a VP");
  }

  // The same VP three times over in the pool.
  std::vector<sim::HostId> tripled;
  for (const sim::HostId vp : pool) tripled.insert(tripled.end(), {vp, vp, vp});
  for (const std::size_t k : budgets(tripled.size())) {
    check_both(*s, stale, *prior, tripled, k, "tripled");
  }

  // Forty VPs at one location: every key equal, pool order alone ranks.
  const std::vector<sim::HostId> forty(pool.begin(), pool.begin() + 40);
  for (const sim::HostId vp : forty) {
    s->world().misgeolocate(vp, s->world().host(pool[0]).reported_location);
  }
  for (const std::size_t k : budgets(forty.size())) {
    check_both(*s, stale, *prior, forty, k, "single location");
  }
}

TEST(PlanRemeasurement, EmptyInputsPlanNothing) {
  const auto s = make_scenario(1);
  const auto stale = covering_prefixes(*s, 24);
  const auto prior = make_prior(*s, stale, 1, 1);
  const std::span<const sim::HostId> vps(s->vps());
  const std::span<const net::Prefix> no_stale;
  const std::span<const sim::HostId> no_vps;

  EXPECT_TRUE(plan_remeasurement(*s, no_stale, *prior, vps, 50, 3).empty());
  EXPECT_TRUE(plan_remeasurement(*s, stale, *prior, no_vps, 50, 3).empty());
  EXPECT_TRUE(plan_remeasurement(*s, no_stale, vps, 50, 3).empty());
  EXPECT_TRUE(plan_remeasurement(*s, stale, no_vps, 50, 3).empty());
  check_both(*s, no_stale, *prior, vps, 50, "no stale");
  check_both(*s, stale, *prior, no_vps, 50, "no pool");

  // Stale prefixes holding no target plan nothing either.
  const std::vector<net::Prefix> empty_space{
      *net::Prefix::parse("255.255.255.0/24"),
      *net::Prefix::parse("0.0.0.0/32")};
  check_both(*s, empty_space, *prior, vps, 50, "targetless prefixes");
}

TEST(PlanRemeasurement, OutputIsIdenticalAtOneAndEightThreads) {
  const auto s = make_scenario(4);
  auto stale = covering_prefixes(*s, 24);
  const auto wide = covering_prefixes(*s, 12);
  stale.insert(stale.end(), wide.begin(), wide.end());
  const auto prior = make_prior(*s, stale, 2, 4);
  const std::span<const sim::HostId> vps(s->vps());

  std::map<unsigned, Requests> proximity;
  std::map<unsigned, Requests> stride;
  for (const unsigned threads : {1u, 8u}) {
    util::set_thread_count(threads);
    proximity[threads] = plan_remeasurement(*s, stale, *prior, vps, 50, 3);
    stride[threads] = plan_remeasurement(*s, stale, vps, 50, 3);
  }
  util::set_thread_count(0);
  ASSERT_FALSE(proximity[1].empty());
  expect_same_requests(proximity[8], proximity[1], "proximity 8 vs 1");
  expect_same_requests(stride[8], stride[1], "stride 8 vs 1");
}

TEST(PlanRemeasurement, CountsRequestsAndRefinementsOnTheRegistry) {
  const auto s = make_scenario(5);
  const auto stale = covering_prefixes(*s, 24);
  const auto prior = make_prior(*s, stale, 1, 5);
  const std::span<const sim::HostId> vps(s->vps());
  auto& requests = obs::Registry::instance().counter("serve.plan_requests");
  auto& refined = obs::Registry::instance().counter("serve.plan_refined");

  const std::uint64_t r0 = requests.value();
  const std::uint64_t f0 = refined.value();
  const auto plan = plan_remeasurement(*s, stale, *prior, vps, 50, 3);
  EXPECT_EQ(requests.value() - r0, plan.size());
  // Every prefix with a prior refines at least M = k + k/4 candidates,
  // and the filter keeps far fewer than the whole pool.
  const std::uint64_t evaluated = refined.value() - f0;
  EXPECT_GE(evaluated, stale.size() * (50 + 12));
  EXPECT_LT(evaluated, stale.size() * vps.size() / 4);

  // The stride overload counts its requests and refines nothing.
  const std::uint64_t r1 = requests.value();
  const std::uint64_t f1 = refined.value();
  const auto spread = plan_remeasurement(*s, stale, vps, 50, 3);
  EXPECT_EQ(requests.value() - r1, spread.size());
  EXPECT_EQ(refined.value(), f1);
}

TEST(PlanRemeasurement, RequestsInvariantUnderTracing) {
  const auto s = make_scenario(1);
  const auto stale = covering_prefixes(*s, 24);
  const auto prior = make_prior(*s, stale, 2, 9);
  const std::span<const sim::HostId> vps(s->vps());
  const Requests off = plan_remeasurement(*s, stale, *prior, vps, 50, 3);
  obs::set_trace_enabled(true);
  const Requests on = plan_remeasurement(*s, stale, *prior, vps, 50, 3);
  obs::set_trace_enabled(false);
  (void)obs::flush_spans();
  expect_same_requests(on, off, "trace on vs off");
}

}  // namespace
}  // namespace geoloc::serve
