#include "serve/geo_service.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "geo/nearest.h"
#include "util/parallel.h"

namespace geoloc::serve {

namespace {

/// Queue-dedup key: network in the high bits, length below.
std::uint64_t prefix_key(const net::Prefix& p) noexcept {
  return (static_cast<std::uint64_t>(p.network().value()) << 8) |
         static_cast<std::uint64_t>(p.length());
}

std::uint64_t next_service_id() noexcept {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Per-thread snapshot cache: valid while (service, epoch) both match.
struct TlsSnapshotCache {
  std::uint64_t service_id = 0;
  std::uint64_t epoch = 0;
  std::shared_ptr<const publish::Snapshot> snap;
};
thread_local TlsSnapshotCache tls_snapshot_cache;

/// Process-wide serving series on the obs registry, bumped alongside the
/// per-instance counters (both are striped relaxed adds; together they
/// cost two uncontended cache-line writes per lookup).
struct ServeSeries {
  obs::Counter& lookups;
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& stale_hits;
  obs::Counter& snapshot_swaps;
  obs::Counter& ttl_scans;    ///< stale_prefixes() sweeps
  obs::Counter& ttl_expired;  ///< entries found past their TTL by a sweep
  obs::Counter& remeasure_dropped;  ///< pushes shed at the queue cap
  obs::Counter& plan_requests;  ///< requests emitted by plan_remeasurement
  obs::Counter& plan_refined;   ///< exact distance_km calls past the filter
};

ServeSeries& serve_series() {
  static auto& reg = obs::Registry::instance();
  static ServeSeries s{reg.counter("serve.lookups"),
                       reg.counter("serve.hits"),
                       reg.counter("serve.misses"),
                       reg.counter("serve.stale_hits"),
                       reg.counter("serve.snapshot_swaps"),
                       reg.counter("serve.ttl_scans"),
                       reg.counter("serve.ttl_expired"),
                       reg.counter("serve.remeasure_dropped"),
                       reg.counter("serve.plan_requests"),
                       reg.counter("serve.plan_refined")};
  return s;
}

}  // namespace

// -- RemeasureQueue --------------------------------------------------------

RemeasureQueue::RemeasureQueue() : cap_(kDefaultCapacity) {}

RemeasureQueue::RemeasureQueue(std::size_t max_pending) : cap_(max_pending) {}

bool RemeasureQueue::push(net::Prefix prefix) {
  const std::lock_guard<std::mutex> lock(mu_);
  // Dedup first: a re-push of a pending prefix is not a drop.
  if (pending_.contains(prefix_key(prefix))) return false;
  if (cap_ != 0 && queue_.size() >= cap_) {
    dropped_.add();
    serve_series().remeasure_dropped.add();
    return false;
  }
  pending_.insert(prefix_key(prefix));
  queue_.push_back(prefix);
  return true;
}

std::vector<net::Prefix> RemeasureQueue::drain() {
  const std::lock_guard<std::mutex> lock(mu_);
  pending_.clear();
  return std::exchange(queue_, {});
}

std::size_t RemeasureQueue::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

// -- GeoService ------------------------------------------------------------

GeoService::GeoService(std::shared_ptr<const publish::Snapshot> initial)
    : service_id_(next_service_id()), snapshot_(std::move(initial)) {}

void GeoService::publish(std::shared_ptr<const publish::Snapshot> snapshot) {
  {
    const std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snapshot);
  }
  // Bumped after the store: a reader that sees the new epoch refreshes its
  // cache and (through the mutex) sees at least this snapshot.
  epoch_.fetch_add(1, std::memory_order_release);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  serve_series().snapshot_swaps.add();
}

bool GeoService::publish_from_file(const std::string& path,
                                   std::string* error) {
  // Snapshot::load validates before a byte is served and quarantines a
  // corrupt file (renames it to `<path>.corrupt`, util/durable.h): on
  // false the currently served version keeps serving untouched, and the
  // caller's republish lands on a clean path.
  auto snap = publish::Snapshot::load(path, error);
  if (!snap) return false;
  publish(std::move(snap));
  return true;
}

std::shared_ptr<const publish::Snapshot> GeoService::current() const {
  const std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

const std::shared_ptr<const publish::Snapshot>& GeoService::cached_snapshot()
    const {
  // Read the epoch before the (mutex-guarded, cold) snapshot fetch: if
  // another publish lands in between we cache a newer snapshot under the
  // older epoch and simply revalidate on the next lookup.
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  TlsSnapshotCache& cache = tls_snapshot_cache;
  if (cache.service_id != service_id_ || cache.epoch != epoch) {
    cache.snap = current();
    cache.service_id = service_id_;
    cache.epoch = epoch;
  }
  return cache.snap;
}

Answer GeoService::answer_from(
    const std::shared_ptr<const publish::Snapshot>& snap,
    net::IPv4Address address, double now_s) const {
  ServeSeries& series = serve_series();
  counters_.lookups.add();
  series.lookups.add();
  Answer a;
  if (!snap) {
    counters_.misses.add();
    series.misses.add();
    return a;
  }
  const auto hit = snap->find(address);
  if (!hit) {
    counters_.misses.add();
    series.misses.add();
    return a;
  }
  counters_.hits.add();
  series.hits.add();
  a.found = true;
  a.prefix = hit->prefix;
  a.location = hit->location;
  a.method = hit->method;
  a.tier = hit->tier;
  a.confidence_radius_km = hit->confidence_radius_km;
  a.provenance = hit->provenance;
  a.age_s = hit->age_s(now_s);
  a.dataset_version = snap->dataset_version();
  a.source = snap;
  if (hit->stale_at(now_s)) {
    a.stale = true;
    counters_.stale_hits.add();
    series.stale_hits.add();
    queue_.push(hit->prefix);
  }
  return a;
}

Answer GeoService::lookup(net::IPv4Address address, double now_s) const {
  return answer_from(cached_snapshot(), address, now_s);
}

void GeoService::lookup_batch(std::span<const net::IPv4Address> addresses,
                              double now_s, std::span<Answer> out) const {
  const auto& snap = cached_snapshot();
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    out[i] = answer_from(snap, addresses[i], now_s);
  }
}

ServiceStats GeoService::stats() const {
  ServiceStats s;
  s.lookups = counters_.lookups.value();
  s.hits = counters_.hits.value();
  s.misses = counters_.misses.value();
  s.stale_hits = counters_.stale_hits.value();
  s.swaps = swaps_.load(std::memory_order_relaxed);
  return s;
}

std::vector<net::Prefix> GeoService::stale_prefixes(double now_s) const {
  std::vector<net::Prefix> out;
  const auto snap = current();
  if (!snap) return out;
  for (std::size_t i = 0; i < snap->size(); ++i) {
    const publish::SnapshotEntry e = snap->entry(i);
    if (e.stale_at(now_s)) out.push_back(e.prefix);
  }
  ServeSeries& series = serve_series();
  series.ttl_scans.add();
  series.ttl_expired.add(out.size());
  return out;
}

// -- re-measurement bridge -------------------------------------------------

std::vector<atlas::MeasurementRequest> plan_remeasurement(
    const scenario::Scenario& s, std::span<const net::Prefix> stale,
    std::size_t vps_per_target, int packets) {
  return plan_remeasurement(s, stale, std::span<const sim::HostId>(s.vps()),
                            vps_per_target, packets);
}

namespace {

/// The planner behind both pool overloads. Every target inside a stale
/// prefix gets `k` requests: the stride spread when `prior` is null or has
/// no estimate for the prefix, else the guards plus the nearest pool VPs
/// to the prior estimate. Output order: stale-list order, then target
/// column order within a prefix.
std::vector<atlas::MeasurementRequest> plan_requests(
    const scenario::Scenario& s, std::span<const net::Prefix> stale,
    const publish::Snapshot* prior, std::span<const sim::HostId> vps,
    std::size_t vps_per_target, int packets) {
  std::vector<atlas::MeasurementRequest> requests;
  if (vps.empty() || stale.empty()) return requests;
  const std::size_t n_vps = vps.size();
  const std::size_t k =
      vps_per_target == 0 ? n_vps : std::min(vps_per_target, n_vps);
  // Spread VPs deterministically: stride through the pool from a
  // per-target offset so successive targets reuse different VPs.
  const std::size_t stride = n_vps / k ? n_vps / k : 1;
  // Guard VPs: a quarter of the budget stays globally spread so a prefix
  // that moved continents since `prior` still gets constraints near its
  // *new* home; without them every selected VP sits near the stale
  // estimate and the fix can't escape it.
  const std::size_t guards = k > 1 ? std::max<std::size_t>(1, k / 4) : 0;
  // Guards can displace at most `guards` of the ranked VPs, so the top
  // M by (distance, pool index) is all a target ever reads.
  const std::size_t m = std::min(n_vps, k + guards);

  // Targets by address: a prefix's targets are one contiguous run.
  const auto& targets = s.targets();
  std::vector<std::pair<std::uint32_t, std::size_t>> by_addr(targets.size());
  for (std::size_t col = 0; col < targets.size(); ++col) {
    by_addr[col] = {s.world().host(targets[col]).addr.value(), col};
  }
  std::sort(by_addr.begin(), by_addr.end());

  // Each prefix's run in by_addr and its first slot in the output.
  struct Slice {
    std::size_t lo = 0, hi = 0, out = 0;
  };
  std::vector<Slice> slices(stale.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < stale.size(); ++i) {
    const std::uint64_t first = stale[i].network().value();
    const std::uint64_t last = first + stale[i].size() - 1;
    const auto lo = std::lower_bound(
        by_addr.begin(), by_addr.end(), first,
        [](const auto& e, std::uint64_t a) { return e.first < a; });
    const auto hi = std::upper_bound(
        lo, by_addr.end(), last,
        [](std::uint64_t a, const auto& e) { return a < e.first; });
    slices[i] = {static_cast<std::size_t>(lo - by_addr.begin()),
                 static_cast<std::size_t>(hi - by_addr.begin()), total};
    total += static_cast<std::size_t>(hi - lo) * k;
  }
  requests.resize(total);

  // One ranker per call: churn changes the pool every epoch.
  geo::NearestRanker ranker;
  if (prior != nullptr) {
    std::vector<geo::GeoPoint> vp_locs;
    vp_locs.reserve(n_vps);
    for (const sim::HostId vp : vps) {
      vp_locs.push_back(s.world().host(vp).reported_location);
    }
    ranker = geo::NearestRanker(vp_locs);
  }

  std::vector<std::size_t> refined(stale.size(), 0);
  util::parallel_for(stale.size(), [&](std::size_t i) {
    const Slice& sl = slices[i];
    if (sl.lo == sl.hi) return;
    std::vector<std::size_t> cols;
    cols.reserve(sl.hi - sl.lo);
    for (std::size_t t = sl.lo; t < sl.hi; ++t) {
      cols.push_back(by_addr[t].second);
    }
    std::sort(cols.begin(), cols.end());
    atlas::MeasurementRequest* out = requests.data() + sl.out;
    const auto emit = [&](std::size_t row, std::size_t col) {
      *out++ = atlas::MeasurementRequest{.vp = vps[row],
                                         .target = targets[col],
                                         .kind = atlas::MeasurementKind::Ping,
                                         .packets = packets};
    };

    const auto hit = prior != nullptr ? prior->find(stale[i].network())
                                      : std::nullopt;
    if (!hit) {
      // No prior estimate (a prefix new to the dataset): stride spread.
      for (const std::size_t col : cols) {
        for (std::size_t j = 0; j < k; ++j) {
          emit((col + j * stride) % n_vps, col);
        }
      }
      return;
    }

    // Rank once per prefix, by (distance, pool index).
    const std::vector<geo::NearestRanker::Ranked> ranked =
        ranker.rank(hit->location, m);
    refined[i] = ranked.size();

    std::vector<std::size_t> rows;
    rows.reserve(k);
    const auto take = [&rows](std::size_t row) {
      if (std::find(rows.begin(), rows.end(), row) == rows.end()) {
        rows.push_back(row);
      }
    };
    for (const std::size_t col : cols) {
      rows.clear();
      for (std::size_t j = 0; j < guards; ++j) take((col + j * stride) % n_vps);
      for (std::size_t j = 0; j < ranked.size() && rows.size() < k; ++j) {
        take(ranked[j].second);
      }
      for (const std::size_t row : rows) emit(row, col);
    }
  });

  ServeSeries& series = serve_series();
  series.plan_requests.add(requests.size());
  series.plan_refined.add(
      std::accumulate(refined.begin(), refined.end(), std::size_t{0}));
  return requests;
}

}  // namespace

std::vector<atlas::MeasurementRequest> plan_remeasurement(
    const scenario::Scenario& s, std::span<const net::Prefix> stale,
    std::span<const sim::HostId> vps, std::size_t vps_per_target,
    int packets) {
  return plan_requests(s, stale, nullptr, vps, vps_per_target, packets);
}

std::vector<atlas::MeasurementRequest> plan_remeasurement(
    const scenario::Scenario& s, std::span<const net::Prefix> stale,
    const publish::Snapshot& prior, std::span<const sim::HostId> vps,
    std::size_t vps_per_target, int packets) {
  return plan_requests(s, stale, &prior, vps, vps_per_target, packets);
}

}  // namespace geoloc::serve
