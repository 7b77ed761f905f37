// The lookup frontend the ROADMAP's "serve heavy traffic" north star asks
// for: answer IP -> location queries from a published snapshot at memory
// speed, swap in new snapshot versions without blocking readers, and feed
// entries that outlive their TTL back into the measurement pipeline.
//
// Concurrency model (RCU via shared_ptr):
//   * The current snapshot lives behind one hot-swappable shared_ptr.
//     publish() stores a new snapshot; readers that already hold the old
//     pointer keep their reference, so the old version stays valid until
//     the last in-flight answer drops it — no torn reads, no waiting for
//     readers.
//   * Every Answer carries the shared_ptr it was served from, so its
//     provenance string_view (which points into the snapshot's buffer)
//     stays valid for the answer's lifetime even across a hot swap.
//   * Steady-state lookups are lock-free: each reader thread caches the
//     shared_ptr, validated against a service epoch counter that publish()
//     bumps, so a lookup touches only the (read-shared, uncontended) epoch
//     word. The swap slot itself is a shared_ptr under a mutex, taken once
//     per swap per thread on the refresh path — deliberately NOT
//     std::atomic<std::shared_ptr>: libstdc++ implements that with a
//     pointer-bit spinlock whose load() unlocks with relaxed ordering, so
//     ThreadSanitizer (correctly, under the formal model) flags the
//     reader/writer pointer accesses as unordered. A plain mutex on this
//     cold path costs nothing and keeps the whole service TSan-provable.
//   * Counters live on the obs metrics layer (obs/metrics.h), which
//     hoisted this service's original cache-line-striped design: each
//     service keeps per-instance obs::Counter cells for stats(), and the
//     process-wide serve.* registry series (hits / misses / stale hits /
//     TTL expiries) are bumped alongside. The stale-prefix queue is the
//     only mutex in the system, taken on the (rare) stale-hit path.
//
// Staleness: each entry's measured_at_s + ttl_s is its freshness horizon,
// inclusive (stale iff now >= horizon; ttl_s == 0 disables staleness) —
// see SnapshotEntry::stale_horizon_s for the single definition every
// consumer shares.
// A lookup past the horizon still answers (stale data beats no data — the
// snapshot consumer decides) but flags the answer, bumps a counter and
// enqueues the prefix for re-measurement. plan_remeasurement() turns the
// drained queue into atlas MeasurementRequests; the campaign executor runs
// them and publish::refresh_entries() compiles the results into the next
// snapshot version.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_set>
#include <vector>

#include "atlas/scheduler.h"
#include "obs/metrics.h"
#include "publish/snapshot.h"
#include "scenario/scenario.h"

namespace geoloc::serve {

/// One served answer. Holds a reference to the snapshot it came from, so
/// the `provenance` view outlives hot swaps.
struct Answer {
  bool found = false;
  net::Prefix prefix;
  geo::GeoPoint location;
  publish::Method method = publish::Method::Cbg;
  core::CbgVerdict tier = core::CbgVerdict::Ok;
  float confidence_radius_km = 0.0f;
  std::string_view provenance;
  double age_s = 0.0;
  bool stale = false;
  std::uint32_t dataset_version = 0;
  std::shared_ptr<const publish::Snapshot> source;  ///< keeps views alive
};

/// Monotonic service counters (copied out under no lock; values are
/// individually consistent, not mutually).
struct ServiceStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stale_hits = 0;
  std::uint64_t swaps = 0;
};

/// Deduplicating queue of prefixes awaiting re-measurement. Thread-safe.
///
/// Bounded: past `capacity()` pending prefixes, further pushes are dropped
/// (counted on `dropped()` and the process-wide "serve.remeasure_dropped"
/// series) instead of growing without limit — a stale-heavy workload
/// hitting a network-facing server must not become a memory-exhaustion
/// vector. Drops are safe to shed: a dropped prefix simply re-queues on
/// its next stale hit after a drain.
class RemeasureQueue {
 public:
  static constexpr std::size_t kDefaultCapacity = 65536;

  /// Bound of kDefaultCapacity pending prefixes.
  RemeasureQueue();
  /// Explicit bound; 0 = unbounded.
  explicit RemeasureQueue(std::size_t max_pending);

  /// Enqueue; false when the prefix is already pending or was dropped at
  /// the capacity bound.
  bool push(net::Prefix prefix);
  /// Take everything currently queued (clears the pending set).
  std::vector<net::Prefix> drain();
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }
  /// Total prefixes dropped at the capacity bound since construction.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.value();
  }

 private:
  const std::size_t cap_;
  mutable std::mutex mu_;
  std::vector<net::Prefix> queue_;
  std::unordered_set<std::uint64_t> pending_;
  obs::Counter dropped_;
};

class GeoService {
 public:
  explicit GeoService(
      std::shared_ptr<const publish::Snapshot> initial = nullptr);

  /// Atomically swap the served snapshot. Lock-free readers in flight keep
  /// the version they already loaded.
  void publish(std::shared_ptr<const publish::Snapshot> snapshot);

  /// Load a snapshot file (publish::Snapshot::load, fully validated) and
  /// publish it. On a corrupt file the load quarantines it to
  /// `<path>.corrupt` and this returns false with the previously served
  /// snapshot untouched — the swap is all-or-nothing.
  bool publish_from_file(const std::string& path, std::string* error = nullptr);

  /// The currently served snapshot (may be null before the first publish).
  [[nodiscard]] std::shared_ptr<const publish::Snapshot> current() const;

  /// Serve one lookup at simulated time `now_s`. Stale hits are flagged
  /// and their prefix is enqueued for re-measurement.
  [[nodiscard]] Answer lookup(net::IPv4Address address, double now_s) const;

  /// Serve a batch against one consistent snapshot version (a single
  /// atomic load for the whole span). Precondition: out.size() >=
  /// addresses.size().
  void lookup_batch(std::span<const net::IPv4Address> addresses, double now_s,
                    std::span<Answer> out) const;

  [[nodiscard]] ServiceStats stats() const;

  /// The stale-prefix queue fed by lookups. Drain it, plan a campaign,
  /// publish the refreshed snapshot.
  [[nodiscard]] RemeasureQueue& remeasure_queue() const { return queue_; }

  /// All entries of the current snapshot past their TTL at `now_s` —
  /// the proactive (scan-based) variant of staleness detection, for
  /// operators that re-measure on a schedule instead of on demand.
  [[nodiscard]] std::vector<net::Prefix> stale_prefixes(double now_s) const;

 private:
  /// Per-instance counters (obs::Counter is cache-line striped internally,
  /// the original CounterCell design hoisted into the obs layer).
  struct Counters {
    obs::Counter lookups;
    obs::Counter hits;
    obs::Counter misses;
    obs::Counter stale_hits;
  };

  Answer answer_from(const std::shared_ptr<const publish::Snapshot>& snap,
                     net::IPv4Address address, double now_s) const;
  /// This thread's cached snapshot pointer, revalidated against epoch_.
  [[nodiscard]] const std::shared_ptr<const publish::Snapshot>&
  cached_snapshot() const;

  const std::uint64_t service_id_;  ///< keys the thread-local caches
  mutable std::mutex snapshot_mu_;  ///< guards snapshot_ (cold path only)
  std::shared_ptr<const publish::Snapshot> snapshot_;
  std::atomic<std::uint64_t> epoch_{1};
  mutable RemeasureQueue queue_;
  mutable Counters counters_;
  std::atomic<std::uint64_t> swaps_{0};
};

/// Turn stale prefixes back into an atlas campaign: for every scenario
/// target inside a stale prefix, ping it from `vps_per_target` VPs (spread
/// deterministically over the scenario's VP set). The result feeds
/// publish::refresh_entries(). Every overload bumps the process-wide
/// "serve.plan_requests" counter by the number of requests it returns.
std::vector<atlas::MeasurementRequest> plan_remeasurement(
    const scenario::Scenario& s, std::span<const net::Prefix> stale,
    std::size_t vps_per_target = 50, int packets = 3);

/// Same, but measuring from an explicit VP pool instead of the scenario's
/// built-in set — the longitudinal driver passes the churn model's
/// *active* VPs (decommissioned probes removed, newly added ones in).
std::vector<atlas::MeasurementRequest> plan_remeasurement(
    const scenario::Scenario& s, std::span<const net::Prefix> stale,
    std::span<const sim::HostId> vps, std::size_t vps_per_target,
    int packets);

/// Same, but with proximity VP selection: for each stale prefix, ping from
/// the `vps_per_target` pool VPs whose reported location is closest to the
/// prefix's *prior* published estimate (Section 3's result that nearby VPs
/// carry nearly all of CBG's accuracy at a fraction of the cost). Prefixes
/// absent from `prior` fall back to the deterministic stride spread.
///
/// Ranking contract, per target (k = vps_per_target, 0 or > pool = all):
///   1. max(1, k/4) stride guards first (none when k == 1), strided
///      through the pool from the target's column, duplicates dropped;
///   2. then pool VPs in ascending geo::distance_km(VP reported location,
///      prior location) — that argument order — ties broken by pool
///      order, skipping guards already taken, until k are chosen.
/// Step 2 ranks through one geo::NearestRanker, built per call over `vps`.
/// Requests come in stale-list order, then target column order, k per
/// target. The output is identical at any GEOLOC_THREADS: prefixes are
/// planned in parallel, each into its own precomputed output slice.
std::vector<atlas::MeasurementRequest> plan_remeasurement(
    const scenario::Scenario& s, std::span<const net::Prefix> stale,
    const publish::Snapshot& prior, std::span<const sim::HostId> vps,
    std::size_t vps_per_target, int packets);

}  // namespace geoloc::serve
