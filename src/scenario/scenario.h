// The fully assembled replication scenario: world + datasets + models.
//
// Construction follows the paper's data pipeline:
//   1. build the world (places, ASes),
//   2. generate anchors and probes (dataset::build_catalog) — including the
//      hosts with bogus geolocation that Section 4.3 exists to catch,
//   3. build the hitlist representatives for every anchor /24,
//   4. generate the web ecosystem (street-level landmark candidates),
//   5. sanitise anchors then probes (speed-of-Internet mesh filtering),
//   6. expose the sanitised target and VP sets every experiment consumes.
//
// The two measurement campaigns shared by the experiments — min-RTT from
// every VP to every target, and to every target's /24 representatives —
// are materialised lazily as dense matrices and cached on disk, because a
// single core re-deriving ~30M RTT samples per bench binary would dominate
// every run.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dataset/catalog.h"
#include "dataset/hitlist.h"
#include "dataset/population_grid.h"
#include "dataset/sanitize.h"
#include "landmark/ecosystem.h"
#include "landmark/mapping_service.h"
#include "scenario/rtt_matrix.h"
#include "sim/latency_model.h"
#include "sim/world.h"

namespace geoloc::scenario {

/// The default directory for cached RTT matrices ("geoloc_cache"): the one
/// definition ScenarioConfig and the bench mains share.
[[nodiscard]] const std::string& default_cache_dir();

struct ScenarioConfig {
  std::uint64_t seed = 20230415;
  sim::WorldConfig world;
  dataset::CatalogConfig catalog;
  dataset::HitlistConfig hitlist;
  sim::LatencyModelConfig latency;
  landmark::EcosystemConfig web;
  bool build_web = true;   ///< skip the web ecosystem when not needed
  int ping_packets = 3;    ///< Atlas default per measurement
  /// Directory for cached RTT matrices; empty disables the cache. The
  /// GEOLOC_CACHE_DIR environment variable, when set, overrides this.
  std::string cache_dir = default_cache_dir();

  /// Stable fingerprint of everything that affects generated data; used as
  /// the disk-cache tag.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config = {});

  /// A scenario without the web ecosystem (million-scale experiments only):
  /// cheaper to build.
  static Scenario without_web(ScenarioConfig config = {});

  [[nodiscard]] const ScenarioConfig& config() const noexcept { return config_; }

  [[nodiscard]] sim::World& world() noexcept { return *world_; }
  [[nodiscard]] const sim::World& world() const noexcept { return *world_; }
  [[nodiscard]] const sim::LatencyModel& latency() const noexcept {
    return *latency_;
  }
  [[nodiscard]] const dataset::Catalog& catalog() const noexcept {
    return catalog_;
  }
  [[nodiscard]] const dataset::Hitlist& hitlist() const noexcept {
    return *hitlist_;
  }
  [[nodiscard]] const landmark::MappingService& mapping() const noexcept {
    return mapping_;
  }
  /// Precondition: the scenario was built with build_web.
  [[nodiscard]] const landmark::WebEcosystem& web() const;
  [[nodiscard]] bool has_web() const noexcept { return web_ != nullptr; }
  [[nodiscard]] const dataset::PopulationGrid& population() const;

  // -- sanitised datasets (Section 4.3 outputs) ----------------------------
  /// The study's targets: sanitised anchors (723 by default).
  [[nodiscard]] const std::vector<sim::HostId>& targets() const noexcept {
    return targets_;
  }
  /// Million-scale VP set: sanitised probes + anchors.
  [[nodiscard]] const std::vector<sim::HostId>& vps() const noexcept {
    return vps_;
  }
  /// Street-level VP set: the anchors only (Section 4.2.1 of the paper).
  [[nodiscard]] const std::vector<sim::HostId>& anchor_vps() const noexcept {
    return targets_;
  }
  [[nodiscard]] const dataset::SanitizeResult& anchor_sanitisation()
      const noexcept {
    return anchor_sanitisation_;
  }
  [[nodiscard]] const dataset::SanitizeResult& probe_sanitisation()
      const noexcept {
    return probe_sanitisation_;
  }

  // -- measurement campaigns ----------------------------------------------
  // Materialisation runs on the parallel engine (bit-identical for any
  // GEOLOC_THREADS; see DESIGN.md §9), but the lazy-init itself is not
  // guarded: touch each matrix once from a single thread before sharing the
  // scenario across parallel tasks — the eval entry points do this.
  /// Min RTT (ping_packets packets) from vps()[r] to targets()[c].
  [[nodiscard]] const RttMatrix& target_rtts() const;
  /// Median over the responsive /24 representatives of targets()[c] of the
  /// min RTT from vps()[r]; NaN when no representative answered.
  [[nodiscard]] const RttMatrix& representative_rtts() const;

  /// Row index of a VP / column index of a target in the matrices.
  [[nodiscard]] std::size_t vp_index(sim::HostId vp) const;
  [[nodiscard]] std::size_t target_index(sim::HostId target) const;

  /// Drop the materialised RTT matrices and detach this scenario from the
  /// disk cache. Required after mutating the world (sim::ChurnModel): the
  /// matrices describe the pre-mutation world, and the disk cache is keyed
  /// by the *config* fingerprint, which does not see world mutations — a
  /// churned scenario must neither read nor write it.
  void invalidate_rtt_matrices();

  /// 0 while the world is the one config() builds; after each
  /// invalidate_rtt_matrices(), a process-unique nonzero id. In-process
  /// memos keyed by the config fingerprint must key on this too, or a
  /// mutated world gets the unmutated world's results back.
  [[nodiscard]] std::uint64_t world_version() const noexcept {
    return world_version_;
  }

  /// Disk-cache file "<dir>/<name>-<config fingerprint>.bin" for a campaign
  /// derived from this scenario. The dir is GEOLOC_CACHE_DIR, else
  /// config().cache_dir; nullopt when that is empty, cannot be created, or
  /// the cache is off after invalidate_rtt_matrices().
  [[nodiscard]] std::optional<std::string> cache_path(
      const std::string& name) const;

 private:
  Scenario(ScenarioConfig config, bool build_web);
  void build();

  ScenarioConfig config_;
  std::unique_ptr<sim::World> world_;
  dataset::Catalog catalog_;
  std::unique_ptr<dataset::Hitlist> hitlist_;
  landmark::MappingService mapping_;
  std::unique_ptr<landmark::WebEcosystem> web_;
  std::unique_ptr<sim::LatencyModel> latency_;
  mutable std::unique_ptr<dataset::PopulationGrid> population_;

  dataset::SanitizeResult anchor_sanitisation_;
  dataset::SanitizeResult probe_sanitisation_;
  std::vector<sim::HostId> targets_;
  std::vector<sim::HostId> vps_;
  std::unordered_map<sim::HostId, std::size_t> vp_index_;
  std::unordered_map<sim::HostId, std::size_t> target_index_;

  mutable std::unique_ptr<RttMatrix> target_rtts_;
  mutable std::unique_ptr<RttMatrix> rep_rtts_;
  /// Set by invalidate_rtt_matrices(): the config fingerprint no longer
  /// describes the (mutated) world, so the disk cache is off for good,
  /// GEOLOC_CACHE_DIR override included.
  bool cache_disabled_ = false;
  std::uint64_t world_version_ = 0;
};

}  // namespace geoloc::scenario
