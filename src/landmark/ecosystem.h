// The synthetic web ecosystem: websites of points of interest (businesses,
// universities, government offices) with a postal address, a hosting type,
// and — for sites that pass the street-level paper's locality tests — a
// serving host in the simulated world.
//
// Hosting mix and test outcomes are calibrated so the IMC'23 observations
// emerge from the pipeline: ~2-4% of tested websites pass the
// locally-hosted tests (paper: 2.5%), and false passes (CDN/remote sites
// that slip through) have serving infrastructure far from their postal
// address, which is what poisons the tier-3 minimum-delay mapping.
//
// Lookup paths run against spatial::BucketIndex structures (recorded-zip
// zone buckets for websites_in_zip, 1-degree poi-location cells for
// passing_near); the equivalence suite pins both to the original
// linear/hash-grid scans (tests/oracles/web_ecosystem_reference.h).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "landmark/mapping_service.h"
#include "sim/world.h"
#include "spatial/bucket_index.h"

namespace geoloc::landmark {

enum class HostingType : std::uint8_t {
  Local,             ///< served on premises, at the postal address
  Cdn,               ///< served by a CDN edge
  RemoteDatacenter,  ///< served from a rented server elsewhere
};
std::string_view to_string(HostingType t) noexcept;

using WebsiteId = std::uint32_t;

struct Website {
  WebsiteId id = 0;
  sim::PlaceId place = 0;
  geo::GeoPoint poi_location;   ///< where the point of interest really is
  std::string recorded_zip;     ///< zip of the postal address on record
  HostingType hosting = HostingType::Cdn;
  bool chain = false;           ///< appears in multiple zips (franchise)
  bool detected_nonlocal = false;  ///< CDN/remote check would flag it
  bool zip_mismatch = false;    ///< postal address disagrees with location
  bool passes_tests = false;    ///< precomputed outcome of all three tests
  sim::HostId server = sim::kInvalidHost;  ///< created for passing sites only
};

struct EcosystemConfig {
  /// Websites per 1000 inhabitants of a place.
  double websites_per_1k_pop = 0.15;
  int max_websites_per_place = 4'500;
  int min_websites_per_city = 6;

  /// Placement: websites cluster at urban hotspots like anchors do.
  double hotspot_prob = 0.8;
  double hotspot_spread_km = 0.9;
  double loose_spread_km = 5.0;

  /// Hosting mix (remainder = RemoteDatacenter).
  double local_share = 0.05;
  double cdn_share = 0.62;

  /// Locality-test behaviour.
  double chain_rate = 0.09;
  double zip_mismatch_rate = 0.50;   ///< postal address in another zone
  double cdn_detect_rate = 0.985;    ///< test 2 catches a CDN site
  double remote_detect_rate = 0.96;  ///< shared-infra heuristics catch a remote site
  double local_false_detect_rate = 0.02;

  /// Serving infrastructure.
  int cdn_pop_count = 40;            ///< CDN edges at the biggest cities
  int datacenter_hub_count = 60;     ///< candidate remote-hosting cities
  double webserver_last_mile_min_ms = 0.05;
  double webserver_last_mile_max_ms = 0.55;
};

class WebEcosystem {
 public:
  /// Generate the ecosystem. Mutates `world` (creates server hosts for
  /// passing websites). `mapping` defines the zip zones used for the
  /// recorded addresses.
  static WebEcosystem build(sim::World& world, const MappingService& mapping,
                            const EcosystemConfig& config = {});

  [[nodiscard]] std::span<const Website> websites() const noexcept {
    return websites_;
  }
  [[nodiscard]] const Website& website(WebsiteId id) const {
    return websites_.at(id);
  }

  /// Websites whose recorded postal address falls in `zip` (the Overpass
  /// "amenities with a website near this zip" query of the replication).
  /// Ascending ID; one zone-bucket lookup. Only the canonical spelling of
  /// a zone key matches (see spatial::ZipGrid).
  [[nodiscard]] std::span<const WebsiteId> websites_in_zip(
      const std::string& zip) const;

  /// Concatenation of websites_in_zip over the zone and its 8 neighbours,
  /// in the harvester's zone scan order — the per-sample-point website
  /// query of the tier-2/3 pipeline.
  [[nodiscard]] std::vector<WebsiteId> websites_near_zip(
      const MappingService& mapping, const std::string& zip) const;

  /// Passing websites whose *postal address* is within `radius_km` of `p` —
  /// used by the closest-landmark oracle and the Figure 5b proximity table.
  /// The original hash-grid scan: the 1-degree probe cells in scan order,
  /// each cell's sites in ascending ID, filtered by exact distance.
  [[nodiscard]] std::vector<WebsiteId> passing_near(const geo::GeoPoint& p,
                                                    double radius_km) const;

  [[nodiscard]] std::size_t total_count() const noexcept {
    return websites_.size();
  }
  [[nodiscard]] std::size_t passing_count() const noexcept {
    return passing_count_;
  }

 private:
  std::vector<Website> websites_;
  /// recorded-zip zone key -> website IDs.
  spatial::BucketIndex zip_index_;
  /// 1-degree poi-location cell -> passing website IDs.
  spatial::BucketIndex passing_index_;
  spatial::ZipGrid grid_{0.045};  ///< copy of the mapping service's grid
  std::size_t passing_count_ = 0;
};

}  // namespace geoloc::landmark
