// The full street-level campaign over every target, reduced to the records
// the paper's Figures 5a/5c/6a/6b/6c consume, with a disk cache — running
// the three-tier pipeline for 723 targets takes minutes on one core and
// four bench binaries need the same results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/street_level.h"
#include "scenario/scenario.h"

namespace geoloc::eval {

/// Per-target digest of a street-level run.
struct StreetRecord {
  float street_error_km = 0.0F;
  float cbg_error_km = 0.0F;
  /// Closest-landmark-oracle error; negative when no landmark was found
  /// (the paper then substitutes the CBG result).
  float oracle_error_km = -1.0F;
  float elapsed_seconds = 0.0F;
  /// Fraction of tier-2+3 landmarks whose final D1+D2 was negative
  /// (Figure 6a); negative when the target had no measured landmark.
  float negative_fraction = -1.0F;
  /// Pearson correlation between measured and geographic landmark
  /// distances (Figure 5c); computed over usable landmarks, NaN if < 2.
  float pearson = 0.0F;
  std::uint8_t tier_reached = 0;
  bool fell_back_to_cbg = false;
  std::uint32_t landmarks_measured = 0;
  std::uint32_t geocode_queries = 0;
  std::uint32_t websites_tested = 0;
  /// Distance to the nearest landmark the campaign harvested for this
  /// target (Figure 5b, optimistic column); negative when none was found.
  float nearest_landmark_km = -1.0F;
  /// Same, restricted to landmarks within 40 km whose ping from the target
  /// came back under 1 ms (Figure 5b, latency-checked column).
  float nearest_checked_landmark_km = -1.0F;
  /// (geographic km, measured km) per usable landmark — kept only for the
  /// targets the Figure 5c scatter needs; capped to bound the cache size.
  std::vector<std::pair<float, float>> distances;
};

struct StreetCampaign {
  std::vector<StreetRecord> records;  ///< indexed by target column

  /// Disk cache on the durable framed format (util/durable.h): atomic
  /// writes, XXH64-validated reads with bounds-checked decoding, corrupt
  /// files quarantined so the campaign reruns instead of crashing.
  bool save(const std::string& path, std::uint64_t tag) const;
  bool load(const std::string& path, std::uint64_t tag);
};

/// Run (or load from cache) the campaign. `max_distances_per_target` bounds
/// the per-record scatter payload.
const StreetCampaign& street_campaign(const scenario::Scenario& s,
                                      std::size_t max_distances_per_target =
                                          256);

}  // namespace geoloc::eval
