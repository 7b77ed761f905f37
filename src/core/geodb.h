// Simulated commercial geolocation databases (paper Section 6, Figure 7).
//
// Each profile reproduces the *error process* the paper measured against
// its 723 anchors — MaxMind free: 55% of targets within city level (40 km)
// with a heavy wrong-metro/wrong-country tail; IPinfo: 89% within city
// level, built (per the paper's exchange with IPinfo) from latency
// measurements refined with DNS / WHOIS / geofeed hints. Every entry keeps
// its provenance string, the explainability the paper asks databases for.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "net/flat_lpm.h"
#include "scenario/scenario.h"

namespace geoloc::core {

enum class GeoDbProfile { MaxMindFree, IPinfo };
std::string_view to_string(GeoDbProfile p) noexcept;

struct GeoDbEntry {
  geo::GeoPoint location;
  std::string_view source;  ///< "latency", "dns", "whois", "geofeed", ...
};

class GeoDatabase {
 public:
  /// Build the database covering the scenario's targets.
  static GeoDatabase build(const scenario::Scenario& s, GeoDbProfile profile);

  /// Longest-prefix-match lookup.
  [[nodiscard]] std::optional<GeoDbEntry> lookup(net::IPv4Address a) const;

  [[nodiscard]] GeoDbProfile profile() const noexcept { return profile_; }
  /// Distinct prefixes (a prefix drawn twice keeps its last entry).
  [[nodiscard]] std::size_t size() const noexcept { return table_.size(); }

 private:
  GeoDatabase(GeoDbProfile profile, net::FlatLpm<GeoDbEntry> table)
      : profile_(profile), table_(std::move(table)) {}

  GeoDbProfile profile_;
  net::FlatLpm<GeoDbEntry> table_;
};

}  // namespace geoloc::core
