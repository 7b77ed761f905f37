// The postal-zone grid behind MappingService: "Z%05dx%05d" zone keys over
// a fixed-degree lat/lon lattice.
//
// Key geometry (unchanged from the original MappingService formulas, which
// every recorded_zip in existing artifacts depends on):
//   lat_cell = floor((lat + 90) / cell_deg)
//   lon_cell = floor((lon + 180) / cell_deg)
//
// Parsing is strict: a key is 'Z', a lat field, 'x', a lon field — each
// field an optionally-negative decimal integer, at least 5 characters
// (zero-padded, matching the formatter), fully consumed. Trailing garbage
// ("Z00001x00002junk") and short fields ("Z1x2") are rejected; the
// sscanf-based parser this replaces accepted both. Fields wider than 5
// characters parse too (format emits them for wide values), so a key has
// more than one accepted spelling; format(key) is the canonical one.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "geo/geopoint.h"

namespace geoloc::spatial {

class ZipGrid {
 public:
  explicit ZipGrid(double cell_deg) : cell_deg_(cell_deg) {}

  struct Key {
    int lat_cell = 0;
    int lon_cell = 0;
    friend constexpr bool operator==(const Key&, const Key&) = default;
  };

  /// Zone containing `p` (the zone_of floor arithmetic, verbatim).
  [[nodiscard]] Key key_of(const geo::GeoPoint& p) const;

  /// "Z%05dx%05d". Values wider than 5 digits keep all their digits.
  [[nodiscard]] std::string format(const Key& key) const;

  /// Strict inverse of format (see header comment). nullopt on any
  /// malformed input.
  [[nodiscard]] static std::optional<Key> parse(std::string_view zip);

  /// The zone and its 8 neighbours in the legacy (dlat, dlon) scan order;
  /// {zip} for a malformed key — the MappingService::neighbor_zones
  /// contract.
  [[nodiscard]] std::vector<std::string> neighbor_zones(
      const std::string& zip) const;

  [[nodiscard]] double cell_deg() const noexcept { return cell_deg_; }

 private:
  double cell_deg_;
};

}  // namespace geoloc::spatial
