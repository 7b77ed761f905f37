// Test oracle: the linear scans landmark::WebEcosystem's index-backed
// lookups replaced, kept as the reference the spatial equivalence suite
// pins websites_in_zip and passing_near against — same contents, same
// order. The 1-degree cell key and probe footprint of the original
// hash-grid scan are copied here, so the reference does not share the
// production arithmetic. Use only in tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "geo/geodesy.h"
#include "landmark/ecosystem.h"

namespace geoloc::landmark::oracle {

/// The original coarse 1-degree cell key.
inline std::int64_t cell_of(const geo::GeoPoint& p) {
  const auto lat = static_cast<std::int64_t>(std::floor(p.lat_deg)) + 90;
  const auto lon = static_cast<std::int64_t>(std::floor(p.lon_deg)) + 180;
  return lat * 4096 + lon;
}

/// The 1-degree cell keys the original hash-grid scan probes for a
/// (p, radius_km) query, in its (lat, lon) scan order, duplicates kept.
inline std::vector<std::int64_t> probe_cells(const geo::GeoPoint& p,
                                             double radius_km) {
  const double dlat = radius_km / 111.0;
  const double dlon =
      radius_km / std::max(20.0, 111.0 * std::cos(geo::deg_to_rad(p.lat_deg)));
  const int lat_lo = static_cast<int>(std::floor(p.lat_deg - dlat));
  const int lat_hi = static_cast<int>(std::floor(p.lat_deg + dlat));
  const int lon_lo = static_cast<int>(std::floor(p.lon_deg - dlon));
  const int lon_hi = static_cast<int>(std::floor(p.lon_deg + dlon));
  std::vector<std::int64_t> probes;
  for (int lat = lat_lo; lat <= lat_hi; ++lat) {
    for (int lon = lon_lo; lon <= lon_hi; ++lon) {
      probes.push_back(cell_of({static_cast<double>(lat) + 0.5,
                                geo::normalize_lon(static_cast<double>(lon) +
                                                   0.5)}));
    }
  }
  return probes;
}

/// Linear scan over every website: those whose recorded zip is `zip`, in
/// ascending ID.
inline std::vector<WebsiteId> websites_in_zip_scan(const WebEcosystem& eco,
                                                   const std::string& zip) {
  std::vector<WebsiteId> out;
  for (const Website& w : eco.websites()) {
    if (w.recorded_zip == zip) out.push_back(w.id);
  }
  return out;
}

/// The original 1-degree hash-grid scan, expressed without the grid: for
/// each probe cell in scan order, every passing site in that cell (by ID,
/// the grid's bucket order) within the radius. The passing sites and their
/// cell keys are gathered once per call into contiguous arrays, so each
/// probe cell scans 8-byte keys instead of every Website record.
inline std::vector<WebsiteId> passing_near_scan(const WebEcosystem& eco,
                                                const geo::GeoPoint& p,
                                                double radius_km) {
  std::vector<const Website*> passing;  // ascending ID
  std::vector<std::int64_t> passing_cell;
  for (const Website& w : eco.websites()) {
    if (!w.passes_tests) continue;
    passing.push_back(&w);
    passing_cell.push_back(cell_of(w.poi_location));
  }
  std::vector<WebsiteId> out;
  for (const std::int64_t key : probe_cells(p, radius_km)) {
    for (std::size_t i = 0; i < passing.size(); ++i) {
      if (passing_cell[i] == key &&
          geo::distance_km(passing[i]->poi_location, p) <= radius_km) {
        out.push_back(passing[i]->id);
      }
    }
  }
  return out;
}

}  // namespace geoloc::landmark::oracle
