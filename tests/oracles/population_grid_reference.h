// Test oracle: the per-kernel halo replay dataset::PopulationGrid's
// index-backed kernel_indices_near replaced, kept as the reference the
// spatial equivalence suite pins it against. Kernel i is centred on
// places[i]. The 1-degree cell key and 5x5 halo of the original
// registration loop are copied here, so the reference does not share the
// production arithmetic. Use only in tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "geo/geodesy.h"
#include "sim/world.h"

namespace geoloc::dataset::oracle {

inline int cell_key(double lat_deg, double lon_deg) {
  const int lat_cell = static_cast<int>(std::floor(lat_deg)) + 90;
  const int lon_cell = static_cast<int>(std::floor(lon_deg)) + 180;
  return lat_cell * 4096 + lon_cell;
}

/// True when the original build registers a kernel at `center` into the
/// 1-degree cell `key`: every cell within a 2-cell halo of the centre,
/// latitudes clamped to [-90, 89], longitudes normalized.
inline bool halo_covers(const geo::GeoPoint& center, int key) {
  const int base_lat = static_cast<int>(std::floor(center.lat_deg));
  const int base_lon = static_cast<int>(std::floor(center.lon_deg));
  for (int dlat = -2; dlat <= 2; ++dlat) {
    for (int dlon = -2; dlon <= 2; ++dlon) {
      const double lat =
          std::clamp(static_cast<double>(base_lat + dlat), -90.0, 89.0);
      const double lon =
          geo::normalize_lon(static_cast<double>(base_lon + dlon));
      if (cell_key(lat, lon) == key) return true;
    }
  }
  return false;
}

/// Kernels contributing at `p`, ascending kernel index.
inline std::vector<std::size_t> kernel_indices_near_scan(
    std::span<const sim::Place> places, const geo::GeoPoint& p) {
  const int key = cell_key(p.lat_deg, p.lon_deg);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < places.size(); ++i) {
    if (halo_covers(places[i].location, key)) out.push_back(i);
  }
  return out;
}

}  // namespace geoloc::dataset::oracle
