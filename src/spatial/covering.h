// Cell coverings: bounded sets of hierarchy cells that are guaranteed
// supersets of a query region (a spherical disk or a lat/lon rectangle).
//
// Queries against spatial::IntervalIndex run in two stages — cover the
// region with at most kCoveringMaxCells cells, then binary-search each cell's
// leaf-token interval — so the covering only has to be a *superset*; the
// caller applies the exact predicate (great-circle distance, integer grid
// membership) to the candidates, and a query's answer does not depend on
// the budget. Both coverings are deterministic: the same query always
// produces the same cell set, sorted by token.
//
// Disk coverings use rigorous triangle-inequality bounds (distance to the
// cell centre ± a circumradius upper bound), so a cell is only excluded
// when no point of it can lie inside the disk. Rectangle coverings
// intersect exactly in degree space, including ranges that wrap the
// anti-meridian.
#pragma once

#include <vector>

#include "geo/disk.h"
#include "spatial/cell.h"

namespace geoloc::spatial {

/// Cell budget of every covering. Larger budgets fit tighter (fewer false
/// candidates) at the cost of more binary searches per query.
inline constexpr int kCoveringMaxCells = 64;
/// Deepest level a covering subdivides to.
inline constexpr int kCoveringMaxLevel = 16;

/// A latitude/longitude rectangle in degrees. `lon_lo > lon_hi` means the
/// range wraps the anti-meridian; `full_lon` spans every longitude.
struct LatLonRect {
  double lat_lo = 0.0;
  double lat_hi = 0.0;
  double lon_lo = 0.0;
  double lon_hi = 0.0;
  bool full_lon = false;

  /// Build from raw degree bounds: latitudes are clamped to [-90, 90],
  /// longitudes normalized (a raw span >= 360 becomes full_lon).
  static LatLonRect from_degrees(double lat_lo, double lat_hi, double lon_lo,
                                 double lon_hi);

  [[nodiscard]] bool wraps() const noexcept {
    return !full_lon && lon_lo > lon_hi;
  }
  [[nodiscard]] bool contains(const geo::GeoPoint& p) const noexcept;
};

/// Cover the disk with at most kCoveringMaxCells disjoint cells, sorted by
/// token. Every point of the disk lies in exactly one returned cell.
[[nodiscard]] std::vector<CellId> cover_disk(const geo::Disk& disk);

/// Cover the rectangle with at most kCoveringMaxCells disjoint cells,
/// sorted by token. Every point of the rectangle lies in exactly one
/// returned cell. An empty rectangle (lat_lo > lat_hi) returns {}.
[[nodiscard]] std::vector<CellId> cover_rect(const LatLonRect& rect);

}  // namespace geoloc::spatial
