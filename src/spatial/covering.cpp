#include "spatial/covering.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "geo/geodesy.h"
#include "obs/metrics.h"

namespace geoloc::spatial {

namespace {

/// Upper bound on the great-circle distance from the cell centre to any
/// point of the cell: half the latitude span plus half the longitude span
/// scaled by the widest cosine the cell reaches. Walking first along the
/// meridian and then along a parallel reaches every cell point, and a path
/// length bounds the geodesic, so this is rigorous.
double circumradius_km(const CellId& cell) {
  const double half_span = cell.size_deg() / 2.0;
  const double lat_lo = cell.lat_lo();
  const double lat_hi = cell.lat_hi();
  const double max_cos =
      (lat_lo <= 0.0 && lat_hi >= 0.0)
          ? 1.0
          : std::cos(geo::deg_to_rad(std::min(std::abs(lat_lo),
                                              std::abs(lat_hi))));
  return half_span * kKmPerDegree * (1.0 + max_cos);
}

struct DiskQuery {
  const geo::Disk* disk;

  /// False only when no point of the cell can lie inside the disk.
  [[nodiscard]] bool may_intersect(const CellId& cell) const {
    const double d = geo::distance_km(disk->center, cell.center());
    return d - circumradius_km(cell) <= disk->radius_km;
  }
  /// True when every point of the cell provably lies inside the disk.
  [[nodiscard]] bool contained(const CellId& cell) const {
    const double d = geo::distance_km(disk->center, cell.center());
    return d + circumradius_km(cell) <= disk->radius_km;
  }
};

struct RectQuery {
  const LatLonRect* rect;

  [[nodiscard]] static bool lon_ranges_overlap(double a_lo, double a_hi,
                                               double b_lo, double b_hi) {
    return a_lo <= b_hi && a_hi >= b_lo;
  }

  [[nodiscard]] bool may_intersect(const CellId& cell) const {
    if (cell.lat_lo() > rect->lat_hi || cell.lat_hi() < rect->lat_lo) {
      return false;
    }
    if (rect->full_lon) return true;
    if (!rect->wraps()) {
      return lon_ranges_overlap(cell.lon_lo(), cell.lon_hi(), rect->lon_lo,
                                rect->lon_hi);
    }
    return lon_ranges_overlap(cell.lon_lo(), cell.lon_hi(), rect->lon_lo,
                              180.0) ||
           lon_ranges_overlap(cell.lon_lo(), cell.lon_hi(), -180.0,
                              rect->lon_hi);
  }
  [[nodiscard]] bool contained(const CellId& cell) const {
    if (cell.lat_lo() < rect->lat_lo || cell.lat_hi() > rect->lat_hi) {
      return false;
    }
    if (rect->full_lon) return true;
    if (!rect->wraps()) {
      return cell.lon_lo() >= rect->lon_lo && cell.lon_hi() <= rect->lon_hi;
    }
    return cell.lon_lo() >= rect->lon_lo || cell.lon_hi() <= rect->lon_hi;
  }
};

/// Breadth-first refinement: subdivide intersecting-but-not-contained
/// cells while the budget allows, emit the rest. Deterministic: the queue
/// is processed FIFO and children are enqueued in token order.
template <typename Query>
std::vector<CellId> cover(const Query& q) {
  static_assert(kCoveringMaxLevel <= kMaxLevel);
  std::vector<CellId> result;
  std::deque<CellId> queue;
  for (int face = 0; face < 2; ++face) {
    const CellId root{0, face, 0, 0};
    if (q.may_intersect(root)) queue.push_back(root);
  }
  while (!queue.empty()) {
    const CellId cell = queue.front();
    queue.pop_front();
    const bool can_subdivide =
        cell.level() < kCoveringMaxLevel && !q.contained(cell) &&
        static_cast<int>(result.size() + queue.size()) + 4 <=
            kCoveringMaxCells;
    if (!can_subdivide) {
      result.push_back(cell);
      continue;
    }
    for (int k = 0; k < 4; ++k) {
      const CellId child = cell.child(k);
      if (q.may_intersect(child)) queue.push_back(child);
    }
  }
  std::sort(result.begin(), result.end(),
            [](const CellId& a, const CellId& b) {
              return a.token_lo() < b.token_lo();
            });

  static constexpr double kCellBounds[] = {1, 2, 4, 8, 16, 32, 64, 128,
                                           256, 512, 1024, 2048, 4096};
  static obs::Histogram& cells_hist =
      obs::Registry::instance().histogram("spatial.cover.cells", kCellBounds);
  cells_hist.observe(static_cast<double>(result.size()));
  return result;
}

}  // namespace

LatLonRect LatLonRect::from_degrees(double lat_lo, double lat_hi,
                                    double lon_lo, double lon_hi) {
  LatLonRect r;
  r.lat_lo = std::max(lat_lo, -90.0);
  r.lat_hi = std::min(lat_hi, 90.0);
  if (lon_hi - lon_lo >= 360.0) {
    r.full_lon = true;
    r.lon_lo = -180.0;
    r.lon_hi = 180.0;
  } else {
    r.lon_lo = geo::normalize_lon(lon_lo);
    // Keep a span ending exactly at the anti-meridian closed at 180
    // instead of wrapping to -180 (normalize_lon maps 180 -> -180).
    r.lon_hi = lon_hi == 180.0 ? 180.0 : geo::normalize_lon(lon_hi);
  }
  return r;
}

bool LatLonRect::contains(const geo::GeoPoint& p) const noexcept {
  if (p.lat_deg < lat_lo || p.lat_deg > lat_hi) return false;
  if (full_lon) return true;
  if (!wraps()) return p.lon_deg >= lon_lo && p.lon_deg <= lon_hi;
  return p.lon_deg >= lon_lo || p.lon_deg <= lon_hi;
}

std::vector<CellId> cover_disk(const geo::Disk& disk) {
  static obs::Counter& calls =
      obs::Registry::instance().counter("spatial.cover.disk");
  calls.add();
  return cover(DiskQuery{&disk});
}

std::vector<CellId> cover_rect(const LatLonRect& rect) {
  static obs::Counter& calls =
      obs::Registry::instance().counter("spatial.cover.rect");
  calls.add();
  if (rect.lat_lo > rect.lat_hi) return {};
  return cover(RectQuery{&rect});
}

}  // namespace geoloc::spatial
