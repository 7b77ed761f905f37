// Intersection of spherical disks — the CBG feasible region.
//
// CBG estimates a target's position as the centroid of the intersection of
// the constraint disks (one per vantage point). Exact spherical
// disk-intersection polygons are expensive and fragile; following the
// design note in DESIGN.md we (1) prune dominated disks, then (2) sample
// the smallest remaining disk on a two-level polar grid and average the
// feasible samples. Resolution is configurable; the defaults keep Figure 2a's
// ~723k CBG evaluations tractable with sub-kilometre centroid error.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "geo/disk.h"
#include "geo/geodesy.h"
#include "geo/geopoint.h"

namespace geoloc::geo {

/// Sampling resolution for the region centroid estimator.
struct RegionOptions {
  int rings = 12;       ///< radial subdivisions of the seed disk
  int sectors = 24;     ///< angular subdivisions per ring
  int refine_levels = 1;  ///< extra passes zooming into the feasible set
};

/// Result of intersecting a set of constraint disks.
struct Region {
  bool empty = true;            ///< no feasible point found
  GeoPoint centroid;            ///< centroid of the feasible samples
  double radius_km = 0.0;       ///< max distance from centroid to a feasible sample
  double area_km2 = 0.0;        ///< Monte-Carlo style area estimate
  std::vector<GeoPoint> samples;  ///< feasible sample points (for tier 2 reuse)

  /// A region degenerates to a point when a single sample survived.
  [[nodiscard]] bool degenerate() const noexcept { return samples.size() <= 1; }
};

/// Remove dominated constraints: any disk that fully contains another disk
/// of the set adds nothing to the intersection. Returns the surviving disks
/// sorted by ascending radius. O(k * n) where k is the survivor count — in
/// practice a handful out of thousands.
std::vector<Disk> prune_dominated(std::span<const Disk> disks);

/// The polar grid intersect_disks samples over a window disk: the centre,
/// then ring i in [1, rings] at radius window.radius_km * i / rings, each
/// with sector j in [0, sectors) at bearing 360 * j / sectors. Every sine
/// and cosine is hoisted: the centre's once per grid, the angular
/// distance's once per ring, the bearing's once per sector, so a grid
/// point costs no trigonometry until its GeoPoint is needed.
struct PolarGrid {
  /// sin/cos of one ring's angular distance.
  struct Ring {
    double sin_delta = 0.0;
    double cos_delta = 1.0;
  };
  /// sin/cos of one sector's bearing, and the direction it leaves the
  /// centre in: cos(bearing) * north + sin(bearing) * east.
  struct Sector {
    double sin_theta = 0.0;
    double cos_theta = 1.0;
    Vec3 heading;
  };

  PolarGrid(const Disk& window, int rings, int sectors);

  double lon_rad = 0.0;  ///< the centre's longitude
  double sin_lat = 0.0;  ///< sin/cos of the centre's latitude
  double cos_lat = 1.0;
  Vec3 origin;                  ///< unit vector of the centre
  std::vector<Ring> rings;      ///< index 0 is the centre (distance 0)
  std::vector<Sector> sectors;

  /// Grid point (ring, sector), ring >= 1: bit-equal to
  /// destination(window.center, 360 * sector / sectors,
  /// window.radius_km * ring / rings) — the same expression tree, fed
  /// from the hoisted tables.
  [[nodiscard]] GeoPoint point(int ring, int sector) const noexcept;

  /// Unit vector of point(ring, sector) by rotation, with no
  /// trigonometry: cos(delta) * origin + sin(delta) * heading. Within
  /// ~1e-15 of unit_vector(point(ring, sector)) unless the centre lies
  /// within metres of a pole, where destination()'s atan2 loses the
  /// longitude (see intersect_disks).
  [[nodiscard]] Vec3 unit(int ring, int sector) const noexcept;
};

/// Intersect `disks` and estimate the feasible region.
/// An empty input yields an empty region.
///
/// Each grid point is tested against the constraints by dot product
/// first: a constraint of angular radius rho excludes the point when the
/// point's rotated unit vector is farther than rho + kBand from the
/// constraint's centre, and is satisfied when it is nearer than
/// rho - kBand (kBand = 1e-6 rad, ~6 m). Only a point inside some
/// constraint's band runs the exact Disk::contains on its exact GeoPoint,
/// and only the feasible points within 2 kBand of the widest run the
/// haversine for the region radius. The filter's rounding (below 1e-7
/// rad all told) is far inside the band; a window centred within ~6 m of
/// a pole, where the rotation stops tracking destination(), tests every
/// point exactly. So every Region field is byte-identical to the direct
/// all-constraints scan (tests/oracles/intersect_disks_reference.h;
/// pinned by tests/spatial_region_grid_test.cpp).
Region intersect_disks(std::span<const Disk> disks,
                       const RegionOptions& options = {});

/// True when `p` satisfies every constraint.
bool region_contains(std::span<const Disk> disks, const GeoPoint& p) noexcept;

}  // namespace geoloc::geo
