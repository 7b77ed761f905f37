#include "geo/region.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "geo/constants.h"
#include "obs/metrics.h"

namespace geoloc::geo {

namespace {

/// Half-width of the exact band around every constraint's boundary, in
/// radians (~6 m). The filter's own error stays below 1e-7 rad: the
/// rotated unit vector is within ~1e-15 of the exact GeoPoint's, a dot
/// product read as an angle is off by <= ~5e-8 where cos is flat (near 0
/// and pi), and the haversine's own rounding is <= ~3e-8 near the
/// antipode. So a point outside the band gets the exact test's answer.
constexpr double kBand = 1e-6;

/// destination()'s longitude is atan2 of two differences that both vanish
/// at the poles, so its rounding grows as ~1e-16 / cos(lat) of the window
/// centre. Below this cosine (a centre within ~6 m of a pole) the rotated
/// vector no longer tracks the exact GeoPoint to within the band, and
/// every point of the window takes the exact test.
constexpr double kMinCosLat = 1e-6;

/// A constraint in dot-product form. For a point with unit vector u, a
/// dot(u, center) above cos_inside proves the point inside even after
/// rounding, below cos_outside proves it outside; in between is the band.
struct DotDisk {
  Vec3 center;
  double cos_inside = 2.0;
  double cos_outside = -2.0;
};

DotDisk dot_disk(const Disk& d) {
  const double rho = d.radius_km / kEarthRadiusKm;
  const double inner = rho - kBand;
  const double outer = rho + kBand;
  // cos is monotone only on [0, pi]: an inner angle below 0 proves no
  // point inside, an inner angle past pi holds the whole sphere, and an
  // outer angle past pi proves no point outside. (A NaN radius compares
  // false everywhere and leaves every point in the band.)
  return {unit_vector(d.center),
          inner <= 0.0 ? 2.0 : (inner >= kPi ? -2.0 : std::cos(inner)),
          outer >= kPi ? -2.0 : std::cos(outer)};
}

/// Samples polar grids over successive windows against one constraint set,
/// hoisted once per intersect_disks call, and tallies the work it did.
class GridSampler {
 public:
  explicit GridSampler(std::span<const Disk> constraints)
      : constraints_(constraints) {
    dot_disks_.reserve(constraints.size());
    for (const Disk& d : constraints) dot_disks_.push_back(dot_disk(d));
  }

  /// The grid points of `window` inside every constraint, centre first,
  /// then ring by ring. When `area_fraction` is non-null it receives the
  /// area-weighted feasible fraction of the window: ring i stands for an
  /// annulus whose area grows linearly with i, so per-point weights must
  /// too (a flat count would oversample the centre).
  std::vector<GeoPoint> feasible(const Disk& window, int rings, int sectors,
                                 double* area_fraction = nullptr);

  /// Rotated unit vectors of the last call's feasible points, in order;
  /// empty when that window was too near a pole to trust them.
  [[nodiscard]] std::span<const Vec3> units() const noexcept { return units_; }

  std::uint64_t points = 0;        ///< grid points sampled
  std::uint64_t exact_points = 0;  ///< of which fell in some band

 private:
  std::span<const Disk> constraints_;
  std::vector<DotDisk> dot_disks_;
  std::vector<double> origin_dots_;   ///< dot(origin, c_k), per constraint
  std::vector<double> heading_dots_;  ///< dot(heading_s, c_k), sector-major
  std::vector<Vec3> units_;
};

std::vector<GeoPoint> GridSampler::feasible(const Disk& window, int rings,
                                            int sectors,
                                            double* area_fraction) {
  const PolarGrid grid(window, rings, sectors);
  const std::size_t n = constraints_.size();
  const bool filter = grid.cos_lat >= kMinCosLat;
  // dot(unit(ring, sector), c) = cos(delta) * dot(origin, c)
  //                            + sin(delta) * dot(heading, c)
  origin_dots_.resize(n);
  heading_dots_.resize(grid.sectors.size() * n);
  for (std::size_t k = 0; k < n; ++k) {
    origin_dots_[k] = dot(grid.origin, dot_disks_[k].center);
  }
  for (std::size_t s = 0; s < grid.sectors.size(); ++s) {
    for (std::size_t k = 0; k < n; ++k) {
      heading_dots_[s * n + k] =
          dot(grid.sectors[s].heading, dot_disks_[k].center);
    }
  }

  std::vector<GeoPoint> feasible;
  units_.clear();
  units_.reserve(1 + static_cast<std::size_t>(std::max(rings, 0)) *
                         static_cast<std::size_t>(std::max(sectors, 0)));
  double weight_total = 0.0, weight_feasible = 0.0;
  // Grid point (ri, si); ring 0 is the r < delta/2 cap around the centre,
  // at distance 0, so only its origin term counts.
  auto test = [&](int ri, int si, double weight) {
    ++points;
    weight_total += weight;
    const PolarGrid::Ring& ring = grid.rings[static_cast<std::size_t>(ri)];
    const double* hd =
        ri == 0 ? origin_dots_.data()
                : heading_dots_.data() + static_cast<std::size_t>(si) * n;
    const auto dot_k = [&](std::size_t k) {
      return ring.cos_delta * origin_dots_[k] + ring.sin_delta * hd[k];
    };
    bool in_band = !filter;
    if (filter) {
      for (std::size_t k = 0; k < n; ++k) {
        const double d = dot_k(k);
        if (d < dot_disks_[k].cos_outside) return;
        in_band |= !(d > dot_disks_[k].cos_inside);
      }
    }
    const GeoPoint p = ri == 0 ? window.center : grid.point(ri, si);
    if (in_band) {
      ++exact_points;
      for (std::size_t k = 0; k < n; ++k) {
        const bool clear = filter && dot_k(k) > dot_disks_[k].cos_inside;
        if (!clear && !constraints_[k].contains(p)) return;
      }
    }
    weight_feasible += weight;
    feasible.push_back(p);
    if (filter) units_.push_back(ri == 0 ? grid.origin : grid.unit(ri, si));
  };
  test(0, 0, 0.125);
  for (int ri = 1; ri <= rings; ++ri) {
    const double ring_weight =
        static_cast<double>(ri) / static_cast<double>(sectors);
    for (int si = 0; si < sectors; ++si) test(ri, si, ring_weight);
  }
  if (area_fraction) {
    *area_fraction = weight_total > 0.0 ? weight_feasible / weight_total : 0.0;
  }
  return feasible;
}

/// max over `points` of distance_km(c, p), bit-equal to the plain loop.
/// With the points' rotated unit vectors at hand, only the points whose
/// dot-product angle from c is within 2 kBand of the widest can hold the
/// maximum (each angle is within kBand of its haversine), so only those
/// run the haversine.
double max_distance_km(const GeoPoint& c, std::span<const GeoPoint> points,
                       std::span<const Vec3> units) {
  double max_r = 0.0;
  if (units.empty()) {
    for (const GeoPoint& p : points) max_r = std::max(max_r, distance_km(c, p));
    return max_r;
  }
  const Vec3 uc = unit_vector(c);
  double min_dot = 2.0;
  for (const Vec3& u : units) min_dot = std::min(min_dot, dot(uc, u));
  const double near_widest =
      std::acos(std::clamp(min_dot, -1.0, 1.0)) - 2.0 * kBand;
  const double cut = near_widest <= 0.0 ? 2.0 : std::cos(near_widest);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (dot(uc, units[i]) <= cut) {
      max_r = std::max(max_r, distance_km(c, points[i]));
    }
  }
  return max_r;
}

Region solve(std::span<const Disk> kept, const RegionOptions& options,
             GridSampler& sampler) {
  Region region;
  const Disk& seed = kept.front();  // smallest radius: the tightest constraint
  Disk window = seed;
  std::vector<GeoPoint> feasible;
  for (int level = 0; level <= options.refine_levels; ++level) {
    double area_fraction = 0.0;
    feasible = sampler.feasible(window, options.rings, options.sectors,
                                &area_fraction);
    if (feasible.empty() && level == 0) {
      // One retry at double resolution before declaring emptiness: thin
      // lens-shaped intersections can slip between coarse samples.
      feasible = sampler.feasible(window, options.rings * 2,
                                  options.sectors * 2, &area_fraction);
    }
    if (feasible.empty()) return region;

    const GeoPoint c = centroid(feasible);
    const double max_r = max_distance_km(c, feasible, sampler.units());
    // Area estimate from the *first* (seed-disk-covering) pass.
    if (level == 0) {
      region.area_km2 =
          kPi * seed.radius_km * seed.radius_km * area_fraction;
    }
    region.empty = false;
    region.centroid = c;
    region.radius_km = max_r;
    if (level < options.refine_levels) {
      // Zoom: re-sample a window just covering the feasible set. The ring
      // spacing shrinks by ~rings/1.2 per level.
      window = Disk{c, std::max(max_r * 1.2, 1e-3)};
    }
  }
  region.samples = std::move(feasible);
  return region;
}

}  // namespace

PolarGrid::PolarGrid(const Disk& window, int n_rings, int n_sectors)
    : lon_rad(deg_to_rad(window.center.lon_deg)) {
  const double lat_rad = deg_to_rad(window.center.lat_deg);
  sin_lat = std::sin(lat_rad);
  cos_lat = std::cos(lat_rad);
  const double sin_lon = std::sin(lon_rad);
  const double cos_lon = std::cos(lon_rad);
  origin = {cos_lat * cos_lon, cos_lat * sin_lon, sin_lat};
  const Vec3 north{-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat};
  const Vec3 east{-sin_lon, cos_lon, 0.0};
  rings.resize(static_cast<std::size_t>(std::max(n_rings, 0)) + 1);
  for (int ri = 1; ri <= n_rings; ++ri) {
    const double r = window.radius_km * static_cast<double>(ri) /
                     static_cast<double>(n_rings);
    const double delta = r / kEarthRadiusKm;
    rings[static_cast<std::size_t>(ri)] = {std::sin(delta), std::cos(delta)};
  }
  sectors.resize(static_cast<std::size_t>(std::max(n_sectors, 0)));
  for (int si = 0; si < n_sectors; ++si) {
    const double bearing = 360.0 * static_cast<double>(si) /
                           static_cast<double>(n_sectors);
    const double theta = deg_to_rad(bearing);
    const double sin_t = std::sin(theta);
    const double cos_t = std::cos(theta);
    sectors[static_cast<std::size_t>(si)] = {
        sin_t, cos_t,
        {cos_t * north.x + sin_t * east.x, cos_t * north.y + sin_t * east.y,
         cos_t * north.z + sin_t * east.z}};
  }
}

GeoPoint PolarGrid::point(int ring, int sector) const noexcept {
  const Ring& r = rings[static_cast<std::size_t>(ring)];
  const Sector& s = sectors[static_cast<std::size_t>(sector)];
  // destination(), term for term.
  const double sin_lat2 =
      sin_lat * r.cos_delta + cos_lat * r.sin_delta * s.cos_theta;
  const double lat2 = std::asin(std::clamp(sin_lat2, -1.0, 1.0));
  const double y = s.sin_theta * r.sin_delta * cos_lat;
  const double x = r.cos_delta - sin_lat * sin_lat2;
  const double lon2 = lon_rad + std::atan2(y, x);
  return GeoPoint{clamp_lat(rad_to_deg(lat2)), normalize_lon(rad_to_deg(lon2))};
}

Vec3 PolarGrid::unit(int ring, int sector) const noexcept {
  const Ring& r = rings[static_cast<std::size_t>(ring)];
  const Vec3& h = sectors[static_cast<std::size_t>(sector)].heading;
  return {r.cos_delta * origin.x + r.sin_delta * h.x,
          r.cos_delta * origin.y + r.sin_delta * h.y,
          r.cos_delta * origin.z + r.sin_delta * h.z};
}

std::vector<Disk> prune_dominated(std::span<const Disk> disks) {
  std::vector<Disk> sorted(disks.begin(), disks.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const Disk& a, const Disk& b) { return a.radius_km < b.radius_km; });
  std::vector<Disk> kept;
  for (const Disk& candidate : sorted) {
    // A disk is redundant if any already-kept (smaller) disk lies inside it.
    const bool redundant =
        std::any_of(kept.begin(), kept.end(), [&](const Disk& smaller) {
          return smaller.inside(candidate);
        });
    if (!redundant) kept.push_back(candidate);
  }
  return kept;
}

Region intersect_disks(std::span<const Disk> disks,
                       const RegionOptions& options) {
  if (disks.empty()) return {};
  const std::vector<Disk> kept = prune_dominated(disks);
  // Quick disjointness check: if the seed (smallest) disk is disjoint from
  // any other constraint the intersection is provably empty.
  for (std::size_t i = 1; i < kept.size(); ++i) {
    if (kept.front().disjoint(kept[i])) return {};
  }
  GridSampler sampler(kept);
  Region region = solve(kept, options, sampler);

  static obs::Counter& points =
      obs::Registry::instance().counter("geo.region_points");
  static obs::Counter& exact =
      obs::Registry::instance().counter("geo.region_exact_tests");
  points.add(sampler.points);
  exact.add(sampler.exact_points);
  return region;
}

bool region_contains(std::span<const Disk> disks, const GeoPoint& p) noexcept {
  return std::all_of(disks.begin(), disks.end(),
                     [&](const Disk& d) { return d.contains(p); });
}

}  // namespace geoloc::geo
