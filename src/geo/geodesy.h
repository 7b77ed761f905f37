// Great-circle geodesy on a spherical Earth: distances, bearings,
// destination points and centroids. Accuracy of the spherical model
// (vs WGS-84 ellipsoid) is ~0.3%, far below the error scales of
// latency-based geolocation (kilometres), so the sphere is sufficient
// and keeps the kernels branch-light for the 10k x 723 RTT matrices.
#pragma once

#include <span>

#include "geo/geopoint.h"

namespace geoloc::geo {

/// Great-circle distance in kilometres (haversine formula; numerically
/// stable for both antipodal and very close points).
double distance_km(const GeoPoint& a, const GeoPoint& b) noexcept;

/// Initial bearing (forward azimuth) from `a` to `b`, degrees in [0, 360).
double initial_bearing_deg(const GeoPoint& a, const GeoPoint& b) noexcept;

/// Point reached by travelling `distance_km` from `origin` along
/// `bearing_deg` on a great circle.
GeoPoint destination(const GeoPoint& origin, double bearing_deg,
                     double distance_km) noexcept;

/// A point of 3-D space; on the unit sphere, the Earth-centred direction
/// of a GeoPoint (x towards lon 0 on the equator, z towards the north pole).
struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
};

[[nodiscard]] constexpr double dot(const Vec3& a, const Vec3& b) noexcept {
  return a.x * b.x + a.y * b.y + a.z * b.z;
}

/// Unit vector of `p`: {cos(lat)cos(lon), cos(lat)sin(lon), sin(lat)}.
Vec3 unit_vector(const GeoPoint& p) noexcept;

/// Geographic midpoint of two points along the great circle joining them.
GeoPoint midpoint(const GeoPoint& a, const GeoPoint& b) noexcept;

/// Spherical centroid of a set of points (normalized mean of the 3-D unit
/// vectors). Returns {0,0} for an empty span.
GeoPoint centroid(std::span<const GeoPoint> points) noexcept;

}  // namespace geoloc::geo
