#include "geo/geodesy.h"

#include <algorithm>
#include <cmath>

#include "geo/constants.h"

namespace geoloc::geo {

double distance_km(const GeoPoint& a, const GeoPoint& b) noexcept {
  const double lat1 = deg_to_rad(a.lat_deg);
  const double lat2 = deg_to_rad(b.lat_deg);
  const double dlat = lat2 - lat1;
  const double dlon = deg_to_rad(b.lon_deg - a.lon_deg);
  const double sin_dlat = std::sin(dlat / 2.0);
  const double sin_dlon = std::sin(dlon / 2.0);
  const double h =
      sin_dlat * sin_dlat + std::cos(lat1) * std::cos(lat2) * sin_dlon * sin_dlon;
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(h)));
}

double initial_bearing_deg(const GeoPoint& a, const GeoPoint& b) noexcept {
  const double lat1 = deg_to_rad(a.lat_deg);
  const double lat2 = deg_to_rad(b.lat_deg);
  const double dlon = deg_to_rad(b.lon_deg - a.lon_deg);
  const double y = std::sin(dlon) * std::cos(lat2);
  const double x = std::cos(lat1) * std::sin(lat2) -
                   std::sin(lat1) * std::cos(lat2) * std::cos(dlon);
  const double bearing = rad_to_deg(std::atan2(y, x));
  return std::fmod(bearing + 360.0, 360.0);
}

GeoPoint destination(const GeoPoint& origin, double bearing_deg,
                     double distance_km) noexcept {
  const double delta = distance_km / kEarthRadiusKm;  // angular distance
  const double theta = deg_to_rad(bearing_deg);
  const double lat1 = deg_to_rad(origin.lat_deg);
  const double lon1 = deg_to_rad(origin.lon_deg);

  const double sin_lat2 = std::sin(lat1) * std::cos(delta) +
                          std::cos(lat1) * std::sin(delta) * std::cos(theta);
  const double lat2 = std::asin(std::clamp(sin_lat2, -1.0, 1.0));
  const double y = std::sin(theta) * std::sin(delta) * std::cos(lat1);
  const double x = std::cos(delta) - std::sin(lat1) * sin_lat2;
  const double lon2 = lon1 + std::atan2(y, x);

  return GeoPoint{clamp_lat(rad_to_deg(lat2)), normalize_lon(rad_to_deg(lon2))};
}

Vec3 unit_vector(const GeoPoint& p) noexcept {
  const double lat = deg_to_rad(p.lat_deg);
  const double lon = deg_to_rad(p.lon_deg);
  const double cos_lat = std::cos(lat);
  return {cos_lat * std::cos(lon), cos_lat * std::sin(lon), std::sin(lat)};
}

GeoPoint midpoint(const GeoPoint& a, const GeoPoint& b) noexcept {
  const GeoPoint pts[] = {a, b};
  return centroid(pts);
}

GeoPoint centroid(std::span<const GeoPoint> points) noexcept {
  if (points.empty()) return {};
  double x = 0.0, y = 0.0, z = 0.0;
  for (const GeoPoint& p : points) {
    const double lat = deg_to_rad(p.lat_deg);
    const double lon = deg_to_rad(p.lon_deg);
    x += std::cos(lat) * std::cos(lon);
    y += std::cos(lat) * std::sin(lon);
    z += std::sin(lat);
  }
  const auto n = static_cast<double>(points.size());
  x /= n;
  y /= n;
  z /= n;
  const double hyp = std::hypot(x, y);
  if (hyp == 0.0 && z == 0.0) return {};  // degenerate (antipodal average)
  return GeoPoint{clamp_lat(rad_to_deg(std::atan2(z, hyp))),
                  normalize_lon(rad_to_deg(std::atan2(y, x)))};
}

}  // namespace geoloc::geo
