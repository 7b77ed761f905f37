#include "core/cbg.h"

#include <algorithm>
#include <cmath>

#include "geo/constants.h"
#include "obs/metrics.h"

namespace geoloc::core {

std::string_view to_string(CbgVerdict v) noexcept {
  switch (v) {
    case CbgVerdict::Ok: return "ok";
    case CbgVerdict::Degraded: return "degraded";
    case CbgVerdict::Unlocatable: return "unlocatable";
  }
  return "?";
}

std::vector<geo::Disk> constraint_disks(
    std::span<const VpObservation> observations, double soi_km_per_ms,
    int max_disks) {
  std::vector<geo::Disk> disks;
  disks.reserve(observations.size());
  for (const VpObservation& o : observations) {
    disks.push_back(geo::Disk{
        o.vp_location, geo::rtt_to_max_distance_km(o.min_rtt_ms, soi_km_per_ms)});
  }
  if (max_disks > 0 && disks.size() > static_cast<std::size_t>(max_disks)) {
    // Keep the tightest constraints only; the rest are almost surely
    // dominated (a far VP cannot produce a small disk under the SOI bound).
    std::nth_element(disks.begin(),
                     disks.begin() + static_cast<std::ptrdiff_t>(max_disks),
                     disks.end(), [](const geo::Disk& a, const geo::Disk& b) {
                       return a.radius_km < b.radius_km;
                     });
    disks.resize(static_cast<std::size_t>(max_disks));
  }
  return disks;
}

CbgResult cbg_geolocate(std::span<const VpObservation> observations,
                        const CbgConfig& config) {
  static obs::Counter& calls =
      obs::Registry::instance().counter("core.cbg_calls");
  calls.add();
  CbgResult result;
  if (observations.empty()) return result;

  result.disks =
      constraint_disks(observations, config.soi_km_per_ms, config.max_disks);
  result.region = geo::intersect_disks(result.disks, config.region);

  if (result.region.empty && config.fallback_soi_km_per_ms > 0.0) {
    result.disks = constraint_disks(
        observations, config.fallback_soi_km_per_ms, config.max_disks);
    result.region = geo::intersect_disks(result.disks, config.region);
    result.used_fallback_soi = true;
  }

  result.surviving_constraints = observations.size();
  if (!result.region.empty) {
    result.ok = true;
    result.estimate = result.region.centroid;
    // Equivalent-circle radius of the feasible region, widened linearly for
    // every constraint missing below the threshold: a fix built from one
    // disk is little better than "somewhere around this VP", and its
    // confidence radius says so.
    const double region_radius_km =
        std::sqrt(std::max(result.region.area_km2, 0.0) / geo::kPi);
    const auto survivors = static_cast<int>(observations.size());
    const int missing = std::max(0, config.min_constraints - survivors);
    result.confidence_radius_km = region_radius_km * (1.0 + missing);
    result.verdict = missing > 0 ? CbgVerdict::Degraded : CbgVerdict::Ok;
  }
  return result;
}

}  // namespace geoloc::core
