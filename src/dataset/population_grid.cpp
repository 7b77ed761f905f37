#include "dataset/population_grid.h"

#include <algorithm>
#include <cmath>

#include "geo/geodesy.h"
#include "obs/metrics.h"

namespace geoloc::dataset {

namespace {

constexpr int kCellsPerRow = 4096;  // > 360, keeps keys unique
constexpr int kHalo = 2;            // cells a kernel registers into, each way

int cell_key(double lat_deg, double lon_deg) {
  const int lat_cell = static_cast<int>(std::floor(lat_deg)) + 90;
  const int lon_cell = static_cast<int>(std::floor(lon_deg)) + 180;
  return lat_cell * kCellsPerRow + lon_cell;
}

}  // namespace

PopulationGrid::PopulationGrid(const sim::World& world,
                               const PopulationGridConfig& config)
    : config_(config) {
  kernels_.reserve(world.places().size());
  std::vector<geo::GeoPoint> centers;
  centers.reserve(world.places().size());
  for (const sim::Place& place : world.places()) {
    Kernel k;
    k.center = place.location;
    k.people = place.population_k * 1000.0;
    k.sigma_km = config.base_sigma_km *
                 std::pow(std::max(place.population_k, 1.0),
                          config.sigma_pop_exponent);
    k.norm = k.people / (2.0 * geo::kPi * k.sigma_km * k.sigma_km);
    kernels_.push_back(k);
    centers.push_back(k.center);
  }
  index_ = spatial::IntervalIndex::build(centers);
}

bool PopulationGrid::halo_covers(const geo::GeoPoint& center, int key) {
  // Replays the original registration loop: each kernel lands in every
  // 1-degree cell within a 2-cell halo of its centre, latitudes clamped to
  // [-90, 89], longitudes normalized (so halos wrap the anti-meridian).
  const int base_lat = static_cast<int>(std::floor(center.lat_deg));
  const int base_lon = static_cast<int>(std::floor(center.lon_deg));
  for (int dlat = -kHalo; dlat <= kHalo; ++dlat) {
    for (int dlon = -kHalo; dlon <= kHalo; ++dlon) {
      const double lat = std::clamp(static_cast<double>(base_lat + dlat),
                                    -90.0, 89.0);
      const double lon = geo::normalize_lon(
          static_cast<double>(base_lon + dlon));
      if (cell_key(lat, lon) == key) return true;
    }
  }
  return false;
}

std::vector<std::size_t> PopulationGrid::kernel_indices_near(
    const geo::GeoPoint& p) const {
  static obs::Counter& queries =
      obs::Registry::instance().counter("spatial.popgrid.queries");
  queries.add();

  const int key = cell_key(p.lat_deg, p.lon_deg);
  // Superset covering: every kernel whose halo can reach the query cell
  // has its centre within kHalo+1 degrees of the cell (wrapping in
  // longitude, clamping at the poles — hence the extra margin cell).
  const int qlat = static_cast<int>(std::floor(p.lat_deg));
  const int qlon = static_cast<int>(std::floor(p.lon_deg));
  const auto rect = spatial::LatLonRect::from_degrees(
      qlat - (kHalo + 1), qlat + (kHalo + 2), qlon - (kHalo + 1),
      qlon + (kHalo + 2));
  std::vector<std::uint32_t> cand = index_.candidates_in_rect(rect);

  std::vector<std::size_t> out;
  out.reserve(cand.size());
  for (const std::uint32_t idx : cand) {
    if (halo_covers(kernels_[idx].center, key)) out.push_back(idx);
  }
  // Token order -> ascending kernel index: the density summation order of
  // the original sorted-bucket build.
  std::sort(out.begin(), out.end());
  return out;
}

double PopulationGrid::density_per_km2(const geo::GeoPoint& p) const {
  // Snap to the grid granularity so nearby queries agree, like GPWv4 cells.
  const double snap_deg = config_.query_snap_km / 111.0;
  const geo::GeoPoint snapped{
      std::round(p.lat_deg / snap_deg) * snap_deg,
      std::round(p.lon_deg / snap_deg) * snap_deg};

  double density = config_.rural_floor_per_km2;
  for (const std::size_t i : kernel_indices_near(snapped)) {
    const Kernel& k = kernels_[i];
    const double d = geo::distance_km(k.center, snapped);
    density += k.norm * std::exp(-0.5 * (d / k.sigma_km) * (d / k.sigma_km));
  }
  return density;
}

}  // namespace geoloc::dataset
