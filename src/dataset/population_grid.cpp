#include "dataset/population_grid.h"

#include <algorithm>
#include <cmath>

#include "geo/geodesy.h"
#include "obs/metrics.h"

namespace geoloc::dataset {

namespace {

constexpr int kCellsPerRow = 4096;  // > 360, keeps keys unique
constexpr int kHalo = 2;            // cells a kernel registers into, each way

std::uint64_t cell_key(double lat_deg, double lon_deg) {
  const int lat_cell = static_cast<int>(std::floor(lat_deg)) + 90;
  const int lon_cell = static_cast<int>(std::floor(lon_deg)) + 180;
  return static_cast<std::uint64_t>(lat_cell * kCellsPerRow + lon_cell);
}

}  // namespace

PopulationGrid::PopulationGrid(std::span<const sim::Place> places,
                               const PopulationGridConfig& config)
    : config_(config) {
  kernels_.reserve(places.size());
  std::vector<spatial::BucketIndex::Entry> cells;
  cells.reserve(places.size() * (2 * kHalo + 1) * (2 * kHalo + 1));
  for (const sim::Place& place : places) {
    Kernel k;
    k.center = place.location;
    k.people = place.population_k * 1000.0;
    k.sigma_km = config.base_sigma_km *
                 std::pow(std::max(place.population_k, 1.0),
                          config.sigma_pop_exponent);
    k.norm = k.people / (2.0 * geo::kPi * k.sigma_km * k.sigma_km);
    // The original registration loop: every 1-degree cell within a 2-cell
    // halo of the centre, latitudes clamped to [-90, 89], longitudes
    // normalized (so halos wrap the anti-meridian). Clamping repeats
    // cells near the poles; the index keeps each (cell, kernel) once.
    const int base_lat = static_cast<int>(std::floor(k.center.lat_deg));
    const int base_lon = static_cast<int>(std::floor(k.center.lon_deg));
    const auto idx = static_cast<std::uint32_t>(kernels_.size());
    for (int dlat = -kHalo; dlat <= kHalo; ++dlat) {
      for (int dlon = -kHalo; dlon <= kHalo; ++dlon) {
        const double lat = std::clamp(static_cast<double>(base_lat + dlat),
                                      -90.0, 89.0);
        const double lon = geo::normalize_lon(
            static_cast<double>(base_lon + dlon));
        cells.emplace_back(cell_key(lat, lon), idx);
      }
    }
    kernels_.push_back(k);
  }
  index_ = spatial::BucketIndex(std::move(cells));
}

std::vector<std::size_t> PopulationGrid::kernel_indices_near(
    const geo::GeoPoint& p) const {
  static obs::Counter& queries =
      obs::Registry::instance().counter("spatial.popgrid.queries");
  queries.add();
  const auto ids = index_.at(cell_key(p.lat_deg, p.lon_deg));
  return {ids.begin(), ids.end()};
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
