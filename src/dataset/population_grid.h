// Population-density surface — the stand-in for the "Gridded Population of
// the World v4" dataset (paper Figures 6b and 8, Appendix C).
//
// Density at a point is a kernel sum over every place (city and satellite
// town): each place spreads its population over a Gaussian footprint whose
// width grows slowly with population. Queries are snapped to a 1 km grid to
// match GPWv4's granularity.
//
// Kernel lookup runs against a spatial::BucketIndex of 1-degree cells,
// each kernel registered into the 5x5 halo of cells around its centre; the
// equivalence suite pins it to the original halo-registration scan
// (tests/oracles/population_grid_reference.h).
#pragma once

#include <span>
#include <vector>

#include "geo/geopoint.h"
#include "sim/world.h"
#include "spatial/bucket_index.h"

namespace geoloc::dataset {

struct PopulationGridConfig {
  double base_sigma_km = 5.0;     ///< footprint of a small town
  double sigma_pop_exponent = 0.18;  ///< sigma scales with pop^exponent
  double rural_floor_per_km2 = 2.0;  ///< sparse rural baseline
  double query_snap_km = 1.0;        ///< GPWv4 granularity
};

class PopulationGrid {
 public:
  PopulationGrid(const sim::World& world,
                 const PopulationGridConfig& config = {})
      : PopulationGrid(world.places(), config) {}
  /// Kernel i is centred on places[i].
  explicit PopulationGrid(std::span<const sim::Place> places,
                          const PopulationGridConfig& config = {});

  /// People per square kilometre at `p` (snapped to the 1 km grid).
  [[nodiscard]] double density_per_km2(const geo::GeoPoint& p) const;

  /// Kernels contributing at `p` under the original 1-degree-cell +
  /// 2-cell-halo registration semantics, ascending kernel index (the
  /// density summation order).
  [[nodiscard]] std::vector<std::size_t> kernel_indices_near(
      const geo::GeoPoint& p) const;

  [[nodiscard]] std::size_t kernel_count() const noexcept {
    return kernels_.size();
  }

 private:
  struct Kernel {
    geo::GeoPoint center;
    double people;    ///< population (persons)
    double sigma_km;  ///< Gaussian width
    double norm;      ///< people / (2*pi*sigma^2)
  };

  PopulationGridConfig config_;
  std::vector<Kernel> kernels_;
  spatial::BucketIndex index_;  ///< 1-degree cell -> kernel indices
};

}  // namespace geoloc::dataset
