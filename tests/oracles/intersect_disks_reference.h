// Test oracle: the original CBG region sampler, kept verbatim so the
// production kernel (geo::intersect_disks, which tests each grid point by
// dot product and runs the exact haversine only inside a 1e-6 rad band
// around a constraint's boundary) can be pinned field for field.
//
// Every grid point comes from geo::destination() and tests every
// constraint with Disk::contains. Use only in tests.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "geo/constants.h"
#include "geo/disk.h"
#include "geo/geodesy.h"
#include "geo/region.h"

namespace geoloc::geo::oracle {

/// Sample a polar grid over `seed` (center + rings x sectors) and keep the
/// points inside every disk of `constraints`. When `area_fraction` is
/// non-null it receives the area-weighted feasible fraction of the seed
/// disk: ring i stands for an annulus whose area grows linearly with i, so
/// per-point weights must too (a flat count would oversample the centre).
inline std::vector<GeoPoint> feasible_samples_reference(
    const Disk& seed, std::span<const Disk> constraints, int rings,
    int sectors, double* area_fraction = nullptr) {
  std::vector<GeoPoint> feasible;
  double weight_total = 0.0, weight_feasible = 0.0;
  auto contains_all = [&](const GeoPoint& p) {
    for (const Disk& d : constraints) {
      if (!d.contains(p)) return false;
    }
    return true;
  };
  auto test = [&](const GeoPoint& p, double weight) {
    weight_total += weight;
    if (!contains_all(p)) return;
    weight_feasible += weight;
    feasible.push_back(p);
  };
  test(seed.center, 0.125);  // the r < delta/2 cap around the centre
  for (int ri = 1; ri <= rings; ++ri) {
    const double r =
        seed.radius_km * static_cast<double>(ri) / static_cast<double>(rings);
    const double ring_weight =
        static_cast<double>(ri) / static_cast<double>(sectors);
    for (int si = 0; si < sectors; ++si) {
      const double bearing =
          360.0 * static_cast<double>(si) / static_cast<double>(sectors);
      test(destination(seed.center, bearing, r), ring_weight);
    }
  }
  if (area_fraction) {
    *area_fraction = weight_total > 0.0 ? weight_feasible / weight_total : 0.0;
  }
  return feasible;
}

/// The direct scan: every grid point tests every constraint disk.
inline Region intersect_disks_reference(std::span<const Disk> disks,
                                        const RegionOptions& options = {}) {
  Region region;
  if (disks.empty()) return region;

  const std::vector<Disk> kept = prune_dominated(disks);
  const Disk& seed = kept.front();  // smallest radius: the tightest constraint

  // Quick disjointness check: if the seed is disjoint from any other
  // constraint the intersection is provably empty.
  for (std::size_t i = 1; i < kept.size(); ++i) {
    if (seed.disjoint(kept[i])) return region;
  }

  Disk window = seed;
  std::vector<GeoPoint> feasible;
  for (int level = 0; level <= options.refine_levels; ++level) {
    double area_fraction = 0.0;
    feasible = feasible_samples_reference(window, kept, options.rings,
                                          options.sectors, &area_fraction);
    if (feasible.empty() && level == 0) {
      // One retry at double resolution before declaring emptiness: thin
      // lens-shaped intersections can slip between coarse samples.
      feasible = feasible_samples_reference(window, kept, options.rings * 2,
                                            options.sectors * 2,
                                            &area_fraction);
    }
    if (feasible.empty()) return region;

    const GeoPoint c = centroid(feasible);
    double max_r = 0.0;
    for (const GeoPoint& p : feasible) {
      max_r = std::max(max_r, distance_km(c, p));
    }
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

}  // namespace geoloc::geo::oracle
