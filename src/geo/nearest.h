// Exact k-nearest ranking over a fixed point pool (DESIGN.md §8).
//
// NearestRanker answers "the first m pool indices by (distance_km(point[i],
// q), i)" — the ranking contract of the re-measurement planner, the fusion
// verifier choice and the traceroute waypoint choice. It is an implicit k-d
// tree over the pool's unit vectors (geo::unit_vector, the same x, y, z as
// geo::PointsSoA): rows are permuted so that every subtree is one
// contiguous range, split at its median on its widest axis, down to leaves
// of at most kLeafSize rows.
//
// A query runs two passes over the tree, both on the squared chord
// key = dx*dx + dy*dy + dz*dz (monotone in great-circle distance, no libm):
//   1. a kNN descent keeps the m smallest keys, so its largest is the m-th
//      smallest key K of the whole pool;
//   2. a range pass collects every row whose key is <= K + kChordKeyMargin.
// Only those rows pay the exact distance_km, and they come back sorted by
// (distance, index). The margin covers the rounding gap between the key and
// distance_km, so the first m of the sorted candidates are exactly the
// first m of the pool.
//
// Pruning is exact, not approximate: a far subtree is skipped only when
// d*d > bound, with d = split - q[axis]. Every row beyond the split has
// |p[axis] - q[axis]| >= |d| in real numbers, rounded subtraction and
// multiplication are monotone, and the key adds only non-negative terms to
// that axis's square, so the row's key is >= d*d as computed and cannot be
// <= bound.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "geo/geopoint.h"

namespace geoloc::geo {

/// Margin, in squared-chord units, kept past the m-th smallest key. Keys
/// and the haversine term h = key/4 are both computed to ~1e-15, so a row
/// whose key exceeds the cut by this much is at least 2R * 2.5e-13 km
/// (hundreds of ulps) farther than each of the m below it and can never
/// enter the exact first m.
inline constexpr double kChordKeyMargin = 1e-12;

class NearestRanker {
 public:
  /// (distance_km(point[index], q), index): sorting these sorts by the
  /// ranking contract.
  using Ranked = std::pair<double, std::size_t>;

  NearestRanker() = default;
  /// Pool index i is points[i]; the ranker keeps its own copy.
  explicit NearestRanker(std::span<const GeoPoint> points);

  [[nodiscard]] std::size_t size() const noexcept { return loc_.size(); }

  /// The candidates for the first m pool indices nearest `q`, sorted by
  /// (distance_km(point[i], q), i): every row whose squared chord to q is
  /// within kChordKeyMargin of the m-th smallest. The first min(m, size())
  /// entries are exactly the first m of the pool; empty when m == 0.
  [[nodiscard]] std::vector<Ranked> rank(const GeoPoint& q,
                                         std::size_t m) const;

 private:
  /// Rows per leaf, at most.
  static constexpr std::size_t kLeafSize = 16;

  struct Split {
    double value = 0.0;  ///< the median row's coordinate on `axis`
    int axis = 0;        ///< 0 = x, 1 = y, 2 = z
  };

  [[nodiscard]] double key(std::size_t row, const double (&q)[3]) const;
  void knn(std::size_t node, std::size_t lo, std::size_t hi,
           const double (&q)[3], std::size_t m,
           std::vector<double>& heap) const;
  void collect(std::size_t node, std::size_t lo, std::size_t hi,
               const double (&q)[3], double cut, const GeoPoint& at,
               std::vector<Ranked>& out) const;

  // Rows in tree order; index_[row] is the row's pool index.
  std::vector<double> xyz_[3];
  std::vector<GeoPoint> loc_;
  std::vector<std::size_t> index_;
  // Implicit tree: node i covers a range [lo, hi), its children are 2i + 1
  // ([lo, mid)) and 2i + 2 ([mid, hi)) with mid = lo + (hi - lo) / 2.
  std::vector<Split> splits_;
};

}  // namespace geoloc::geo
