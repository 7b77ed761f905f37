#include "geo/nearest.h"

#include <algorithm>

#include "geo/geodesy.h"

namespace geoloc::geo {

NearestRanker::NearestRanker(std::span<const GeoPoint> points) {
  // Rows carry their unit vector and pool index while the tree is built:
  // each node's range is split at its median on its widest axis.
  struct Row {
    double v[3];
    std::size_t index;
  };
  std::vector<Row> rows;
  rows.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Vec3 u = unit_vector(points[i]);
    rows.push_back(Row{{u.x, u.y, u.z}, i});
  }
  const auto partition = [&](auto& self, std::size_t node, std::size_t lo,
                             std::size_t hi) -> void {
    if (hi - lo <= kLeafSize) return;
    double lo_c[3], hi_c[3];
    for (int a = 0; a < 3; ++a) lo_c[a] = hi_c[a] = rows[lo].v[a];
    for (std::size_t r = lo + 1; r < hi; ++r) {
      for (int a = 0; a < 3; ++a) {
        lo_c[a] = std::min(lo_c[a], rows[r].v[a]);
        hi_c[a] = std::max(hi_c[a], rows[r].v[a]);
      }
    }
    int axis = 0;
    for (int a = 1; a < 3; ++a) {
      if (hi_c[a] - lo_c[a] > hi_c[axis] - lo_c[axis]) axis = a;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    const auto at = [&](std::size_t r) {
      return rows.begin() + static_cast<std::ptrdiff_t>(r);
    };
    std::nth_element(at(lo), at(mid), at(hi),
                     [axis](const Row& a, const Row& b) {
                       return a.v[axis] < b.v[axis];
                     });
    if (node >= splits_.size()) splits_.resize(node + 1);
    splits_[node] = Split{rows[mid].v[axis], axis};
    self(self, 2 * node + 1, lo, mid);
    self(self, 2 * node + 2, mid, hi);
  };
  partition(partition, 0, 0, rows.size());

  index_.reserve(rows.size());
  loc_.reserve(rows.size());
  for (auto& c : xyz_) c.reserve(rows.size());
  for (const Row& r : rows) {
    index_.push_back(r.index);
    loc_.push_back(points[r.index]);
    for (int a = 0; a < 3; ++a) xyz_[a].push_back(r.v[a]);
  }
}

double NearestRanker::key(std::size_t row, const double (&q)[3]) const {
  const double dx = xyz_[0][row] - q[0];
  const double dy = xyz_[1][row] - q[1];
  const double dz = xyz_[2][row] - q[2];
  return dx * dx + dy * dy + dz * dz;
}

void NearestRanker::knn(std::size_t node, std::size_t lo, std::size_t hi,
                        const double (&q)[3], std::size_t m,
                        std::vector<double>& heap) const {
  if (hi - lo <= kLeafSize) {
    for (std::size_t row = lo; row < hi; ++row) {
      const double k = key(row, q);
      if (heap.size() < m) {
        heap.push_back(k);
        std::push_heap(heap.begin(), heap.end());
      } else if (k < heap.front()) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = k;
        std::push_heap(heap.begin(), heap.end());
      }
    }
    return;
  }
  const Split& s = splits_[node];
  const std::size_t mid = lo + (hi - lo) / 2;
  const double d = s.value - q[s.axis];
  // d > 0: q lies below the split, so [lo, mid) is the near side.
  const bool left_near = d > 0;
  if (left_near) {
    knn(2 * node + 1, lo, mid, q, m, heap);
  } else {
    knn(2 * node + 2, mid, hi, q, m, heap);
  }
  if (heap.size() == m && d * d > heap.front()) return;
  if (left_near) {
    knn(2 * node + 2, mid, hi, q, m, heap);
  } else {
    knn(2 * node + 1, lo, mid, q, m, heap);
  }
}

void NearestRanker::collect(std::size_t node, std::size_t lo, std::size_t hi,
                            const double (&q)[3], double cut,
                            const GeoPoint& at,
                            std::vector<Ranked>& out) const {
  if (hi - lo <= kLeafSize) {
    for (std::size_t row = lo; row < hi; ++row) {
      if (key(row, q) <= cut) {
        out.emplace_back(distance_km(loc_[row], at), index_[row]);
      }
    }
    return;
  }
  const Split& s = splits_[node];
  const std::size_t mid = lo + (hi - lo) / 2;
  const double d = s.value - q[s.axis];
  const bool left_near = d > 0;
  const bool far_pruned = d * d > cut;
  if (left_near || !far_pruned) {
    collect(2 * node + 1, lo, mid, q, cut, at, out);
  }
  if (!left_near || !far_pruned) {
    collect(2 * node + 2, mid, hi, q, cut, at, out);
  }
}

std::vector<NearestRanker::Ranked> NearestRanker::rank(const GeoPoint& q,
                                                       std::size_t m) const {
  std::vector<Ranked> out;
  m = std::min(m, size());
  if (m == 0) return out;
  const Vec3 u = unit_vector(q);
  const double qv[3] = {u.x, u.y, u.z};
  std::vector<double> heap;
  heap.reserve(m);
  knn(0, 0, size(), qv, m, heap);
  out.reserve(m);
  collect(0, 0, size(), qv, heap.front() + kChordKeyMargin, q, out);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace geoloc::geo
