// Test oracle: the original full-tile core::streamed_select_block, kept
// verbatim so the bounded sweep (cells synthesised only while their RTT
// floor can beat a column's k-th best) can be pinned column for column.
// Use only in tests.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "scenario/rtt_matrix.h"
#include "scenario/tile_source.h"
#include "sim/world.h"

namespace geoloc::core::oracle {

inline std::vector<std::vector<std::size_t>> streamed_select_block_reference(
    scenario::RttTileSource& reps, std::size_t target_block, int k,
    std::span<const sim::HostId> col_self = {}) {
  const std::size_t col_begin = target_block * reps.shape().target_block;
  const std::size_t col_end =
      std::min(reps.cols(), col_begin + reps.shape().target_block);
  const std::size_t n_cols = col_end - col_begin;
  const auto kk = static_cast<std::size_t>(std::max(k, 0));
  const auto& vps = reps.campaign().vps;

  // Per column, a max-heap of the k smallest (rtt, row) pairs. The pair
  // ordering is the one the dense partial_sort uses, and the set of k
  // smallest pairs is independent of scan order, so the sorted heap equals
  // the dense selection exactly — while only ever holding one VP-block
  // tile plus k pairs per column.
  std::vector<std::vector<std::pair<float, std::size_t>>> best(n_cols);
  for (std::size_t vb = 0; vb < reps.vp_blocks(); ++vb) {
    const auto& t = reps.tile(vb, target_block);
    for (std::size_t rr = 0; rr < t.rows(); ++rr) {
      const std::size_t r = t.vp_begin + rr;
      const float* row = t.rtt.data() + rr * t.cols();
      for (std::size_t cc = 0; cc < n_cols; ++cc) {
        const float rtt = row[cc];
        if (scenario::RttMatrix::is_missing(rtt)) continue;
        if (!col_self.empty() && vps[r] == col_self[col_begin + cc]) continue;
        auto& heap = best[cc];
        const std::pair<float, std::size_t> cand{rtt, r};
        if (heap.size() < kk) {
          heap.push_back(cand);
          std::push_heap(heap.begin(), heap.end());
        } else if (kk != 0 && cand < heap.front()) {
          std::pop_heap(heap.begin(), heap.end());
          heap.back() = cand;
          std::push_heap(heap.begin(), heap.end());
        }
      }
    }
  }

  std::vector<std::vector<std::size_t>> out(n_cols);
  for (std::size_t cc = 0; cc < n_cols; ++cc) {
    std::sort(best[cc].begin(), best[cc].end());
    out[cc].reserve(best[cc].size());
    for (const auto& [rtt, r] : best[cc]) out[cc].push_back(r);
  }
  return out;
}

}  // namespace geoloc::core::oracle
