#include "spatial/interval_index.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/parallel.h"

namespace geoloc::spatial {

namespace {

obs::Counter& query_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("spatial.index.queries");
  return c;
}

obs::Histogram& candidates_hist() {
  static constexpr double kBounds[] = {0,  1,   2,   4,    8,    16,   32,
                                       64, 128, 256, 1024, 4096, 16384};
  static obs::Histogram& h = obs::Registry::instance().histogram(
      "spatial.index.candidates", kBounds);
  return h;
}

}  // namespace

IntervalIndex IntervalIndex::build(std::span<const Item> items) {
  IntervalIndex idx;
  const std::size_t n = items.size();
  // Token computation is the expensive half of the build; each slot is
  // owned by its index, so the map is deterministic at any worker count.
  std::vector<std::uint64_t> tokens = util::parallel_map<std::uint64_t>(
      n, [&](std::size_t i) { return CellId::leaf_token(items[i].point); });

  std::vector<std::pair<std::uint64_t, std::uint32_t>> pairs(n);
  for (std::size_t i = 0; i < n; ++i) {
    pairs[i] = {tokens[i], items[i].payload};
  }
  std::sort(pairs.begin(), pairs.end());

  idx.payloads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (idx.tokens_.empty() || idx.tokens_.back() != pairs[i].first) {
      idx.tokens_.push_back(pairs[i].first);
      idx.offsets_.push_back(static_cast<std::uint32_t>(idx.payloads_.size()));
    }
    idx.payloads_.push_back(pairs[i].second);
    idx.offsets_.back() = static_cast<std::uint32_t>(idx.payloads_.size());
  }
  static obs::Counter& builds =
      obs::Registry::instance().counter("spatial.index.builds");
  static obs::Counter& entries =
      obs::Registry::instance().counter("spatial.index.entries");
  builds.add();
  entries.add(static_cast<std::int64_t>(n));
  return idx;
}

IntervalIndex IntervalIndex::build(std::span<const geo::GeoPoint> points) {
  std::vector<Item> items(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    items[i] = {points[i], static_cast<std::uint32_t>(i)};
  }
  return build(items);
}

std::span<const std::uint32_t> IntervalIndex::at_token(
    std::uint64_t token) const noexcept {
  const auto it = std::lower_bound(tokens_.begin(), tokens_.end(), token);
  if (it == tokens_.end() || *it != token) return {};
  const std::size_t b = static_cast<std::size_t>(it - tokens_.begin());
  return std::span<const std::uint32_t>(payloads_)
      .subspan(offsets_[b], offsets_[b + 1] - offsets_[b]);
}

void IntervalIndex::collect(std::span<const CellId> cells,
                            std::vector<std::uint32_t>& out) const {
  for (const CellId& cell : cells) {
    const std::uint64_t lo = cell.token_lo();
    const std::uint64_t hi = cell.token_hi();
    auto it = std::lower_bound(tokens_.begin(), tokens_.end(), lo);
    for (; it != tokens_.end() && *it < hi; ++it) {
      const std::size_t b = static_cast<std::size_t>(it - tokens_.begin());
      out.insert(out.end(), payloads_.begin() + offsets_[b],
                 payloads_.begin() + offsets_[b + 1]);
    }
  }
}

std::vector<std::uint32_t> IntervalIndex::candidates_in_disk(
    const geo::Disk& disk) const {
  query_counter().add();
  std::vector<std::uint32_t> out;
  collect(cover_disk(disk), out);
  candidates_hist().observe(static_cast<double>(out.size()));
  return out;
}

std::vector<std::uint32_t> IntervalIndex::candidates_in_rect(
    const LatLonRect& rect) const {
  query_counter().add();
  std::vector<std::uint32_t> out;
  collect(cover_rect(rect), out);
  candidates_hist().observe(static_cast<double>(out.size()));
  return out;
}

}  // namespace geoloc::spatial
