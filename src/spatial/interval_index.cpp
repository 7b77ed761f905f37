#include "spatial/interval_index.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "util/durable.h"
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
  const std::span<const std::uint64_t> toks = tokens();
  const std::span<const std::uint32_t> offs = offsets();
  const auto it = std::lower_bound(toks.begin(), toks.end(), token);
  if (it == toks.end() || *it != token) return {};
  const std::size_t b = static_cast<std::size_t>(it - toks.begin());
  return payloads().subspan(offs[b], offs[b + 1] - offs[b]);
}

void IntervalIndex::collect(std::span<const CellId> cells,
                            std::vector<std::uint32_t>& out) const {
  const std::span<const std::uint64_t> toks = tokens();
  const std::span<const std::uint32_t> offs = offsets();
  const std::span<const std::uint32_t> pay = payloads();
  for (const CellId& cell : cells) {
    const std::uint64_t lo = cell.token_lo();
    const std::uint64_t hi = cell.token_hi();
    auto it = std::lower_bound(toks.begin(), toks.end(), lo);
    for (; it != toks.end() && *it < hi; ++it) {
      const std::size_t b = static_cast<std::size_t>(it - toks.begin());
      out.insert(out.end(), pay.begin() + offs[b], pay.begin() + offs[b + 1]);
    }
  }
}

std::vector<std::uint32_t> IntervalIndex::candidates_in_disk(
    const geo::Disk& disk, const CoveringOptions& options) const {
  query_counter().add();
  std::vector<std::uint32_t> out;
  collect(cover_disk(disk, options), out);
  candidates_hist().observe(static_cast<double>(out.size()));
  return out;
}

std::vector<std::uint32_t> IntervalIndex::candidates_in_rect(
    const LatLonRect& rect, const CoveringOptions& options) const {
  query_counter().add();
  std::vector<std::uint32_t> out;
  collect(cover_rect(rect, options), out);
  candidates_hist().observe(static_cast<double>(out.size()));
  return out;
}

bool IntervalIndex::save(const std::string& path, std::string* error) const {
  const std::span<const std::uint64_t> toks = tokens();
  const std::span<const std::uint32_t> offs = offsets();
  const std::span<const std::uint32_t> pay = payloads();
  util::durable::PayloadWriter w;
  w.pod(static_cast<std::uint64_t>(toks.size()));
  w.pod(static_cast<std::uint64_t>(pay.size()));
  w.bytes(toks.data(), toks.size() * sizeof(std::uint64_t));
  w.bytes(offs.data(), offs.size() * sizeof(std::uint32_t));
  w.bytes(pay.data(), pay.size() * sizeof(std::uint32_t));
  return util::durable::write_framed(path, kIntervalIndexMagic,
                                     kIntervalIndexVersion, w.data(), error);
}

bool operator==(const IntervalIndex& a, const IntervalIndex& b) {
  return std::ranges::equal(a.tokens(), b.tokens()) &&
         std::ranges::equal(a.offsets(), b.offsets()) &&
         std::ranges::equal(a.payloads(), b.payloads());
}

std::optional<IntervalIndex> IntervalIndex::load(const std::string& path) {
  // Checksum-validated before use (read_framed_mapped runs the full header
  // + XXH64 sequence against the mapping); only then are the CSR arrays
  // aliased in place.
  util::durable::FramedView fv =
      util::durable::read_framed_mapped(path, kIntervalIndexMagic);
  if (!fv.ok() || fv.version != kIntervalIndexVersion) return std::nullopt;

  std::uint64_t n_tokens = 0;
  std::uint64_t n_payloads = 0;
  {
    util::durable::PayloadReader r(fv.payload);
    if (!r.pod(n_tokens) || !r.pod(n_payloads)) return std::nullopt;
    // Sanity-bound the counts by the remaining bytes before using them.
    const std::size_t need = n_tokens * sizeof(std::uint64_t) +
                             (n_tokens + 1) * sizeof(std::uint32_t) +
                             n_payloads * sizeof(std::uint32_t);
    if (n_tokens > fv.payload.size() || n_payloads > fv.payload.size() ||
        need != r.remaining()) {
      return std::nullopt;
    }
  }

  // Alias the three arrays in place. The payload sits kFrameHeaderBytes
  // (40) into a page-aligned mapping (or into the heap buffer of the
  // fallback), and the two u64 counts precede the u64 token array, so
  // every array lands on its natural alignment; the check below is the
  // belt-and-braces guard for an exotic allocator.
  const std::byte* base = fv.payload.data() + 2 * sizeof(std::uint64_t);
  if (reinterpret_cast<std::uintptr_t>(base) % alignof(std::uint64_t) != 0) {
    return std::nullopt;
  }
  IntervalIndex idx;
  idx.tokens_view_ = std::span<const std::uint64_t>(
      reinterpret_cast<const std::uint64_t*>(base), n_tokens);
  idx.offsets_view_ = std::span<const std::uint32_t>(
      reinterpret_cast<const std::uint32_t*>(base +
                                             n_tokens * sizeof(std::uint64_t)),
      n_tokens + 1);
  idx.payloads_view_ = std::span<const std::uint32_t>(
      idx.offsets_view_.data() + n_tokens + 1, n_payloads);
  idx.keepalive_ = std::move(fv.keepalive);
  idx.mapped_ = fv.mapped;
  idx.offsets_.clear();  // the view is authoritative; drop the {0} sentinel

  // Structural validation: tokens strictly ascending, offsets monotone and
  // spanning the payload array.
  const std::span<const std::uint64_t> toks = idx.tokens();
  const std::span<const std::uint32_t> offs = idx.offsets();
  if (!std::is_sorted(toks.begin(), toks.end()) ||
      std::adjacent_find(toks.begin(), toks.end()) != toks.end() ||
      !std::is_sorted(offs.begin(), offs.end()) || offs.front() != 0 ||
      offs.back() != n_payloads) {
    return std::nullopt;
  }
  return idx;
}

}  // namespace geoloc::spatial
