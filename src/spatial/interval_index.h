// Immutable cells → intervals → sorted-arrays payload index (DESIGN.md
// §13).
//
// Every payload is keyed by the level-20 leaf token of its location
// (CellId::leaf_token). The index is three flat arrays in CSR layout:
// sorted unique tokens, per-token offsets, and payload IDs. A hierarchy
// cell at any level owns a contiguous token interval [token_lo, token_hi),
// so querying a covering is one binary search per cell plus a linear walk
// over the hits — no per-query allocation beyond the result.
//
// Builds are deterministic at any GEOLOC_THREADS: tokens are computed with
// util::parallel_map (committed by index), then (token, payload) pairs are
// sorted — same bytes for 1 or 64 workers. Within a token bucket payloads
// appear in ascending order, which the call sites rely on for identical
// iteration order with the legacy linear scans.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/disk.h"
#include "spatial/cell.h"
#include "spatial/covering.h"

namespace geoloc::spatial {

class IntervalIndex {
 public:
  struct Item {
    geo::GeoPoint point;
    std::uint32_t payload = 0;
  };

  IntervalIndex() = default;

  /// Build from located payloads. Tokens are computed in parallel; the
  /// result is byte-identical for any worker count.
  static IntervalIndex build(std::span<const Item> items);

  /// Build with payload i = i.
  static IntervalIndex build(std::span<const geo::GeoPoint> points);

  [[nodiscard]] std::size_t size() const noexcept { return payloads_.size(); }
  [[nodiscard]] bool empty() const noexcept { return payloads_.empty(); }
  [[nodiscard]] std::size_t token_count() const noexcept {
    return tokens_.size();
  }

  /// Payloads whose leaf token equals `token`, ascending. Empty span when
  /// the token is absent.
  [[nodiscard]] std::span<const std::uint32_t> at_token(
      std::uint64_t token) const noexcept;

  /// Append every payload whose token falls in a cell of `cells` to `out`.
  /// Cells must be disjoint (as cover_disk/cover_rect produce), so no
  /// payload is appended twice; results come out in token order.
  void collect(std::span<const CellId> cells,
               std::vector<std::uint32_t>& out) const;

  /// Candidate payloads for a disk / rect query: every payload inside the
  /// region is present (guaranteed superset); the caller applies the exact
  /// predicate. Token order.
  [[nodiscard]] std::vector<std::uint32_t> candidates_in_disk(
      const geo::Disk& disk) const;
  [[nodiscard]] std::vector<std::uint32_t> candidates_in_rect(
      const LatLonRect& rect) const;

  friend bool operator==(const IntervalIndex&,
                         const IntervalIndex&) = default;

 private:
  std::vector<std::uint64_t> tokens_;   ///< sorted unique leaf tokens
  /// tokens_.size() + 1 bucket bounds; the [0] sentinel is always present.
  std::vector<std::uint32_t> offsets_{0};
  std::vector<std::uint32_t> payloads_; ///< bucket-grouped payload IDs
};

}  // namespace geoloc::spatial
