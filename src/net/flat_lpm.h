// Flattened longest-prefix-match table: the one general LPM in the code,
// serving published snapshots and the prefix-keyed geolocation databases.
//
// A binary trie would chase up to 32 heap pointers per lookup, each a
// potential cache miss. Once a prefix set is frozen (a published dataset
// snapshot, a built database), LPM over it can be answered from two
// flat arrays instead: sweep the prefixes in network order, resolving
// nesting with a stack, and emit the disjoint address intervals each
// prefix *owns*. A lookup is then a binary search over the interval start
// addresses, narrowed to a handful of candidates by a 64Ki-entry chunk
// table indexed with the address's top 16 bits (the classic DIR-16 / DXR
// move): in routing-table-shaped inputs a chunk holds only a few
// intervals, so the search degenerates to one or two contiguous probes.
//
// Build is O(n log n) and the interval arrays are at most 2n+1 long; the
// chunk table adds a flat 256 KiB per frozen table.
// The table is immutable after build(); concurrent lookups are safe.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/ipv4.h"

namespace geoloc::net {

/// Immutable LPM over a frozen prefix set. Duplicate prefixes in the input
/// resolve to the last occurrence, as if each entry overwrote the earlier
/// ones in input order.
template <typename Value>
class FlatLpm {
 public:
  struct Slot {
    Prefix prefix;
    Value value;
  };

  FlatLpm() = default;

  /// Freeze a prefix set. Consumes the entries (they are sorted in place).
  static FlatLpm build(std::vector<std::pair<Prefix, Value>> entries) {
    FlatLpm t;
    std::stable_sort(entries.begin(), entries.end(),
                     [](const auto& a, const auto& b) {
                       if (a.first.network() != b.first.network()) {
                         return a.first.network() < b.first.network();
                       }
                       return a.first.length() < b.first.length();
                     });
    t.slots_.reserve(entries.size());
    for (auto& [prefix, value] : entries) {
      if (!t.slots_.empty() && t.slots_.back().prefix == prefix) {
        t.slots_.back().value = std::move(value);  // last insert wins
      } else {
        t.slots_.push_back(Slot{prefix, std::move(value)});
      }
    }
    t.build_intervals();
    return t;
  }

  /// Longest-prefix match; nullptr when nothing covers the address.
  [[nodiscard]] const Slot* lookup(IPv4Address a) const noexcept {
    if (starts_.empty()) return nullptr;
    // The owning interval's index lies in [chunk_[hi16], chunk_[hi16 + 1]]:
    // the last interval starting at or before `a` within that window.
    const std::uint32_t hi16 = a.value() >> 16;
    const std::uint32_t lo = chunk_[hi16];
    const std::uint32_t hi = chunk_[hi16 + 1];
    const auto first = starts_.begin() + lo + 1;
    const auto last = starts_.begin() + hi + 1;
    const auto it = std::upper_bound(first, last, a.value());
    const std::int32_t owner = owner_[(it - starts_.begin()) - 1];
    return owner < 0 ? nullptr : &slots_[static_cast<std::size_t>(owner)];
  }

  /// Batched lookup: out[i] receives lookup(addrs[i]).
  /// Precondition: out.size() >= addrs.size().
  void lookup_batch(std::span<const IPv4Address> addrs,
                    std::span<const Slot*> out) const noexcept {
    for (std::size_t i = 0; i < addrs.size(); ++i) out[i] = lookup(addrs[i]);
  }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] bool empty() const noexcept { return slots_.empty(); }
  /// The frozen entries, sorted by (network, length).
  [[nodiscard]] std::span<const Slot> slots() const noexcept { return slots_; }
  /// Disjoint ownership intervals the prefix set flattened into.
  [[nodiscard]] std::size_t interval_count() const noexcept {
    return starts_.size();
  }

 private:
  void build_intervals() {
    starts_ = {0};
    owner_ = {-1};
    std::vector<std::int32_t> stack;  // active (nested) slots, outermost first
    const auto end_of = [&](std::int32_t i) {
      const Prefix& p = slots_[static_cast<std::size_t>(i)].prefix;
      return static_cast<std::uint64_t>(p.network().value()) + p.size() - 1;
    };
    const auto set_owner_at = [&](std::uint64_t pos, std::int32_t owner) {
      if (pos > 0xFFFFFFFFull) return;  // past the address space
      const auto p = static_cast<std::uint32_t>(pos);
      if (starts_.back() == p) {
        owner_.back() = owner;  // deeper prefix starting at the same address
      } else if (owner_.back() != owner) {
        starts_.push_back(p);
        owner_.push_back(owner);
      }
    };
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const std::uint64_t start = slots_[i].prefix.network().value();
      while (!stack.empty() && end_of(stack.back()) < start) {
        const std::uint64_t next = end_of(stack.back()) + 1;
        stack.pop_back();
        set_owner_at(next, stack.empty() ? -1 : stack.back());
      }
      stack.push_back(static_cast<std::int32_t>(i));
      set_owner_at(start, stack.back());
    }
    while (!stack.empty()) {
      const std::uint64_t next = end_of(stack.back()) + 1;
      stack.pop_back();
      set_owner_at(next, stack.empty() ? -1 : stack.back());
    }
    // chunk_[t] = index of the last interval starting at or before t<<16;
    // one extra entry so lookup can read chunk_[hi16 + 1] unconditionally.
    chunk_.resize((1u << 16) + 1);
    std::uint32_t i = 0;
    for (std::uint32_t t = 0; t < (1u << 16); ++t) {
      const std::uint32_t pos = t << 16;
      while (i + 1 < starts_.size() && starts_[i + 1] <= pos) ++i;
      chunk_[t] = i;
    }
    chunk_.back() = static_cast<std::uint32_t>(starts_.size() - 1);
  }

  std::vector<Slot> slots_;            // sorted by (network, length)
  std::vector<std::uint32_t> starts_;  // interval start addresses, ascending
  std::vector<std::int32_t> owner_;    // slot index owning the interval, or -1
  std::vector<std::uint32_t> chunk_;   // top-16-bit index into starts_
};

}  // namespace geoloc::net
