// Test oracle: longest-prefix match by linear scan over every stored
// prefix, the reference net::FlatLpm is pinned against. Inserting an equal
// prefix overwrites its value, the rule FlatLpm::build applies to duplicate
// input entries. Cost: O(n) per insert and per lookup. Use only in tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "net/ipv4.h"

namespace geoloc::oracle {

template <typename Value>
class LpmScan {
 public:
  /// Insert, or overwrite the value of an equal prefix.
  void insert(const net::Prefix& prefix, Value value) {
    const auto it =
        std::find_if(entries_.begin(), entries_.end(),
                     [&](const auto& entry) { return entry.first == prefix; });
    if (it != entries_.end()) {
      it->second = std::move(value);
    } else {
      entries_.emplace_back(prefix, std::move(value));
    }
  }

  /// The longest stored prefix containing `a`, with its value.
  [[nodiscard]] std::optional<std::pair<net::Prefix, Value>> lookup(
      net::IPv4Address a) const {
    std::optional<std::pair<net::Prefix, Value>> best;
    for (const auto& [prefix, value] : entries_) {
      if (!prefix.contains(a)) continue;
      if (!best || prefix.length() > best->first.length()) {
        best = {prefix, value};
      }
    }
    return best;
  }

  /// Distinct prefixes, in first-insertion order.
  [[nodiscard]] const std::vector<std::pair<net::Prefix, Value>>& entries()
      const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  std::vector<std::pair<net::Prefix, Value>> entries_;
};

}  // namespace geoloc::oracle
