// A keyed CSR bucket index (DESIGN.md §13): (key, id) pairs, sorted and
// de-duplicated into three flat arrays — sorted unique keys, bucket
// offsets, and bucket-grouped ids. A lookup is one binary search. Ids come
// back ascending within a bucket, which is the order the original hash-grid
// scans filled their buckets in. The build is serial, so it is
// byte-identical at any thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace geoloc::spatial {

class BucketIndex {
 public:
  using Entry = std::pair<std::uint64_t, std::uint32_t>;  ///< (key, id)

  BucketIndex() = default;

  /// Sort the pairs by (key, id) and drop duplicate pairs.
  explicit BucketIndex(std::vector<Entry> entries) {
    std::sort(entries.begin(), entries.end());
    entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
    ids_.reserve(entries.size());
    for (const auto& [key, id] : entries) {
      if (keys_.empty() || keys_.back() != key) {
        keys_.push_back(key);
        offsets_.push_back(offsets_.back());
      }
      ids_.push_back(id);
      ++offsets_.back();
    }
  }

  /// Ids stored under `key`, ascending; an empty span when it is absent.
  [[nodiscard]] std::span<const std::uint32_t> at(
      std::uint64_t key) const noexcept {
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it == keys_.end() || *it != key) return {};
    const auto b = static_cast<std::size_t>(it - keys_.begin());
    return std::span<const std::uint32_t>(ids_).subspan(
        offsets_[b], offsets_[b + 1] - offsets_[b]);
  }

 private:
  std::vector<std::uint64_t> keys_;        ///< sorted unique keys
  std::vector<std::uint32_t> offsets_{0};  ///< keys_.size() + 1 bucket bounds
  std::vector<std::uint32_t> ids_;         ///< bucket-grouped ids
};

}  // namespace geoloc::spatial
