#include "publish/snapshot.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace geoloc::publish {

namespace {

using util::durable::load_f32;
using util::durable::load_f64;
using util::durable::load_u32;
using util::durable::load_u64;
using util::durable::store_f32;
using util::durable::store_f64;
using util::durable::store_u32;
using util::durable::store_u64;

bool fail(std::string* error, std::string message) {
  if (error) *error = std::move(message);
  return false;
}

/// (network, length) ordering shared by the builder and the validator.
bool prefix_less(const net::Prefix& a, const net::Prefix& b) noexcept {
  if (a.network() != b.network()) return a.network() < b.network();
  return a.length() < b.length();
}

}  // namespace

std::string_view to_string(Method m) noexcept {
  switch (m) {
    case Method::Cbg: return "cbg";
    case Method::TwoStep: return "two-step";
    case Method::StreetLevel: return "street-level";
    case Method::GeoDb: return "geodb";
    case Method::Fused: return "fused";
  }
  return "?";
}

Record to_record(const SnapshotEntry& e) {
  Record r;
  r.prefix = e.prefix;
  r.location = e.location;
  r.method = e.method;
  r.tier = e.tier;
  r.confidence_radius_km = e.confidence_radius_km;
  r.ttl_s = e.ttl_s;
  r.measured_at_s = e.measured_at_s;
  r.provenance = std::string(e.provenance);
  return r;
}

// -- builder ---------------------------------------------------------------

void SnapshotBuilder::add(Record record) {
  records_.push_back(std::move(record));
}

void SnapshotBuilder::add(std::span<const Record> records) {
  records_.insert(records_.end(), records.begin(), records.end());
}

std::vector<std::byte> SnapshotBuilder::build(const SnapshotMeta& meta) const {
  // Sort by (network, length); among duplicates of the same prefix the
  // last-added record wins.
  std::vector<const Record*> order;
  order.reserve(records_.size());
  for (const Record& r : records_) order.push_back(&r);
  std::stable_sort(order.begin(), order.end(),
                   [](const Record* a, const Record* b) {
                     return prefix_less(a->prefix, b->prefix);
                   });
  std::vector<const Record*> kept;
  kept.reserve(order.size());
  for (const Record* r : order) {
    if (!kept.empty() && kept.back()->prefix == r->prefix) {
      kept.back() = r;  // stable sort kept insertion order within ties
    } else {
      kept.push_back(r);
    }
  }

  // String pool: snapshot source first, then per-entry provenance,
  // deduplicated. Only offsets are assigned here; the bytes go straight
  // into the frame below.
  std::vector<std::string_view> pool_strings;
  std::unordered_map<std::string_view, std::uint32_t> interned;
  std::size_t pool_bytes = 0;
  const auto intern = [&](std::string_view s) -> std::uint32_t {
    if (s.empty()) return 0;
    const auto [it, inserted] =
        interned.try_emplace(s, static_cast<std::uint32_t>(pool_bytes));
    if (inserted) {
      pool_strings.push_back(s);
      pool_bytes += s.size();
    }
    return it->second;
  };
  const std::uint32_t source_offset = intern(meta.source);
  std::vector<std::uint32_t> provenance_offsets(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    provenance_offsets[i] = intern(kept[i]->provenance);
  }

  // One frame-sized buffer: metadata, entries and pool are written in
  // place, then seal_frame stamps the header and XXH64 trailer around them.
  const std::size_t entry_bytes = kept.size() * kEntryStride;
  std::vector<std::byte> out(util::durable::kFrameOverheadBytes + kMetaBytes +
                             entry_bytes + pool_bytes);
  std::byte* m = out.data() + util::durable::kFrameHeaderBytes;
  store_u64(m + 0, kept.size());
  store_u64(m + 8, pool_bytes);
  store_f64(m + 16, meta.created_at_s);
  store_u32(m + 24, meta.dataset_version);
  store_u32(m + 28, source_offset);
  store_u32(m + 32, static_cast<std::uint32_t>(meta.source.size()));
  store_u32(m + 36, 0);

  std::byte* e = m + kMetaBytes;
  for (std::size_t i = 0; i < kept.size(); ++i, e += kEntryStride) {
    const Record& r = *kept[i];
    store_u32(e + 0, r.prefix.network().value());
    e[4] = static_cast<std::byte>(r.prefix.length());
    e[5] = static_cast<std::byte>(r.method);
    e[6] = static_cast<std::byte>(r.tier);
    e[7] = std::byte{0};
    store_f64(e + 8, r.location.lat_deg);
    store_f64(e + 16, r.location.lon_deg);
    store_f64(e + 24, r.measured_at_s);
    store_f32(e + 32, r.confidence_radius_km);
    store_f32(e + 36, r.ttl_s);
    store_u32(e + 40, provenance_offsets[i]);
    store_u32(e + 44, static_cast<std::uint32_t>(r.provenance.size()));
  }
  for (const std::string_view str : pool_strings) {
    std::memcpy(e, str.data(), str.size());
    e += str.size();
  }
  util::durable::seal_frame(out, kSnapshotMagic, kFormatVersion);
  return out;
}

bool SnapshotBuilder::write_file(const std::string& path,
                                 const SnapshotMeta& meta,
                                 std::string* error) const {
  // build() already yields the sealed frame; atomic replacement
  // (util/durable.h) means a crash mid-publish leaves the previous snapshot
  // version intact, never a torn file under the name a serving process is
  // about to load.
  return util::durable::atomic_write_file(path, build(meta), error);
}

// -- reader ----------------------------------------------------------------

SnapshotEntry Snapshot::entry(std::size_t i) const noexcept {
  const std::byte* e = entries_ + i * kEntryStride;
  SnapshotEntry out;
  out.prefix = net::Prefix{net::IPv4Address{load_u32(e + 0)},
                           static_cast<std::uint8_t>(e[4])};
  out.method = static_cast<Method>(e[5]);
  out.tier = static_cast<core::CbgVerdict>(e[6]);
  out.location.lat_deg = load_f64(e + 8);
  out.location.lon_deg = load_f64(e + 16);
  out.measured_at_s = load_f64(e + 24);
  out.confidence_radius_km = load_f32(e + 32);
  out.ttl_s = load_f32(e + 36);
  const std::uint32_t off = load_u32(e + 40);
  const std::uint32_t len = load_u32(e + 44);
  out.provenance =
      std::string_view(reinterpret_cast<const char*>(pool_ + off), len);
  return out;
}

std::optional<SnapshotEntry> Snapshot::find(net::IPv4Address a) const {
  const auto* slot = index_.lookup(a);
  if (!slot) return std::nullopt;
  return entry(slot->value);
}

std::shared_ptr<const Snapshot> Snapshot::from_bytes(
    std::vector<std::byte> bytes, std::string* error) {
  auto owned = std::make_shared<std::vector<std::byte>>(std::move(bytes));
  util::durable::FramedView view =
      util::durable::open_frame(*owned, kSnapshotMagic);
  if (!view.ok()) {
    fail(error, "snapshot: " + view.error);
    return nullptr;
  }
  view.keepalive = std::move(owned);
  return parse(std::move(view), error);
}

std::shared_ptr<const Snapshot> Snapshot::load(const std::string& path,
                                               std::string* error,
                                               bool quarantine_corrupt) {
  util::durable::FramedView view = util::durable::read_framed_mapped(
      path, kSnapshotMagic, quarantine_corrupt);
  if (!view.ok()) {
    fail(error, "snapshot: " + view.error);
    return nullptr;
  }
  auto snap = parse(std::move(view), error);
  // The frame was intact but the content is not a valid snapshot:
  // quarantine it too, so the publisher's next write starts clean and
  // retries don't spin on the same bad bytes.
  if (!snap && quarantine_corrupt) util::durable::quarantine(path);
  return snap;
}

std::shared_ptr<const Snapshot> Snapshot::parse(
    util::durable::FramedView view, std::string* error) {
  const auto reject = [&](std::string message) {
    fail(error, "snapshot: " + std::move(message));
    return nullptr;
  };

  if (view.version != kFormatVersion) {
    return reject("unsupported format version " +
                  std::to_string(view.version));
  }
  const std::span<const std::byte> payload = view.payload;
  if (payload.size() < kMetaBytes) {
    return reject("truncated metadata (" + std::to_string(payload.size()) +
                  " bytes)");
  }
  const std::byte* m = payload.data();
  const std::uint64_t count = load_u64(m + 0);
  const std::uint64_t pool_bytes = load_u64(m + 8);
  // Overflow-safe size check: bound the count by the payload first.
  const std::size_t body = payload.size() - kMetaBytes;
  if (count > body / kEntryStride) {
    return reject("truncated: entry region exceeds payload");
  }
  if (pool_bytes != body - count * kEntryStride) {
    return reject("size mismatch: " + std::to_string(count) + " entries and " +
                  std::to_string(pool_bytes) + " pool bytes in a " +
                  std::to_string(payload.size()) + "-byte payload");
  }
  const std::uint32_t source_offset = load_u32(m + 28);
  const std::uint32_t source_len = load_u32(m + 32);
  if (static_cast<std::uint64_t>(source_offset) + source_len > pool_bytes) {
    return reject("source string out of pool range");
  }

  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->entries_ = m + kMetaBytes;
  snap->pool_ = snap->entries_ + count * kEntryStride;
  snap->entry_count_ = static_cast<std::size_t>(count);
  snap->dataset_version_ = load_u32(m + 24);
  snap->created_at_s_ = load_f64(m + 16);
  snap->checksum_ = view.checksum;
  snap->source_ = std::string_view(
      reinterpret_cast<const char*>(snap->pool_ + source_offset), source_len);
  snap->keepalive_ = std::move(view.keepalive);

  // Semantic validation: every entry well-formed, strictly sorted.
  std::vector<std::pair<net::Prefix, std::uint32_t>> index_entries;
  index_entries.reserve(snap->entry_count_);
  for (std::size_t i = 0; i < snap->entry_count_; ++i) {
    const std::byte* e = snap->entries_ + i * kEntryStride;
    const std::uint32_t network = load_u32(e + 0);
    const int len = static_cast<std::uint8_t>(e[4]);
    if (len > 32) {
      return reject("entry " + std::to_string(i) + ": prefix length " +
                    std::to_string(len));
    }
    if ((network & ~net::Prefix::mask(len)) != 0) {
      return reject("entry " + std::to_string(i) + ": host bits set");
    }
    if (static_cast<std::uint8_t>(e[5]) >
        static_cast<std::uint8_t>(Method::Fused)) {
      return reject("entry " + std::to_string(i) + ": unknown method");
    }
    if (static_cast<std::uint8_t>(e[6]) >
        static_cast<std::uint8_t>(core::CbgVerdict::Unlocatable)) {
      return reject("entry " + std::to_string(i) + ": unknown tier");
    }
    const std::uint32_t off = load_u32(e + 40);
    const std::uint32_t plen = load_u32(e + 44);
    if (static_cast<std::uint64_t>(off) + plen > pool_bytes) {
      return reject("entry " + std::to_string(i) +
                    ": provenance out of pool range");
    }
    const net::Prefix prefix{net::IPv4Address{network}, len};
    if (!index_entries.empty() &&
        !prefix_less(index_entries.back().first, prefix)) {
      return reject("entries not strictly sorted at index " +
                    std::to_string(i));
    }
    index_entries.emplace_back(prefix, static_cast<std::uint32_t>(i));
  }
  snap->index_ = net::FlatLpm<std::uint32_t>::build(std::move(index_entries));
  return snap;
}

}  // namespace geoloc::publish
