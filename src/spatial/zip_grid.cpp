#include "spatial/zip_grid.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace geoloc::spatial {

namespace {

/// Parse one zone-key field: an optionally-negative decimal integer of at
/// least `min_chars` characters, ending exactly at `end`. Returns false on
/// short fields, non-digits, trailing garbage, or overflow.
bool parse_field(const char* first, const char* end, int min_chars,
                 int& out) {
  if (end - first < min_chars) return false;
  const auto [ptr, ec] = std::from_chars(first, end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

ZipGrid::Key ZipGrid::key_of(const geo::GeoPoint& p) const {
  return Key{
      static_cast<int>(std::floor((p.lat_deg + 90.0) / cell_deg_)),
      static_cast<int>(std::floor((p.lon_deg + 180.0) / cell_deg_))};
}

std::string ZipGrid::format(const Key& key) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "Z%05dx%05d", key.lat_cell, key.lon_cell);
  return buf;
}

std::optional<ZipGrid::Key> ZipGrid::parse(std::string_view zip) {
  if (zip.size() < 12 || zip.front() != 'Z') return std::nullopt;
  const std::size_t x = zip.find('x', 1);
  if (x == std::string_view::npos) return std::nullopt;
  Key key;
  if (!parse_field(zip.data() + 1, zip.data() + x, 5, key.lat_cell) ||
      !parse_field(zip.data() + x + 1, zip.data() + zip.size(), 5,
                   key.lon_cell)) {
    return std::nullopt;
  }
  return key;
}

std::vector<std::string> ZipGrid::neighbor_zones(const std::string& zip) const {
  const auto key = parse(zip);
  if (!key) return {zip};
  std::vector<std::string> zones;
  zones.reserve(9);
  for (int dlat = -1; dlat <= 1; ++dlat) {
    for (int dlon = -1; dlon <= 1; ++dlon) {
      zones.push_back(
          format(Key{key->lat_cell + dlat, key->lon_cell + dlon}));
    }
  }
  return zones;
}

}  // namespace geoloc::spatial
