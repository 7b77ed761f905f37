// Golden digests of the two prefix-keyed answers the simulation gives:
// World::bgp_lookup (the Section 5.2.3 BGP table) and GeoDatabase::lookup
// (the Section 6 commercial databases). Each digest is an XXH64 over every
// answer for a fixed set of addresses, so a change to either table's
// structure must keep every (prefix, length, ASN) and every (lat, lon,
// source) byte the same to pass.
//
// To regenerate after an intended change, run this test: each failure
// message prints the digest the code now produces.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/geodb.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "sim/churn.h"
#include "util/durable.h"

namespace geoloc {
namespace {

constexpr std::uint64_t kBgpDigest = 0x53b89d12a13b7b13;
constexpr std::uint64_t kGeoDbDigest = 0x3fcddfae41ceaab7;

class Digest {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<std::byte>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    u32(static_cast<std::uint32_t>(bits));
    u32(static_cast<std::uint32_t>(bits >> 32));
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (const char c : s) u8(static_cast<std::uint8_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const {
    return util::durable::xxh64(std::span<const std::byte>(bytes_));
  }

 private:
  std::vector<std::byte> bytes_;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Every host address plus the first and last address of its /16 and /24.
std::vector<net::IPv4Address> probe_addresses(const sim::World& world) {
  std::vector<net::IPv4Address> out;
  for (const sim::Host& h : world.hosts()) {
    out.push_back(h.addr);
    for (const int len : {16, 24}) {
      const net::Prefix p{h.addr, len};
      out.push_back(p.network());
      out.push_back(p.address_at(static_cast<std::uint32_t>(p.size() - 1)));
    }
  }
  return out;
}

void add_bgp_answers(const sim::World& world, Digest& d) {
  for (const net::IPv4Address a : probe_addresses(world)) {
    d.u32(a.value());
    const auto origin = world.bgp_lookup(a);
    d.u8(origin ? 1 : 0);
    if (!origin) continue;
    d.u32(origin->first.network().value());
    d.u8(static_cast<std::uint8_t>(origin->first.length()));
    d.u32(origin->second.value);
  }
}

scenario::Scenario small_scenario() {
  auto cfg = scenario::small_config(1);
  cfg.cache_dir = "";
  return scenario::Scenario(cfg);
}

TEST(PrefixAnswersGolden, BgpLookupThroughChurnEpochs) {
  auto s = small_scenario();
  Digest d;
  add_bgp_answers(s.world(), d);
  sim::ChurnModel churn(s.world(), s.targets(), s.vps());
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    churn.advance(epoch);
    add_bgp_answers(s.world(), d);
  }
  EXPECT_EQ(hex(d.value()), hex(kBgpDigest));
}

TEST(PrefixAnswersGolden, GeoDatabaseLookupBothProfiles) {
  const auto s = small_scenario();
  Digest d;
  for (const auto profile :
       {core::GeoDbProfile::MaxMindFree, core::GeoDbProfile::IPinfo}) {
    const auto db = core::GeoDatabase::build(s, profile);
    d.u32(static_cast<std::uint32_t>(db.size()));
    for (const sim::HostId t : s.targets()) {
      const net::IPv4Address a = s.world().host(t).addr;
      d.u32(a.value());
      const auto hit = db.lookup(a);
      d.u8(hit ? 1 : 0);
      if (!hit) continue;
      d.f64(hit->location.lat_deg);
      d.f64(hit->location.lon_deg);
      d.str(hit->source);
    }
  }
  EXPECT_EQ(hex(d.value()), hex(kGeoDbDigest));
}

}  // namespace
}  // namespace geoloc
