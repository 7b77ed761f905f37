#include "core/geodb.h"

#include <utility>
#include <vector>

#include "geo/geodesy.h"

namespace geoloc::core {

std::string_view to_string(GeoDbProfile p) noexcept {
  switch (p) {
    case GeoDbProfile::MaxMindFree: return "MaxMind (Free)";
    case GeoDbProfile::IPinfo: return "IPinfo";
  }
  return "?";
}

namespace {

struct Draw {
  double error_km;
  std::string_view source;
};

/// IPinfo-like error process: mostly hint-anchored (DNS / geofeed), a
/// latency-refined middle, and a small stale-WHOIS tail. Calibrated to the
/// paper's 89% city-level figure.
Draw draw_ipinfo(util::Pcg32& gen) {
  const double u = gen.uniform();
  if (u < 0.50) return {gen.exponential(5.0), "geofeed"};
  if (u < 0.67) return {gen.exponential(9.0), "dns"};
  if (u < 0.89) return {gen.uniform(8.0, 40.0), "latency"};
  if (u < 0.97) return {gen.uniform(40.0, 350.0), "latency"};
  return {gen.uniform(350.0, 4'000.0), "whois"};
}

/// MaxMind-free-like error process: a decent city-level core but a heavy
/// wrong-metro / wrong-country tail. Calibrated to the paper's 55%.
Draw draw_maxmind(util::Pcg32& gen) {
  const double u = gen.uniform();
  if (u < 0.40) return {gen.exponential(8.0), "city"};
  if (u < 0.58) return {gen.uniform(10.0, 40.0), "city"};
  if (u < 0.82) return {gen.uniform(40.0, 600.0), "region"};
  if (u < 0.95) return {gen.uniform(300.0, 2'000.0), "country"};
  return {gen.uniform(2'000.0, 9'000.0), "country"};
}

}  // namespace

GeoDatabase GeoDatabase::build(const scenario::Scenario& s,
                               GeoDbProfile profile) {
  const auto& world = s.world();
  auto gen = world.rng()
                 .fork(profile == GeoDbProfile::IPinfo ? "geodb-ipinfo"
                                                       : "geodb-maxmind")
                 .gen();

  std::vector<std::pair<net::Prefix, GeoDbEntry>> entries;
  entries.reserve(s.targets().size());
  for (sim::HostId target : s.targets()) {
    const sim::Host& h = world.host(target);
    const Draw d = profile == GeoDbProfile::IPinfo ? draw_ipinfo(gen)
                                                   : draw_maxmind(gen);
    GeoDbEntry entry;
    entry.location =
        geo::destination(h.true_location, gen.uniform(0.0, 360.0), d.error_km);
    entry.source = d.source;
    // IPinfo resolves /24s; the free MaxMind data is frequently coarser.
    const int plen =
        profile == GeoDbProfile::IPinfo ? 24 : (gen.chance(0.6) ? 24 : 16);
    entries.emplace_back(net::Prefix{h.addr, plen}, entry);
  }
  // A prefix drawn twice (MaxMind's colliding /16s) keeps the later
  // target's entry: FlatLpm::build resolves duplicates to the last one.
  return GeoDatabase(profile,
                     net::FlatLpm<GeoDbEntry>::build(std::move(entries)));
}

std::optional<GeoDbEntry> GeoDatabase::lookup(net::IPv4Address a) const {
  const auto* hit = table_.lookup(a);
  if (!hit) return std::nullopt;
  return hit->value;
}

}  // namespace geoloc::core
