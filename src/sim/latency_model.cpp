#include "sim/latency_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geo/constants.h"
#include "geo/geodesy.h"

namespace geoloc::sim {

namespace {

// Substream label hashes of the pair generators, hoisted so the batch path
// does not re-run FNV-1a per cell. Keep in sync with the string literals in
// pair_gen/city_pair_gen call sites below (the scale suite asserts the batch
// path is bit-identical to the scalar one, which pins these).
constexpr std::uint64_t kInflationLabel = util::hash_label("inflation");
constexpr std::uint64_t kInflationHostLabel = util::hash_label("inflation-host");
constexpr std::uint64_t kOverheadCityLabel = util::hash_label("overhead-city");
constexpr std::uint64_t kOverheadLocalLabel = util::hash_label("overhead-local");

/// The shared seed derivation of pair_gen/city_pair_gen with the label
/// already hashed and the unordered pair already split into (lo, hi).
util::Pcg32 keyed_gen(std::uint64_t seed, std::uint64_t label_hash,
                      std::uint64_t lo, std::uint64_t hi) noexcept {
  std::uint64_t s = seed ^ label_hash ^ (lo * 0x9e3779b97f4a7c15ULL) ^
                    (hi * 0xc2b2ae3d27d4eb4fULL);
  return util::Pcg32{util::splitmix64(s)};
}

}  // namespace

LatencyModel::LatencyModel(const World& world, const LatencyModelConfig& config)
    : world_(&world),
      config_(config),
      seed_(world.rng().fork("latency").seed()) {}

util::Pcg32 LatencyModel::pair_gen(HostId a, HostId b,
                                   std::string_view label) const {
  // Unordered pair so RTT(a,b) == RTT(b,a) for the deterministic parts —
  // except for explicitly directional labels, where callers pass (src, hop).
  const std::uint64_t lo = std::min(a, b);
  const std::uint64_t hi = std::max(a, b);
  std::uint64_t s = seed_ ^ util::hash_label(label) ^ (lo * 0x9e3779b97f4a7c15ULL) ^
                    (hi * 0xc2b2ae3d27d4eb4fULL);
  return util::Pcg32{util::splitmix64(s)};
}

util::Pcg32 LatencyModel::city_pair_gen(HostId a, HostId b,
                                        std::string_view label) const {
  const std::uint64_t ca = world_->place(world_->host(a).place).parent;
  const std::uint64_t cb = world_->place(world_->host(b).place).parent;
  const std::uint64_t lo = std::min(ca, cb);
  const std::uint64_t hi = std::max(ca, cb);
  std::uint64_t s = seed_ ^ util::hash_label(label) ^
                    (lo * 0x9e3779b97f4a7c15ULL) ^ (hi * 0xc2b2ae3d27d4eb4fULL);
  return util::Pcg32{util::splitmix64(s)};
}

double LatencyModel::pair_inflation(HostId a, HostId b) const {
  auto cgen = city_pair_gen(a, b, "inflation");
  auto hgen = pair_gen(a, b, "inflation-host");
  const double raw =
      cgen.lognormal(config_.inflation_mu, config_.inflation_sigma) *
      hgen.lognormal(0.0, config_.inflation_host_sigma);
  const double d = geo::distance_km(world_->host(a).true_location,
                                    world_->host(b).true_location);
  const double short_boost =
      1.0 + config_.short_path_boost_km / (d + config_.short_path_floor_km);
  return std::max(config_.min_inflation, raw * short_boost);
}

double LatencyModel::base_rtt_ms(HostId a, HostId b) const {
  const Host& ha = world_->host(a);
  const Host& hb = world_->host(b);
  const double d = geo::distance_km(ha.true_location, hb.true_location);
  const double prop = geo::distance_to_min_rtt_ms(d);
  // Overhead: path-level (city pair, fewer devices on short paths) plus a
  // host-local component.
  auto cgen = city_pair_gen(a, b, "overhead-city");
  auto lgen = pair_gen(a, b, "overhead-local");
  const double dist_scale = 0.25 + 0.75 * std::min(1.0, d / 500.0);
  const double overhead =
      cgen.exponential(config_.overhead_mean_ms) * dist_scale +
      lgen.exponential(config_.overhead_local_mean_ms);
  // Tromboning penalties; waived for intra-city traffic where the city has
  // a local exchange.
  double penalty = 0.0;
  const bool same_city =
      world_->place(ha.place).parent == world_->place(hb.place).parent;
  if (!(same_city && world_->has_local_peering(ha.place))) {
    penalty = world_->access_penalty_ms(ha.place) +
              world_->access_penalty_ms(hb.place);
  }
  return prop * pair_inflation(a, b) + overhead + ha.last_mile_ms +
         hb.last_mile_ms + penalty;
}

double LatencyModel::sample_rtt_ms(HostId a, HostId b,
                                   util::Pcg32& gen) const {
  return base_rtt_ms(a, b) + gen.exponential(config_.jitter_mean_ms);
}

std::optional<double> LatencyModel::min_rtt_ms(HostId src, HostId dst,
                                               int packets,
                                               util::Pcg32& gen) const {
  return ping_sample(src, dst, packets, gen).min_rtt_ms;
}

LatencyModel::PingSample LatencyModel::ping_sample(HostId src, HostId dst,
                                                   int packets,
                                                   util::Pcg32& gen) const {
  if (!world_->host(dst).responsive) return {};
  return ping_sample_with_base(base_rtt_ms(src, dst), /*responsive=*/true,
                               packets, gen);
}

LatencyModel::PingSample LatencyModel::ping_sample_with_base(
    double base_rtt, bool responsive, int packets, util::Pcg32& gen) const {
  // skip_ping_sample below spends these draws without the RTT: keep the two
  // loops in step.
  PingSample sample;
  if (!responsive) return sample;
  for (int i = 0; i < packets; ++i) {
    if (gen.chance(config_.loss_rate)) continue;
    const double rtt = base_rtt + gen.exponential(config_.jitter_mean_ms);
    ++sample.packets_received;
    if (!sample.min_rtt_ms || rtt < *sample.min_rtt_ms) sample.min_rtt_ms = rtt;
  }
  return sample;
}

void LatencyModel::skip_ping_sample(bool responsive, int packets,
                                    util::Pcg32& gen) const {
  // ping_sample_with_base's draws: exponential() is one uniform().
  if (!responsive) return;
  for (int i = 0; i < packets; ++i) {
    if (!gen.chance(config_.loss_rate)) static_cast<void>(gen.uniform());
  }
}

LatencyModel::HostSoA LatencyModel::host_soa(
    std::span<const HostId> hosts) const {
  HostSoA soa;
  const std::size_t n = hosts.size();
  soa.ids.assign(hosts.begin(), hosts.end());
  soa.location.reserve(n);
  soa.points.reserve(n);
  soa.city.reserve(n);
  soa.last_mile_ms.reserve(n);
  soa.access_penalty_ms.reserve(n);
  soa.local_peering.reserve(n);
  soa.responsive.reserve(n);
  for (const HostId id : hosts) {
    if (id == kInvalidHost) {
      // Placeholder slot (e.g. a /24 with fewer than three usable
      // representatives): never responsive, so its base RTT is never
      // consumed and no packet draws happen — identical to probing an
      // unresponsive host.
      soa.location.emplace_back();
      soa.points.push_back(geo::GeoPoint{});
      soa.city.push_back(0);
      soa.last_mile_ms.push_back(0.0);
      soa.access_penalty_ms.push_back(0.0);
      soa.local_peering.push_back(0);
      soa.responsive.push_back(0);
      continue;
    }
    const Host& h = world_->host(id);
    soa.location.push_back(h.true_location);
    soa.points.push_back(h.true_location);
    soa.city.push_back(world_->place(h.place).parent);
    soa.last_mile_ms.push_back(h.last_mile_ms);
    soa.access_penalty_ms.push_back(world_->access_penalty_ms(h.place));
    soa.local_peering.push_back(world_->has_local_peering(h.place) ? 1 : 0);
    soa.responsive.push_back(h.responsive ? 1 : 0);
  }
  return soa;
}

double LatencyModel::base_rtt_ms_at(const HostSoA& src, std::size_t i,
                                    const HostSoA& dst, std::size_t j,
                                    double d, CityPairCache& cache) const {
  // The scalar base_rtt_ms / pair_inflation expressions term for term and
  // in the same association — that is what makes the tile pipeline
  // byte-identical to the dense one, and what rtt_floor_ms mirrors.
  const double prop = geo::distance_to_min_rtt_ms(d);
  const std::uint64_t city_a = src.city[i];
  const std::uint64_t city_b = dst.city[j];
  const std::uint64_t clo = std::min(city_a, city_b);
  const std::uint64_t chi = std::max(city_a, city_b);
  const auto [it, fresh] = cache.try_emplace((clo << 32) | chi);
  if (fresh) {
    auto cigen = keyed_gen(seed_, kInflationLabel, clo, chi);
    it->second.inflation_city =
        cigen.lognormal(config_.inflation_mu, config_.inflation_sigma);
    auto cogen = keyed_gen(seed_, kOverheadCityLabel, clo, chi);
    it->second.overhead_city = cogen.exponential(config_.overhead_mean_ms);
  }
  const std::uint64_t host_a = src.ids[i];
  const std::uint64_t host_b = dst.ids[j];
  const std::uint64_t hlo = std::min(host_a, host_b);
  const std::uint64_t hhi = std::max(host_a, host_b);
  auto hgen = keyed_gen(seed_, kInflationHostLabel, hlo, hhi);
  const double raw = it->second.inflation_city *
                     hgen.lognormal(0.0, config_.inflation_host_sigma);
  const double short_boost =
      1.0 + config_.short_path_boost_km / (d + config_.short_path_floor_km);
  const double inflation = std::max(config_.min_inflation, raw * short_boost);
  auto lgen = keyed_gen(seed_, kOverheadLocalLabel, hlo, hhi);
  const double dist_scale = 0.25 + 0.75 * std::min(1.0, d / 500.0);
  const double overhead = it->second.overhead_city * dist_scale +
                          lgen.exponential(config_.overhead_local_mean_ms);
  return prop * inflation + overhead + src.last_mile_ms[i] +
         dst.last_mile_ms[j] + penalty_ms(src, i, dst, j);
}

void LatencyModel::base_rtt_ms_batch(const HostSoA& src, std::size_t i,
                                     const HostSoA& dst, std::size_t begin,
                                     std::size_t end, CityPairCache& cache,
                                     double* out) const {
  if (begin >= end) return;
  // Pass 1: great-circle distances into `out`, bit-identical to the scalar
  // distance_km per the batch-kernel contract. Pass 2 consumes each d and
  // overwrites the slot with the finished base RTT.
  geo::distance_km_batch(src.location[i], dst.points, begin, end, out);
  for (std::size_t j = begin; j < end; ++j) {
    out[j - begin] = base_rtt_ms_at(src, i, dst, j, out[j - begin], cache);
  }
}

double LatencyModel::floor_reach_km(double rtt_ms,
                                    double last_miles_ms) const noexcept {
  if (!(config_.min_inflation > 0.0)) {
    return std::numeric_limits<double>::infinity();
  }
  // rtt_floor_ms < rtt_ms needs prop · min_inflation < rtt_ms − last miles.
  const double prop = std::max(0.0, rtt_ms - last_miles_ms) /
                      config_.min_inflation;
  return geo::rtt_to_max_distance_km(prop, geo::kSoiTwoThirdsKmPerMs);
}

double LatencyModel::router_hop_rtt_ms(HostId src, HostId hop,
                                       util::Pcg32& gen) const {
  // Directional: the reverse path router->src is generally not the forward
  // path reversed, so the hop RTT is the pair base skewed by a deterministic
  // per-(src,hop) factor...
  auto agen = pair_gen(src, hop, "hop-asym");
  // ...fold in direction by hashing src into the label stream explicitly.
  for (std::uint32_t k = 0; k < (src & 3u); ++k) agen();
  const double asym = agen.lognormal(0.0, config_.router_asym_sigma);
  // ...plus the router's ICMP generation delay (control-plane, heavy tail).
  double icmp = gen.exponential(config_.router_icmp_mean_ms);
  if (gen.chance(config_.router_icmp_tail_prob)) {
    icmp += gen.pareto(config_.router_icmp_tail_scale_ms,
                       config_.router_icmp_tail_alpha);
  }
  return base_rtt_ms(src, hop) * asym + icmp +
         gen.exponential(config_.jitter_mean_ms);
}

}  // namespace geoloc::sim
