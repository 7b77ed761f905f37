// RTT synthesis between simulated hosts.
//
// Model (DESIGN.md "SOI-safe latency model"):
//
//   RTT(a,b) = prop(d_true(a,b)) * inflation(a,b)        // path circuitousness
//            + overhead(a,b)                             // serialization, hops
//            + last_mile(a) + last_mile(b)               // access delay
//            + jitter                                    // per measurement
//
// with prop(d) the 2/3-c great-circle minimum, inflation >= min_inflation > 1
// and everything else non-negative — so an RTT can never violate the speed
// of Internet with respect to the hosts' *true* locations. Hosts whose
// *reported* location is wrong are exactly the ones the paper's Section 4.3
// sanitiser catches.
//
// The deterministic components (inflation, overhead, asymmetry) are seeded
// per host pair, so repeated measurements of a pair are consistent up to
// jitter, like a real path.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "geo/constants.h"
#include "geo/geodesy_batch.h"
#include "sim/world.h"
#include "util/rng.h"

namespace geoloc::sim {

struct LatencyModelConfig {
  double min_inflation = 1.05;     ///< floor on path circuitousness
  /// Path circuitousness is a property of the route between two metros, so
  /// the bulk of it is drawn per *city pair*; a small per-host-pair factor
  /// captures intra-metro differences. Two hosts of the same city pair thus
  /// see nearly the same inflation — which is what keeps the street-level
  /// D1/D2 subtraction meaningful at all.
  double inflation_mu = 0.24;      ///< city-pair lognormal location
  double inflation_sigma = 0.20;   ///< city-pair lognormal scale
  double inflation_host_sigma = 0.05;  ///< per-host-pair lognormal scale
  /// Extra multiplicative inflation applied to short paths: real short paths
  /// detour through metro POPs, so the *relative* inflation grows as the
  /// geodesic shrinks. Multiplier = 1 + short_path_boost_km / (d + short_path_floor_km).
  double short_path_boost_km = 30.0;
  double short_path_floor_km = 35.0;
  /// Additive overhead, also split into a city-pair part (scaled down for
  /// short paths, which cross fewer devices) and a host-local part.
  double overhead_mean_ms = 0.8;        ///< city-pair component (exponential)
  double overhead_local_mean_ms = 0.15; ///< host-pair component (exponential)
  double jitter_mean_ms = 0.12;    ///< per-measurement additive jitter (exponential)
  double loss_rate = 0.006;        ///< per-packet loss probability
  /// Reverse-path asymmetry of router hop RTTs (lognormal sigma of the
  /// per-(src,router) multiplier). Drives the D1+D2 noise of Section 5.2.3.
  double router_asym_sigma = 0.25;
  /// Router ICMP generation delay: exponential mean + Pareto tail.
  double router_icmp_mean_ms = 6.5;
  double router_icmp_tail_scale_ms = 0.6;
  double router_icmp_tail_alpha = 1.6;
  double router_icmp_tail_prob = 0.35;
};

/// Synthesises RTT samples. Thread-safe: all methods are const and callers
/// supply their own generator for the per-measurement randomness.
class LatencyModel {
 public:
  LatencyModel(const World& world, const LatencyModelConfig& config = {});

  /// Deterministic RTT floor for the pair: everything except jitter.
  [[nodiscard]] double base_rtt_ms(HostId a, HostId b) const;

  /// One echo-request sample (base + jitter). Does not model loss.
  [[nodiscard]] double sample_rtt_ms(HostId a, HostId b,
                                     util::Pcg32& gen) const;

  /// Minimum of `packets` samples with loss; returns nullopt when the
  /// destination is unresponsive or every packet was lost.
  [[nodiscard]] std::optional<double> min_rtt_ms(HostId src, HostId dst,
                                                 int packets,
                                                 util::Pcg32& gen) const;

  /// One ping measurement with per-packet accounting.
  struct PingSample {
    std::optional<double> min_rtt_ms;  ///< nullopt: no packet came back
    int packets_received = 0;
  };

  /// Like min_rtt_ms, but also reports how many of the `packets` echo
  /// requests were answered — the observable loss a real platform reports.
  /// Consumes the generator identically to min_rtt_ms (same draw order), so
  /// the two are interchangeable without perturbing downstream streams.
  [[nodiscard]] PingSample ping_sample(HostId src, HostId dst, int packets,
                                       util::Pcg32& gen) const;

  // -- batched SoA path (DESIGN.md §14) -----------------------------------
  // The streaming tile pipeline synthesises base RTTs one VP row at a time
  // against thousands of destinations. The scalar path would chase Host and
  // Place pointers and re-hash the substream labels for every cell; the
  // batch path gathers the world fields once per host list, hoists the
  // label hashes, caches the per-city-pair draws within a row, and takes
  // its distances from the bit-identical batch kernel — so the outputs
  // equal the scalar path double for double (asserted by the scale suite).

  /// SoA gather of exactly the World/Host fields base_rtt_ms reads.
  struct HostSoA {
    std::vector<HostId> ids;
    std::vector<geo::GeoPoint> location;  ///< true locations (kernel `from` side)
    geo::PointsSoA points;                ///< true locations, precomputed terms
    std::vector<std::uint64_t> city;      ///< parent city of the host's place
    std::vector<double> last_mile_ms;
    std::vector<double> access_penalty_ms;
    std::vector<char> local_peering;      ///< has_local_peering(host.place)
    std::vector<char> responsive;

    [[nodiscard]] std::size_t size() const noexcept { return ids.size(); }
  };
  [[nodiscard]] HostSoA host_soa(std::span<const HostId> hosts) const;

  /// The two draws base_rtt_ms keys on the unordered *city* pair. They are
  /// values, not generator state — each (pair, label) substream is
  /// independent — so caching them per row is exact, and a row over one
  /// metro's targets pays the lognormal/exponential machinery once per
  /// distinct city instead of once per cell.
  struct CityPairDraws {
    double inflation_city = 0.0;  ///< lognormal(inflation_mu, inflation_sigma)
    double overhead_city = 0.0;   ///< exponential(overhead_mean_ms)
  };
  using CityPairCache = std::unordered_map<std::uint64_t, CityPairDraws>;

  /// out[j - begin] = base_rtt_ms(src.ids[i], dst.ids[j]) for j in
  /// [begin, end), bit-identical to the scalar method. `cache` persists
  /// across calls for the same row (or any rows — it is keyed on the
  /// unordered city pair, which is row-independent).
  void base_rtt_ms_batch(const HostSoA& src, std::size_t i, const HostSoA& dst,
                         std::size_t begin, std::size_t end,
                         CityPairCache& cache, double* out) const;

  /// base_rtt_ms(src.ids[i], dst.ids[j]) for the pair's great-circle
  /// distance `d` already in hand (as distance_km_batch computes it): the
  /// batch path's per-pair body, for callers that synthesise a sparse
  /// subset of a row and must not pay a second haversine.
  [[nodiscard]] double base_rtt_ms_at(const HostSoA& src, std::size_t i,
                                      const HostSoA& dst, std::size_t j,
                                      double d, CityPairCache& cache) const;

  // -- speed-of-Internet floor (DESIGN.md §14) ----------------------------
  // A pair's RTT floor is base_rtt_ms's expression tree with the inflation
  // at min_inflation and the overhead at 0, in the same association; the
  // last miles and the (deterministic) tromboning penalty stay. Round-to-
  // nearest + and × are monotone, the inflation is clamped at
  // min_inflation, and overhead and jitter are non-negative (the model's
  // contract), so floor <= base <= every packet's RTT, bit for bit.
  // Bounded selection prunes cells by it, the §4.3 sanitiser pairs.

  /// The pair's RTT floor at great-circle distance `d`.
  [[nodiscard]] double rtt_floor_ms(const HostSoA& src, std::size_t i,
                                    const HostSoA& dst, std::size_t j,
                                    double d) const noexcept {
    return geo::distance_to_min_rtt_ms(d) * config_.min_inflation +
           src.last_mile_ms[i] + dst.last_mile_ms[j] +
           penalty_ms(src, i, dst, j);
  }

  /// The floor inverted, without rounding margins (callers add their own):
  /// the greatest distance at which a pair whose last miles and penalty sum
  /// to at least `last_miles_ms` can still have a floor below `rtt_ms`. 0
  /// when not even a colocated pair can; +inf when min_inflation <= 0,
  /// where the floor does not grow with distance.
  [[nodiscard]] double floor_reach_km(double rtt_ms,
                                      double last_miles_ms) const noexcept;

  /// ping_sample with the pair's deterministic base RTT already in hand:
  /// consumes `gen` identically to ping_sample(src, dst, ...) and returns
  /// the same value when (base_rtt, responsive) match that pair. The tile
  /// generator calls this with batched bases; the scalar ping_sample is a
  /// thin wrapper, so the loss/jitter logic exists exactly once. Its draws
  /// are mirrored by skip_ping_sample.
  [[nodiscard]] PingSample ping_sample_with_base(double base_rtt,
                                                 bool responsive, int packets,
                                                 util::Pcg32& gen) const;

  /// Spends exactly the draws of ping_sample_with_base(base, responsive,
  /// packets, gen) for any base — per packet one loss trial, and one
  /// jitter uniform when the packet is kept — but computes no RTT. For a
  /// caller that has proved a pair's sample cannot change its verdict yet
  /// must leave the later draws in place (the §4.3 sanitiser).
  void skip_ping_sample(bool responsive, int packets, util::Pcg32& gen) const;

  /// The RTT a traceroute from `src` reports for intermediate router `hop`:
  /// base RTT skewed by reverse-path asymmetry plus the router's ICMP
  /// generation delay. Noisier than an end-to-end ping by construction.
  [[nodiscard]] double router_hop_rtt_ms(HostId src, HostId hop,
                                         util::Pcg32& gen) const;

  /// Deterministic path-circuitousness multiplier for the pair (>= 1).
  [[nodiscard]] double pair_inflation(HostId a, HostId b) const;

  [[nodiscard]] const LatencyModelConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const World& world() const noexcept { return *world_; }

 private:
  /// Tromboning penalties, waived for intra-city traffic where the city
  /// has a local exchange.
  [[nodiscard]] static double penalty_ms(const HostSoA& src, std::size_t i,
                                         const HostSoA& dst,
                                         std::size_t j) noexcept {
    if (src.city[i] == dst.city[j] && src.local_peering[i]) return 0.0;
    return src.access_penalty_ms[i] + dst.access_penalty_ms[j];
  }
  [[nodiscard]] util::Pcg32 pair_gen(HostId a, HostId b,
                                     std::string_view label) const;
  /// Generator keyed on the unordered pair of *parent cities* — the
  /// path-level randomness shared by all host pairs of a city pair.
  [[nodiscard]] util::Pcg32 city_pair_gen(HostId a, HostId b,
                                          std::string_view label) const;

  const World* world_;
  LatencyModelConfig config_;
  std::uint64_t seed_;
};

}  // namespace geoloc::sim
