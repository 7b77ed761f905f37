#include "eval/experiments.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/million_scale.h"
#include "eval/metrics.h"
#include "geo/geodesy.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace geoloc::eval {

namespace {

/// Per-target CBG error for an arbitrary row set.
double one_target_error(const core::MillionScale& ms,
                        std::span<const std::size_t> rows,
                        std::size_t target_col,
                        const core::CbgConfig& config) {
  const core::CbgResult r = ms.geolocate(rows, target_col, config);
  if (!r.ok) return -1.0;
  return ms.error_km(r.estimate, target_col);
}

std::vector<std::size_t> all_rows(const scenario::Scenario& s) {
  std::vector<std::size_t> rows(s.vps().size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return rows;
}

/// The scenario's lazy matrices are not init-guarded (scenario.h); touch
/// them once from this thread before any parallel_map over target columns.
void warm_matrices(const scenario::Scenario& s) {
  (void)s.target_rtts();
  (void)s.representative_rtts();
}

/// Per-sweep observability: a trace span plus a sweep counter and wall
/// histogram on the registry. Pure bystander — reads the clock, never the
/// sweep's RNG or data, so sweep outputs are identical with obs on or off.
class SweepScope {
 public:
  explicit SweepScope(const char* name)
      : span_(name), start_(std::chrono::steady_clock::now()) {}
  ~SweepScope() {
    static auto& reg = obs::Registry::instance();
    static obs::Counter& sweeps = reg.counter("eval.sweeps");
    static obs::Histogram& wall = reg.histogram("eval.sweep_wall_ms");
    sweeps.add();
    wall.observe(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start_)
                     .count());
  }

 private:
  obs::TraceSpan span_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

int trials_from_env(int fallback) {
  return util::env::int_or("GEOLOC_TRIALS", fallback);
}

const std::vector<double>& all_vp_errors(const scenario::Scenario& s,
                                         const core::CbgConfig& config) {
  static std::mutex mu;
  static std::unordered_map<std::uint64_t, std::vector<double>> cache;
  // Fold the CBG speed into the key: Figure 5a uses 4/9 c, the rest 2/3 c.
  std::uint64_t key = s.config().fingerprint();
  key ^= static_cast<std::uint64_t>(config.soi_km_per_ms * 1024.0);

  std::scoped_lock lock(mu);
  if (const auto it = cache.find(key); it != cache.end()) return it->second;

  warm_matrices(s);
  const core::MillionScale ms(s);
  const auto rows = all_rows(s);
  // One CBG solve per target column, every column independent: the sweep
  // maps over columns on the parallel engine and lands in column order.
  std::vector<double> errors = util::parallel_map<double>(
      s.targets().size(), [&](std::size_t col) {
        return one_target_error(ms, rows, col, config);
      });
  return cache.emplace(key, std::move(errors)).first->second;
}

std::vector<SubsetTrials> run_subset_size_sweep(
    const scenario::Scenario& s, std::span<const int> subset_sizes, int trials,
    const core::CbgConfig& config) {
  const SweepScope scope("eval.subset_size_sweep");
  warm_matrices(s);
  const core::MillionScale ms(s);
  const std::size_t n = s.vps().size();
  auto gen = s.world().rng().fork("subset-sweep").gen();

  std::vector<SubsetTrials> out;
  for (int size : subset_sizes) {
    SubsetTrials st;
    st.subset_size = size;
    const auto k = std::min<std::size_t>(static_cast<std::size_t>(size), n);
    std::vector<std::size_t> rows(n);
    for (std::size_t i = 0; i < n; ++i) rows[i] = i;

    for (int t = 0; t < trials; ++t) {
      // Partial Fisher-Yates: the first k entries become the subset. The
      // draws stay on this thread's shared generator (their order is part
      // of the figure's numbers); only the per-target CBG solves below run
      // in parallel.
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t j = i + gen.index(n - i);
        std::swap(rows[i], rows[j]);
      }
      const std::span<const std::size_t> subset(rows.data(), k);
      const std::vector<double> per_col = util::parallel_map<double>(
          s.targets().size(), [&](std::size_t col) {
            return one_target_error(ms, subset, col, config);
          });
      std::vector<double> errors;
      errors.reserve(per_col.size());
      for (const double e : per_col) {
        if (e >= 0.0) errors.push_back(e);
      }
      st.trial_median_errors_km.push_back(util::median(errors));
    }
    out.push_back(std::move(st));
  }
  return out;
}

std::vector<ExclusionErrors> run_remove_close_vps(
    const scenario::Scenario& s, std::span<const double> radii_km,
    const core::CbgConfig& config) {
  const SweepScope scope("eval.remove_close_vps");
  warm_matrices(s);
  const core::MillionScale ms(s);
  const auto& world = s.world();
  const std::size_t n = s.vps().size();

  std::vector<ExclusionErrors> out;
  for (double radius : radii_km) {
    ExclusionErrors ee;
    ee.exclusion_km = radius;
    if (radius <= 0.0) {
      ee.errors_km = all_vp_errors(s, config);
      out.push_back(std::move(ee));
      continue;
    }
    // Each column filters its own row set locally, so columns are
    // independent; fold in column order to keep the serial output.
    const std::vector<double> per_col = util::parallel_map<double>(
        s.targets().size(), [&](std::size_t col) {
          const geo::GeoPoint truth =
              world.host(s.targets()[col]).true_location;
          std::vector<std::size_t> rows;
          rows.reserve(n);
          for (std::size_t r = 0; r < n; ++r) {
            if (geo::distance_km(world.host(s.vps()[r]).true_location,
                                 truth) > radius) {
              rows.push_back(r);
            }
          }
          return one_target_error(ms, rows, col, config);
        });
    for (const double e : per_col) {
      if (e >= 0.0) ee.errors_km.push_back(e);
    }
    out.push_back(std::move(ee));
  }
  return out;
}

std::vector<RepSelectionErrors> run_rep_selection(
    const scenario::Scenario& s, std::span<const int> ks,
    const core::CbgConfig& config) {
  const SweepScope scope("eval.rep_selection");
  warm_matrices(s);
  const core::MillionScale ms(s);
  std::vector<RepSelectionErrors> out;
  for (int k : ks) {
    RepSelectionErrors re;
    re.k = k;
    const std::vector<double> per_col = util::parallel_map<double>(
        s.targets().size(), [&](std::size_t col) {
          const auto rows = k == 0
                                ? all_rows(s)
                                : ms.select_vps_by_representatives(col, k);
          return one_target_error(ms, rows, col, config);
        });
    for (const double e : per_col) {
      if (e >= 0.0) re.errors_km.push_back(e);
    }
    out.push_back(std::move(re));
  }
  return out;
}

std::vector<TwoStepSweep> run_two_step_sweep(
    const scenario::Scenario& s, std::span<const int> first_step_sizes,
    const core::CbgConfig& config) {
  const SweepScope scope("eval.two_step_sweep");
  warm_matrices(s);
  const core::MillionScale ms(s);
  // The greedy coverage sequence nests: the first N picks of the longest
  // run ARE the greedy subset of size N, so compute it once.
  int max_size = 0;
  for (int sz : first_step_sizes) max_size = std::max(max_size, sz);
  const auto greedy = core::greedy_coverage_rows(
      s, static_cast<std::size_t>(max_size));

  std::vector<TwoStepSweep> out;
  for (int sz : first_step_sizes) {
    TwoStepSweep sweep;
    sweep.first_step_size = sz;
    std::vector<std::size_t> first(
        greedy.begin(),
        greedy.begin() + std::min<std::ptrdiff_t>(sz, std::ssize(greedy)));
    core::TwoStepConfig tsc;
    tsc.cbg = config;
    const core::TwoStepSelector selector(s, std::move(first), tsc);

    // TwoStepSelector::run is a const, deterministic function of the
    // column; map the outcomes in parallel and fold the accounting in
    // column order so sums and error order match the serial sweep.
    struct ColOutcome {
      std::uint64_t pings = 0;
      bool ok = false;
      double error_km = 0.0;
    };
    const std::vector<ColOutcome> per_col = util::parallel_map<ColOutcome>(
        s.targets().size(), [&](std::size_t col) {
          const core::TwoStepOutcome o = selector.run(col);
          ColOutcome co;
          co.pings = o.step1_pings + o.step2_pings + o.final_pings;
          co.ok = o.ok;
          if (o.ok) co.error_km = ms.error_km(o.estimate, col);
          return co;
        });
    for (const ColOutcome& co : per_col) {
      sweep.total_pings += co.pings;
      if (!co.ok) {
        ++sweep.failed_targets;
        continue;
      }
      sweep.errors_km.push_back(co.error_km);
    }
    out.push_back(std::move(sweep));
  }
  return out;
}

std::vector<FailureSweepPoint> run_failure_sensitivity(
    const scenario::Scenario& s, std::span<const WeatherSpec> weathers,
    std::size_t max_vps, const core::CbgConfig& config) {
  const SweepScope scope("eval.failure_sensitivity");
  const auto& world = s.world();
  const auto& all_vps = s.vps();
  const std::size_t vp_count = (max_vps == 0 || max_vps >= all_vps.size())
                                   ? all_vps.size()
                                   : max_vps;
  const std::span<const sim::HostId> campaign_vps(all_vps.data(), vp_count);
  const std::span<const sim::HostId> spares(all_vps.data() + vp_count,
                                            all_vps.size() - vp_count);

  std::vector<FailureSweepPoint> out;
  out.reserve(weathers.size());
  for (const WeatherSpec& weather : weathers) {
    FailureSweepPoint point;
    point.label = weather.label;

    // Fresh platform per weather: usage counters and the measurement RNG
    // restart, so each condition sees the same campaign.
    atlas::Platform platform(world, s.latency());
    const atlas::FaultModel faults(world, weather.config);
    platform.set_fault_model(&faults);
    atlas::CampaignExecutor executor(platform);
    point.report = executor.execute_full_mesh(
        campaign_vps, s.targets(), s.config().ping_packets, spares);

    // Geolocate every target from the measurements that survived.
    std::vector<std::vector<core::VpObservation>> per_target(
        s.targets().size());
    for (const atlas::PingMeasurement& m : point.report.results) {
      if (m.target == m.vp) continue;  // anchors are both targets and VPs
      per_target[s.target_index(m.target)].push_back(core::VpObservation{
          world.host(m.vp).reported_location, *m.min_rtt_ms});
    }
    // One CBG verdict per target, each a pure function of its observation
    // list; fold verdict counters and the error list in column order.
    struct ColVerdict {
      core::CbgVerdict verdict = core::CbgVerdict::Unlocatable;
      std::optional<double> error_km;
    };
    const std::vector<ColVerdict> per_col = util::parallel_map<ColVerdict>(
        s.targets().size(), [&](std::size_t col) {
          const core::CbgResult r =
              core::cbg_geolocate(per_target[col], config);
          ColVerdict cv;
          cv.verdict = r.verdict;
          if (r.ok) {
            cv.error_km = geo::distance_km(
                r.estimate, world.host(s.targets()[col]).true_location);
          }
          return cv;
        });
    std::vector<double> errors;
    errors.reserve(per_col.size());
    for (const ColVerdict& cv : per_col) {
      switch (cv.verdict) {
        case core::CbgVerdict::Ok: ++point.located; break;
        case core::CbgVerdict::Degraded: ++point.degraded; break;
        case core::CbgVerdict::Unlocatable: ++point.unlocatable; break;
      }
      if (cv.error_km) errors.push_back(*cv.error_km);
    }
    point.median_error_km = errors.empty() ? -1.0 : util::median(errors);
    point.report.results.clear();
    point.report.results.shrink_to_fit();
    out.push_back(std::move(point));
  }
  return out;
}

std::vector<ContinentErrors> run_per_continent(const scenario::Scenario& s,
                                               const core::CbgConfig& config) {
  const SweepScope scope("eval.per_continent");
  const auto& errors = all_vp_errors(s, config);
  const auto& world = s.world();

  std::vector<ContinentErrors> out;
  for (sim::Continent c : sim::all_continents()) {
    out.push_back(ContinentErrors{c, {}});
  }
  for (std::size_t col = 0; col < s.targets().size(); ++col) {
    if (errors[col] < 0.0) continue;
    const sim::Continent c =
        world.place(world.host(s.targets()[col]).place).continent;
    for (auto& ce : out) {
      if (ce.continent == c) {
        ce.errors_km.push_back(errors[col]);
        break;
      }
    }
  }
  return out;
}

}  // namespace geoloc::eval
