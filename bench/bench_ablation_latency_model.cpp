// Ablation (DESIGN.md §5.1): which latency-model ingredients drive the
// headline CBG result. Rebuilds the scenario with individual realism terms
// switched off and reports how the all-VP error responds:
//   - no access-quality clusters  -> the error tail collapses (everything
//     looks city-level, unlike the paper's 73%)
//   - no path inflation           -> constraints tighten toward geodesics
//   - heavy last mile everywhere  -> accuracy degrades across the board
#include <cstdio>

#include "bench_common.h"
#include "eval/experiments.h"
#include "eval/metrics.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace geoloc;

struct Variant {
  const char* name;
  scenario::ScenarioConfig config;
};

void report(util::TextTable& t, const Variant& v) {
  const scenario::Scenario s = scenario::Scenario::without_web(v.config);
  std::vector<double> errors;
  for (double e : eval::all_vp_errors(s)) {
    if (e >= 0) errors.push_back(e);
  }
  t.row({v.name, util::TextTable::num(util::median(errors), 1),
         util::TextTable::pct(eval::city_level_fraction(errors)),
         util::TextTable::pct(util::fraction_below(errors, 10.0))});
}

}  // namespace

int main() {
  bench::print_header(
      "Ablation: latency-model ingredients",
      "all-VP CBG accuracy with individual realism terms disabled",
      "the access-quality clusters create the paper's 27% beyond-city tail; "
      "inflation and last mile set the floor");

  // The ablations rebuild scenarios, so run them at the small scale unless
  // explicitly asked otherwise: paper-scale x 4 variants is minutes.
  const bool full =
      !bench::small_mode() && util::env::flag("GEOLOC_ABLATION_FULL");
  auto base = full ? scenario::paper_config() : scenario::small_config();
  base.cache_dir = scenario::default_cache_dir();
  if (!full) {
    std::printf("[running at small scale; set GEOLOC_ABLATION_FULL=1 for the "
                "723-target scenario]\n\n");
  }

  std::vector<Variant> variants;
  variants.push_back({"baseline", base});
  {
    auto v = base;
    v.world.poorly_connected_city_prob = {0, 0, 0, 0, 0, 0};
    variants.push_back({"no access-quality clusters", v});
  }
  {
    auto v = base;
    v.latency.inflation_mu = 0.0;
    v.latency.inflation_sigma = 0.01;
    v.latency.short_path_boost_km = 0.0;
    variants.push_back({"no path inflation", v});
  }
  {
    auto v = base;
    v.catalog.probe_last_mile_low_min_ms = 5.0;
    v.catalog.probe_last_mile_low_max_ms = 15.0;
    variants.push_back({"heavy last mile everywhere", v});
  }
  {
    auto v = base;
    v.latency.overhead_mean_ms = 0.0;
    v.latency.overhead_local_mean_ms = 0.0;
    variants.push_back({"no per-hop overhead", v});
  }

  util::TextTable t{"all-VP CBG under latency-model ablations"};
  t.header({"Variant", "median error (km)", "<=40 km", "<=10 km"});
  for (const Variant& v : variants) report(t, v);
  std::printf("%s\n", t.render().c_str());
  return 0;
}
