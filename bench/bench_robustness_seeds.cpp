// Robustness check: the headline metrics across independently seeded
// worlds. The reproduction's claims are about *shapes*; this bench shows
// they are not artefacts of one lucky seed — the orderings (street ~ CBG,
// two-step ~ all-VP at a fraction of the cost, oracle far ahead) hold for
// every seed.
#include <cstdio>

#include "bench_common.h"
#include "eval/experiments.h"
#include "eval/metrics.h"
#include "core/million_scale.h"
#include "eval/street_campaign.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace geoloc;
  bench::print_header(
      "Robustness: seed sweep",
      "headline metrics across independently generated worlds",
      "orderings and magnitudes persist across seeds");

  // Independent worlds are expensive; sweep at small scale by default.
  const bool full = util::env::flag("GEOLOC_ROBUSTNESS_FULL");
  if (!full) {
    std::printf("[running at small scale; set GEOLOC_ROBUSTNESS_FULL=1 for "
                "723-target worlds]\n\n");
  }

  util::TextTable t{"headline metrics per seed"};
  t.header({"Seed", "CBG median (km)", "CBG city-level", "street median",
            "oracle <1km", "two-step cost"});
  for (std::uint64_t seed : {11ULL, 22ULL, 33ULL, 44ULL, 55ULL}) {
    auto cfg = full ? scenario::paper_config(seed)
                    : scenario::small_config(seed);
    cfg.cache_dir = scenario::default_cache_dir();
    const scenario::Scenario s(cfg);

    std::vector<double> cbg;
    for (double e : eval::all_vp_errors(s)) {
      if (e >= 0) cbg.push_back(e);
    }

    const auto& camp = eval::street_campaign(s);
    std::vector<double> street, oracle;
    for (const auto& r : camp.records) {
      street.push_back(r.street_error_km);
      oracle.push_back(r.oracle_error_km >= 0 ? r.oracle_error_km
                                              : r.cbg_error_km);
    }

    const int sizes[] = {full ? 500 : 50};
    const auto sweep = eval::run_two_step_sweep(s, sizes);
    const double cost_share =
        static_cast<double>(sweep[0].total_pings) /
        static_cast<double>(core::original_algorithm_pings(s));

    t.row({std::to_string(seed), util::TextTable::num(util::median(cbg), 1),
           util::TextTable::pct(eval::city_level_fraction(cbg)),
           util::TextTable::num(util::median(street), 1),
           util::TextTable::pct(eval::street_level_fraction(oracle)),
           util::TextTable::pct(cost_share)});
  }
  std::printf("%s\n", t.render().c_str());
  return 0;
}
