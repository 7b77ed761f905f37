// geoloc_bench: one benchmark for the dataset pipeline, from measurement
// campaign to lookup. See README.md for the workloads, the metrics and how
// to run, trace and compare.
//
//   geoloc_bench --workload <name|all> --seed N [--seconds S] [--quick]
//                [--trace spans.json] [--out results.jsonl]
//                [--workdir DIR]
//   geoloc_bench --write-expected expected.json
//
// Prints one JSON record per workload as the last lines of stdout (and
// appends them to --out); exits 1 when any output check fails.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "suite.h"
#include "trace.h"
#include "util/parallel.h"
#include "util/procstat.h"
#include "util/stats.h"

extern char** environ;

namespace geoloc::bench {

namespace {

constexpr const char* kWorkloads[] = {"campaign_targets", "campaign_wide",
                                      "refresh", "serve_lookup",
                                      "serve_batch_swap"};

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string host_record() {
  std::ostringstream h;
  h << "{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"threads\":" << util::thread_count()
    << ",\"build_type\":" << json_string(GEOLOC_BENCH_BUILD_TYPE)
    << ",\"compiler\":" << json_string(GEOLOC_BENCH_COMPILER)
    << ",\"git_describe\":" << json_string(GEOLOC_BENCH_GIT_DESCRIBE)
    << ",\"cpu_model\":" << json_string(cpu_model()) << "}";
  return h.str();
}

std::string metrics_object(const std::map<std::string, double, std::less<>>& values,
                           std::span<const MetricSpec> catalogue) {
  std::string out = "{";
  for (const MetricSpec& m : catalogue) {
    const auto it = values.find(m.name);
    const double v = it == values.end() ? 0.0 : it->second;
    if (out.size() > 1) out += ",";
    out += json_string(m.name) + ":{\"value\":" + json_number(v) +
           ",\"unit\":" + json_string(m.unit) + "}";
  }
  return out + "}";
}

std::string record_line(const Options& o, const Result& r) {
  std::ostringstream j;
  j << "{\"workload\":" << json_string(r.workload) << ",\"seed\":" << o.seed
    << ",\"quick\":" << (o.quick ? "true" : "false")
    << ",\"traced\":" << (o.trace ? "true" : "false")
    << ",\"seconds\":" << json_number(o.seconds) << ",\"host\":" << host_record()
    << ",\"correct\":" << (r.correct() ? "true" : "false")
    << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
    << ",\"checks_failed\":[";
  for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
    j << (i ? "," : "") << json_string(r.check_failures[i]);
  }
  j << "],\"end_to_end\":" << metrics_object(r.end_to_end, kEndToEnd)
    << ",\"per_layer\":"
    << (o.trace ? metrics_object(r.per_layer, kPerLayer) : std::string("{}"))
    << ",\"digests\":{";
  for (std::size_t i = 0; i < r.digests.size(); ++i) {
    j << (i ? "," : "") << json_string(r.digests[i].first) << ":"
      << json_string(r.digests[i].second);
  }
  j << "},\"claim\":null}";
  return j.str();
}

/// The strings of the JSON array stored under `key` in a flat JSON object.
std::vector<std::string> json_string_array(const std::string& text,
                                           const std::string& key) {
  std::vector<std::string> out;
  const auto at = text.find("\"" + key + "\"");
  if (at == std::string::npos) return out;
  const auto open = text.find('[', at);
  const auto close = text.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return out;
  for (auto q = text.find('"', open); q < close; q = text.find('"', q + 1)) {
    const auto end = text.find('"', q + 1);
    out.push_back(text.substr(q + 1, end - q - 1));
    q = end;
  }
  return out;
}

Result run_workload(const Options& o, const std::string& workload) {
  Result r;
  r.workload = workload;
  if (workload == "campaign_targets") run_campaign(o, false, r);
  if (workload == "campaign_wide") run_campaign(o, true, r);
  if (workload == "refresh") run_refresh(o, r);
  if (workload == "serve_lookup") run_serve(o, false, r);
  if (workload == "serve_batch_swap") run_serve(o, true, r);
  r.end_to_end["peak_rss_mb"] =
      static_cast<double>(util::procstat::peak_rss_kb()) / 1024.0;
  return r;
}

/// Regenerate expected.json: seed 1, one round per campaign size, the
/// pinned number of refresh epochs.
int write_expected(Options o, const std::string& path) {
  o.seed = 1;
  o.pin = true;
  o.trace = false;
  o.setups = 1;
  o.expected_path.clear();
  std::ostringstream j;
  j << "{\n  \"seed\": 1";
  for (const bool quick : {false, true}) {
    o.quick = quick;
    for (const char* w : {"campaign_targets", "campaign_wide", "refresh"}) {
      const Result r = run_workload(o, w);
      if (!r.correct()) {
        std::fprintf(stderr, "%s failed its checks; not writing %s\n", w,
                     path.c_str());
        return 1;
      }
      j << ",\n  " << json_string(std::string(w) + (quick ? "/quick" : "/full"))
        << ": [";
      std::stringstream digests(r.digests.front().second);
      std::string d;
      for (bool first = true; std::getline(digests, d, ','); first = false) {
        j << (first ? "" : ", ") << json_string(d);
      }
      j << "]";
    }
  }
  j << "\n}\n";
  std::ofstream(path) << j.str();
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "geoloc_bench: %s\n"
               "usage: geoloc_bench --workload <name|all> [--seed N] "
               "[--seconds S] [--quick] [--trace spans.json] "
               "[--out results.jsonl] [--workdir DIR]\n"
               "       geoloc_bench --write-expected FILE\n",
               why);
  return 2;
}

}  // namespace

double median_of(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : util::median(xs);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::vector<std::string> expected_digests(const Options& o,
                                          std::string_view workload) {
  if (o.seed != 1 || o.expected_path.empty()) return {};
  std::ifstream in(o.expected_path);
  std::stringstream text;
  text << in.rdbuf();
  return json_string_array(text.str(), std::string(workload) +
                                           (o.quick ? "/quick" : "/full"));
}

void fold_trace(const Options& o, Result& r, std::string_view root,
                std::uint64_t rounds) {
  if (!o.trace) return;
  const std::vector<trace::Span> spans = trace::drain();
  if (!o.trace_path.empty() &&
      !trace::write_json(o.trace_path, r.workload, spans)) {
    r.check(false, "cannot write spans to " + o.trace_path);
  }
  r.per_layer["trace.rounds"] = static_cast<double>(rounds);
  std::set<std::string_view> known;
  for (const MetricSpec& m : kPerLayer) known.insert(m.name);
  const auto self_ms = trace::self_ms_by_name(spans);
  std::vector<std::pair<std::string, double>> round_layers;
  for (const auto& [name, ms] : self_ms) {
    const std::string metric = name + "_ms";
    if (!known.contains(metric)) continue;
    const bool setup_layer =
        name == "scenario.materialise" || name == "publish.compile";
    const double per = static_cast<double>(setup_layer ? r.setups : rounds);
    if (per <= 0) continue;
    r.per_layer[metric] = ms / per;
    if (!setup_layer) round_layers.emplace_back(metric, ms / per);
  }
  double cycle = 0.0;
  for (const char* m : {"publish.build_ms", "publish.write_ms",
                        "publish.load_ms", "publish.decode_ms", "serve.swap_ms"}) {
    cycle += r.per_layer[m];
  }
  r.per_layer["publish.cycle_ms"] = cycle;
  double root_ms = 0.0;
  for (const trace::Span& s : spans) {
    if (s.name == root) root_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  const auto it = self_ms.find(std::string(root));
  if (rounds == 0 || it == self_ms.end() || root_ms <= 0.0) return;
  const double unattributed = it->second / static_cast<double>(rounds);
  r.per_layer["unattributed_ms"] = unattributed;
  r.per_layer["trace.coverage"] = 1.0 - it->second / root_ms;
  round_layers.emplace_back("unattributed_ms", unattributed);
  double sum = 0.0;
  for (const auto& [m, v] : round_layers) sum += v;
  std::printf("%s: self time per round, summed over threads, and its share\n",
              r.workload.c_str());
  for (const auto& [m, v] : round_layers) {
    std::printf("  %-26s %12.3f ms %6.1f%%\n", m.c_str(), v, 100.0 * v / sum);
  }
}

}  // namespace geoloc::bench

int main(int argc, char** argv) {
  using namespace geoloc;
  using namespace geoloc::bench;
  // Every tunable is passed explicitly; a stray GEOLOC_* variable would
  // silently change what is measured.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GEOLOC_", 7) == 0) {
      std::fprintf(stderr, "geoloc_bench: refusing to run with %s set\n", *e);
      return 2;
    }
  }

  Options o;
  std::string workload, out_path, write_path;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
      seconds_given = true;
    } else if (a == "--quick") {
      o.quick = true;
    } else if (a == "--trace") {
      o.trace = true;
      o.trace_path = value();
    } else if (a == "--out") {
      out_path = value();
    } else if (a == "--workdir") {
      o.workdir = value();
    } else if (a == "--write-expected") {
      write_path = value();
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!seconds_given && o.quick) o.seconds = 1.0;
  if (o.quick) o.setups = 1;
  if (o.seconds <= 0.0) return usage("--seconds must be positive");

  // Campaign and refresh work runs on two pool threads; serving uses two
  // server workers. Nothing here sizes itself from the host.
  util::set_thread_count(2);

  if (!write_path.empty()) return write_expected(o, write_path);

  std::vector<std::string> selected;
  for (const char* w : kWorkloads) {
    if (workload == "all" || workload == w) selected.emplace_back(w);
  }
  if (selected.empty()) return usage("--workload must name a workload or all");

  bool all_correct = true;
  for (const std::string& w : selected) {
    Options wo = o;
    if (wo.trace && selected.size() > 1) {
      const auto dot = wo.trace_path.rfind('.');
      wo.trace_path = dot == std::string::npos
                          ? wo.trace_path + "." + w
                          : wo.trace_path.substr(0, dot) + "." + w +
                                wo.trace_path.substr(dot);
    }
    const Result r = run_workload(wo, w);
    for (const std::string& f : r.check_failures) {
      std::fprintf(stderr, "%s: check failed: %s\n", w.c_str(), f.c_str());
    }
    all_correct = all_correct && r.correct();
    const std::string line = record_line(wo, r);
    if (!out_path.empty()) {
      std::ofstream(out_path, std::ios::app) << line << "\n";
    }
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }
  return all_correct ? 0 : 1;
}
