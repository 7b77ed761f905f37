// Spans for the traced run. Each span wraps one call into the library,
// made from the benchmark's own code: name, start and end, the span that
// caused it, the thread it ran on and, for serve requests, the request id.
// Spans go to per-thread buffers and are merged when a workload ends.
//
// A layer's self time is its span's duration minus the part of it that
// child spans cover (children may run on other threads, as inside
// util::parallel_map). Recording is off unless set_enabled(true); a
// disabled Scope costs one relaxed atomic load.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace geoloc::bench::trace {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = a root span
  std::uint32_t thread = 0;
  std::uint64_t request = 0;  ///< serve request id + 1; 0 = none
};

void set_enabled(bool on) noexcept;

/// Monotonic nanoseconds (steady clock).
[[nodiscard]] std::int64_t now_ns() noexcept;

/// A span over the lifetime of the object. `parent` 0 means the innermost
/// open span on this thread; pass an explicit id to parent work running on
/// a pool thread to the span that issued it.
class Scope {
 public:
  explicit Scope(const char* name, std::uint32_t parent = 0) noexcept;
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::int64_t start_ns_ = 0;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
};

/// Record a finished span with explicit times (client-side request spans).
void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t request) noexcept;

/// Take every thread's recorded spans, leaving the buffers empty. Call
/// only while no traced work is running.
[[nodiscard]] std::vector<Span> drain();

/// Per span name: total self time (ms).
[[nodiscard]] std::map<std::string, double> self_ms_by_name(
    const std::vector<Span>& spans);

/// Write `spans` as one JSON object {"workload": ..., "spans": [...]}.
bool write_json(const std::string& path, const std::string& workload,
                const std::vector<Span>& spans);

}  // namespace geoloc::bench::trace
