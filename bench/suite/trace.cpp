#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace geoloc::bench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};

/// One thread's spans plus the stack of its open span ids (for implicit
/// parents). The mutex only orders the owner's appends against drain().
struct Buffer {
  std::mutex mu;
  std::vector<Span> spans;
  std::vector<std::uint32_t> open;
  std::uint32_t thread = 0;
};

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<Buffer>> g_buffers;

Buffer& local_buffer() {
  thread_local Buffer* tls = [] {
    auto b = std::make_unique<Buffer>();
    b->spans.reserve(1 << 14);
    const std::lock_guard<std::mutex> lock(g_buffers_mu);
    b->thread = static_cast<std::uint32_t>(g_buffers.size());
    g_buffers.push_back(std::move(b));
    return g_buffers.back().get();
  }();
  return *tls;
}

}  // namespace

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Scope::Scope(const char* name, std::uint32_t parent) noexcept : name_(name) {
  if (!enabled()) return;
  Buffer& b = local_buffer();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent != 0 ? parent : (b.open.empty() ? 0 : b.open.back());
  b.open.push_back(id_);
  start_ns_ = now_ns();
}

Scope::~Scope() {
  if (id_ == 0) return;
  const std::int64_t end = now_ns();
  Buffer& b = local_buffer();
  b.open.pop_back();
  const std::lock_guard<std::mutex> lock(b.mu);
  b.spans.push_back(Span{name_, start_ns_, end, id_, parent_, b.thread, 0});
}

void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
            std::uint64_t request) noexcept {
  if (!enabled()) return;
  Buffer& b = local_buffer();
  const std::uint32_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(b.mu);
  b.spans.push_back(Span{name, start_ns, end_ns, id, 0, b.thread, request});
}

std::vector<Span> drain() {
  std::vector<Span> all;
  const std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (auto& b : g_buffers) {
    const std::lock_guard<std::mutex> block(b->mu);
    all.insert(all.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  return all;
}

std::map<std::string, double> self_ms_by_name(const std::vector<Span>& spans) {
  // Children of each span, as intervals clipped to the parent.
  std::unordered_map<std::uint32_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = -1;
    for (const auto& [lo, hi] : kids) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    const std::int64_t self = spans[i].end_ns - spans[i].start_ns - covered;
    out[spans[i].name] += static_cast<double>(self) / 1e6;
  }
  return out;
}

bool write_json(const std::string& path, const std::string& workload,
                const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\":\"%s\",\"spans\":[", workload.c_str());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%u,\"parent\":%u,\"thread\":%u,\"request\":%llu}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.id, s.parent, s.thread,
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace geoloc::bench::trace
