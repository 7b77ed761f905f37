#include "util/procstat.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

// The allocation counter, striped across cache lines by thread (the
// obs::Counter layout) so concurrent allocators do not all bump one line;
// alloc_count() sums the cells, so the total stays exact. Constant-
// initialized before any dynamic initialization runs, so allocations made
// during static construction are counted too.
constexpr std::uint32_t kStripes = 16;
struct alignas(64) Cell {
  std::atomic<std::uint64_t> v{0};
};
Cell g_alloc_cells[kStripes];
std::atomic<std::uint32_t> g_next_stripe{0};
// Plain constant-initialized TLS: no init guard to run inside operator new.
thread_local std::uint32_t t_stripe = kStripes;

void count_alloc() noexcept {
  if (t_stripe == kStripes) {
    t_stripe = g_next_stripe.fetch_add(1, std::memory_order_relaxed) % kStripes;
  }
  g_alloc_cells[t_stripe].v.fetch_add(1, std::memory_order_relaxed);
}

std::size_t status_field_kb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  const std::size_t key_len = std::strlen(key);
  char line[256];
  std::size_t out = 0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      // "VmHWM:    123456 kB"
      out = static_cast<std::size_t>(
          std::strtoull(line + key_len + 1, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return out;
}

void* counted_alloc(std::size_t n) {
  count_alloc();
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc{};
    h();
  }
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  count_alloc();
  if (n == 0) n = align;
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (n + align - 1) / align * align;
  for (;;) {
    if (void* p = std::aligned_alloc(align, rounded)) return p;
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc{};
    h();
  }
}

}  // namespace

namespace geoloc::util::procstat {

std::size_t peak_rss_kb() { return status_field_kb("VmHWM"); }
std::size_t rss_kb() { return status_field_kb("VmRSS"); }
std::uint64_t alloc_count() {
  std::uint64_t total = 0;
  for (const Cell& c : g_alloc_cells) {
    total += c.v.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace geoloc::util::procstat

// -- replaced global allocation functions ------------------------------------
// malloc/free-backed so the sanitizer presets still intercept the underlying
// allocations; every variant of operator new funnels through the counted
// helpers above. Sized and aligned deletes forward to free, matching the
// allocation side.

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc_aligned(n, static_cast<std::size_t>(al));
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  count_alloc();
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  count_alloc();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t want = n == 0 ? a : n;
  return std::aligned_alloc(a, (want + a - 1) / a * a);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  count_alloc();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t want = n == 0 ? a : n;
  return std::aligned_alloc(a, (want + a - 1) / a * a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
