// Tests of the process allocation counter: striping it per thread must keep
// every count exact, single- and multi-threaded.
#include "util/procstat.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <new>
#include <thread>
#include <vector>

namespace geoloc::util::procstat {
namespace {

// Explicit operator calls: unlike new-expressions, the compiler may not
// elide them, so every call below reaches the replaced functions.
TEST(ProcstatAllocCount, CountsEveryOperatorNewVariantOnce) {
  constexpr std::align_val_t kAlign{64};
  const std::uint64_t before = alloc_count();
  ::operator delete(::operator new(4));
  ::operator delete[](::operator new[](12));
  ::operator delete(::operator new(64, kAlign), kAlign);
  ::operator delete[](::operator new[](128, kAlign), kAlign);
  ::operator delete(::operator new(4, std::nothrow));
  ::operator delete[](::operator new[](12, std::nothrow));
  ::operator delete(::operator new(64, kAlign, std::nothrow), kAlign);
  ::operator delete[](::operator new[](128, kAlign, std::nothrow), kAlign);
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 8u);
}

TEST(ProcstatAllocCount, FourThreadsCountExactly) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kAllocs = 20'000;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (std::uint64_t k = 0; k < kAllocs; ++k) {
        ::operator delete(::operator new(sizeof(int)));
      }
      done.fetch_add(1);
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  // Read only while every thread is parked between its start-up and its
  // allocation loop, so the delta is exactly the loops' allocations.
  const std::uint64_t before = alloc_count();
  go.store(true);
  while (done.load() < kThreads) std::this_thread::yield();
  const std::uint64_t after = alloc_count();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(after - before, kThreads * kAllocs);
}

}  // namespace
}  // namespace geoloc::util::procstat
