// FlatLpm, the one longest-prefix-match table. The key property: for every
// address, it answers exactly what a linear scan over the prefixes answers
// — checked both on curated nest/overlap cases and on randomized prefix
// sets.
#include "net/flat_lpm.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "oracles/lpm_scan_reference.h"
#include "util/rng.h"

namespace geoloc::net {
namespace {

using util::Pcg32;

IPv4Address addr(const char* text) { return *IPv4Address::parse(text); }
Prefix pfx(const char* text) { return *Prefix::parse(text); }

TEST(FlatLpm, EmptyTableMissesEverything) {
  const auto lpm = FlatLpm<int>::build({});
  EXPECT_TRUE(lpm.empty());
  EXPECT_EQ(lpm.lookup(addr("1.2.3.4")), nullptr);
  EXPECT_EQ(lpm.lookup(addr("255.255.255.255")), nullptr);
}

TEST(FlatLpm, NestedPrefixesPickTheLongest) {
  const auto lpm = FlatLpm<std::string>::build({
      {pfx("10.0.0.0/8"), "eight"},
      {pfx("10.1.0.0/16"), "sixteen"},
      {pfx("10.1.2.0/24"), "twentyfour"},
  });
  EXPECT_EQ(lpm.lookup(addr("10.1.2.3"))->value, "twentyfour");
  EXPECT_EQ(lpm.lookup(addr("10.1.9.9"))->value, "sixteen");
  EXPECT_EQ(lpm.lookup(addr("10.200.0.1"))->value, "eight");
  EXPECT_EQ(lpm.lookup(addr("11.0.0.1")), nullptr);
  // The covering prefix resumes right after the nested one ends.
  EXPECT_EQ(lpm.lookup(addr("10.1.3.0"))->value, "sixteen");
  EXPECT_EQ(lpm.lookup(addr("10.2.0.0"))->value, "eight");
}

TEST(FlatLpm, MatchReportsTheWinningPrefix) {
  const auto lpm = FlatLpm<int>::build({
      {pfx("192.168.0.0/16"), 1},
      {pfx("192.168.7.0/24"), 2},
  });
  const auto* hit = lpm.lookup(addr("192.168.7.42"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->prefix, pfx("192.168.7.0/24"));
  EXPECT_EQ(hit->value, 2);
}

TEST(FlatLpm, DefaultRouteCatchesAll) {
  const auto lpm = FlatLpm<int>::build({
      {pfx("0.0.0.0/0"), 0},
      {pfx("128.0.0.0/1"), 1},
  });
  EXPECT_EQ(lpm.lookup(addr("1.1.1.1"))->value, 0);
  EXPECT_EQ(lpm.lookup(addr("200.1.1.1"))->value, 1);
  EXPECT_EQ(lpm.lookup(addr("255.255.255.255"))->value, 1);
}

TEST(FlatLpm, AddressSpaceExtremes) {
  const auto lpm = FlatLpm<int>::build({
      {pfx("0.0.0.0/8"), 1},
      {pfx("255.255.255.255/32"), 2},
  });
  EXPECT_EQ(lpm.lookup(addr("0.0.0.1"))->value, 1);
  EXPECT_EQ(lpm.lookup(addr("255.255.255.255"))->value, 2);
  EXPECT_EQ(lpm.lookup(addr("255.255.255.254")), nullptr);
}

TEST(FlatLpm, DuplicatePrefixLastWins) {
  const auto lpm = FlatLpm<int>::build({
      {pfx("10.0.0.0/24"), 1},
      {pfx("10.0.0.0/24"), 2},
  });
  EXPECT_EQ(lpm.size(), 1u);
  EXPECT_EQ(lpm.lookup(addr("10.0.0.5"))->value, 2);
}

TEST(FlatLpm, BatchMatchesSingleLookups) {
  const auto lpm = FlatLpm<int>::build({
      {pfx("10.0.0.0/8"), 1},
      {pfx("10.1.0.0/16"), 2},
      {pfx("172.16.0.0/12"), 3},
  });
  const std::vector<IPv4Address> addrs = {
      addr("10.0.0.1"), addr("10.1.2.3"), addr("172.16.5.5"),
      addr("8.8.8.8"),  addr("10.1.0.0"),
  };
  std::vector<const FlatLpm<int>::Slot*> out(addrs.size());
  lpm.lookup_batch(addrs, out);
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    EXPECT_EQ(out[i], lpm.lookup(addrs[i])) << "index " << i;
  }
}

TEST(FlatLpm, AgreesWithScanReferenceOnRandomSets) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 99ULL}) {
    Pcg32 gen(seed);
    std::vector<std::pair<Prefix, int>> entries;
    oracle::LpmScan<int> reference;
    const std::size_t n = 50 + gen.bounded(400);
    for (std::size_t i = 0; i < n; ++i) {
      const int len = static_cast<int>(gen.bounded(33));  // 0..32 inclusive
      const IPv4Address network{gen() & Prefix::mask(len)};
      const Prefix p{network, len};
      const int value = static_cast<int>(i);
      entries.emplace_back(p, value);
      reference.insert(p, value);
    }
    const auto lpm = FlatLpm<int>::build(entries);
    ASSERT_EQ(lpm.size(), reference.size()) << "seed " << seed;

    for (int probe = 0; probe < 20'000; ++probe) {
      // Half uniform addresses, half near prefix boundaries where the
      // interval sweep is most likely to be wrong.
      IPv4Address a{gen()};
      if (probe % 2 == 1) {
        const auto& p = entries[gen.bounded(
            static_cast<std::uint32_t>(entries.size()))];
        const std::uint64_t size = 1ULL << (32 - p.first.length());
        const std::uint64_t base = p.first.network().value();
        const std::uint64_t edge =
            gen.chance(0.5) ? base : base + size - 1 + gen.bounded(3);
        a = IPv4Address{static_cast<std::uint32_t>(
            std::min<std::uint64_t>(edge, 0xFFFFFFFFULL))};
      }
      const auto want = reference.lookup(a);
      const auto* got = lpm.lookup(a);
      if (!want.has_value()) {
        EXPECT_EQ(got, nullptr) << "seed " << seed << " addr " << a.value();
      } else {
        ASSERT_NE(got, nullptr) << "seed " << seed << " addr " << a.value();
        EXPECT_EQ(got->prefix, want->first)
            << "seed " << seed << " addr " << a.value();
        EXPECT_EQ(got->value, want->second);
      }
    }
  }
}

TEST(FlatLpm, IntervalCountStaysLinear) {
  Pcg32 gen(7);
  std::vector<std::pair<Prefix, int>> entries;
  for (int i = 0; i < 500; ++i) {
    const int len = static_cast<int>(8 + gen.bounded(25));
    entries.emplace_back(
        Prefix{IPv4Address{gen() & Prefix::mask(len)}, len}, i);
  }
  const auto lpm = FlatLpm<int>::build(entries);
  // The sweep emits at most 2n+1 disjoint intervals.
  EXPECT_LE(lpm.interval_count(), 2 * lpm.size() + 1);
}

}  // namespace
}  // namespace geoloc::net
