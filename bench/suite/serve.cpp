// serve_lookup and serve_batch_swap: an in-process serve::Server over a
// published snapshot of /24s plus ~2 % covering /16-/20s, driven by an
// open-loop load generator on 2 connections.
//
// serve_lookup sends 300 k single LOOKUPs/s, addresses 90 % inside
// published prefixes (uniform over prefixes) and 10 % outside: independent
// users, so the loop is open and per-frame wire, epoll and syscall cost
// dominates. serve_batch_swap sends 2 000 BATCH frames/s of 256 addresses,
// Zipf(1.1) over prefixes, while a publisher thread builds, writes, loads
// and swaps in a new version every 2 s with 5 % of entries moved: LPM,
// answer encoding and the stale-queue mutex dominate per address, and the
// snapshot path runs under load.
//
// Every reply is checked against an answer derived from the generator's own
// table (never from the server), and dataset_version may never decrease on
// a connection. Each request is timed from its due time; frames that fall
// due together are coalesced into one send per connection.
#include <fcntl.h>
#include <pthread.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "publish/snapshot.h"
#include "serve/geo_service.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "suite.h"
#include "trace.h"
#include "util/rng.h"

namespace geoloc::bench {

namespace {

namespace wire = serve::wire;

constexpr double kDay = 86'400.0;
constexpr double kNowS = 120 * kDay;   ///< simulated time of every request
constexpr double kStaleShare = 0.05;   ///< share of answers that are stale
constexpr std::uint32_t kBase = 0x0B000000;  ///< first /16 block (11.0.0.0)
constexpr int kSlotsPer16 = 160;       ///< published /24s per /16 block
constexpr std::size_t kBatch = 256;
constexpr double kPublishEveryS = 2.0;

struct Load {
  double requests_per_s;
  std::size_t addrs_per_request;
};
constexpr Load kLookupLoad{300'000.0, 1};
constexpr Load kBatchLoad{2'000.0, kBatch};

/// One published entry, compactly (the generator's answer key).
struct Entry {
  std::uint32_t network = 0;
  std::uint8_t len = 24;
  std::uint8_t method = 0;
  std::uint8_t tier = 0;
  std::uint8_t prov = 0;
  float conf = 0.0f;
  float ttl = 0.0f;
  double lat = 0.0;
  double lon = 0.0;
  double measured_at = 0.0;
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                    (b * 0xc2b2ae3d27d4eb4fULL);
  return util::splitmix64(s);
}

/// Provenance strings as compile/refresh write them, a few dozen distinct.
std::vector<std::string> provenance_table() {
  std::vector<std::string> p;
  for (int d = 8; d < 24; ++d) {
    p.push_back("cbg/all-vps:obs=10724,disks=" + std::to_string(d));
  }
  for (int d = 3; d < 19; ++d) {
    p.push_back("cbg/remeasured:obs=50,disks=" + std::to_string(d));
  }
  for (int v = 20; v < 36; ++v) {
    p.push_back("two-step:first=100,region-vps=" + std::to_string(v));
  }
  for (int t = 1; t <= 3; ++t) {
    p.push_back("street-level:tier=" + std::to_string(t));
  }
  p.push_back("geodb/IPinfo:rir-allocation");
  p.push_back("geodb/IPinfo:whois-country");
  return p;
}
constexpr std::uint8_t kProvCbg = 0, kProvRemeasured = 16, kProvTwoStep = 32,
                       kProvStreet = 48, kProvGeoDb = 51;

/// The generator's world: entries, the request address pool with each
/// address's expected entry, and the served snapshot.
struct ServeData {
  std::vector<Entry> entries;
  std::vector<std::string> provenance;
  std::vector<std::uint32_t> pool_addr;
  std::vector<std::int32_t> pool_entry;  ///< -1: outside every prefix
  std::unique_ptr<serve::GeoService> service;
};

publish::Record to_record(const Entry& e, const std::vector<std::string>& prov) {
  publish::Record r;
  r.prefix = net::Prefix{net::IPv4Address{e.network}, e.len};
  r.location = {e.lat, e.lon};
  r.method = static_cast<publish::Method>(e.method);
  r.tier = static_cast<core::CbgVerdict>(e.tier);
  r.confidence_radius_km = e.conf;
  r.ttl_s = e.ttl;
  r.measured_at_s = e.measured_at;
  r.provenance = prov[e.prov];
  return r;
}

/// The compile TTL ladder: database imports daily, starved fixes weekly,
/// trusted fixes monthly.
float ttl_of(publish::Method method, core::CbgVerdict tier) {
  const double days = method == publish::Method::GeoDb ? 1
                      : tier == core::CbgVerdict::Ok        ? 30
                                                            : 7;
  return static_cast<float>(days * kDay);
}

/// Version v >= 2 moves ~5 % of entries: a fresh CBG re-measurement at a
/// new location. Deterministic in (seed, v, entry).
bool moved_in(std::uint64_t seed, std::uint32_t v, std::size_t i) {
  return mix(seed, v, i) % 20 == 0;
}
Entry moved_entry(std::uint64_t seed, std::uint32_t v, std::size_t i,
                  const Entry& base) {
  const std::uint64_t h = mix(seed ^ 0x5bd1e995ULL, v, i);
  Entry e = base;
  e.method = static_cast<std::uint8_t>(publish::Method::Cbg);
  e.tier = static_cast<std::uint8_t>(core::CbgVerdict::Ok);
  e.prov = static_cast<std::uint8_t>(kProvRemeasured + (h & 15));
  e.conf = static_cast<float>(5 + (h >> 8) % 120);
  e.ttl = ttl_of(publish::Method::Cbg, core::CbgVerdict::Ok);
  e.lat = -60.0 + static_cast<double>((h >> 16) % 130'000) / 1000.0;
  e.lon = -180.0 + static_cast<double>((h >> 32) % 360'000) / 1000.0;
  e.measured_at = kNowS - 3'600.0;
  return e;
}
/// Entry i as version v publishes it.
Entry entry_at(const ServeData& d, std::uint64_t seed, std::uint32_t v,
               std::size_t i) {
  for (std::uint32_t u = v; u >= 2; --u) {
    if (moved_in(seed, u, i)) return moved_entry(seed, u, i, d.entries[i]);
  }
  return d.entries[i];
}

/// Lay out /16 blocks of /24s with covering /16s and /20s, draw the request
/// pool, then age the entries so that ~5 % of the pool's answers are stale.
std::unique_ptr<ServeData> set_up(const Options& o, bool zipf) {
  auto d = std::make_unique<ServeData>();
  d->provenance = provenance_table();
  util::Pcg32 gen(mix(o.seed, 0x5e7e, zipf ? 2 : 1));
  const std::size_t want24 = o.quick ? 19'600 : 980'000;
  const std::size_t blocks = (want24 + kSlotsPer16 - 1) / kSlotsPer16;
  std::vector<std::uint8_t> has24(blocks * 256, 0);  // published /24 slots
  std::vector<std::uint8_t> has20(blocks * 16, 0);   // published /20s

  auto add = [&](std::uint32_t network, std::uint8_t len) {
    Entry e;
    e.network = network;
    e.len = len;
    if (len < 24) {
      e.method = static_cast<std::uint8_t>(publish::Method::GeoDb);
      e.tier = static_cast<std::uint8_t>(core::CbgVerdict::Degraded);
      e.prov = static_cast<std::uint8_t>(kProvGeoDb + gen.bounded(2));
      e.conf = static_cast<float>(40 + gen.bounded(360));
    } else {
      const std::uint32_t m = gen.bounded(100);
      if (m < 70) {
        e.method = static_cast<std::uint8_t>(publish::Method::Cbg);
        e.prov = static_cast<std::uint8_t>(kProvCbg + gen.bounded(16));
      } else if (m < 85) {
        e.method = static_cast<std::uint8_t>(publish::Method::TwoStep);
        e.prov = static_cast<std::uint8_t>(kProvTwoStep + gen.bounded(16));
      } else if (m < 90) {
        e.method = static_cast<std::uint8_t>(publish::Method::StreetLevel);
        e.prov = static_cast<std::uint8_t>(kProvStreet + gen.bounded(3));
      } else {
        e.method = static_cast<std::uint8_t>(publish::Method::GeoDb);
        e.prov = static_cast<std::uint8_t>(kProvGeoDb + gen.bounded(2));
      }
      e.tier = static_cast<std::uint8_t>(gen.bounded(10) == 0
                                             ? core::CbgVerdict::Degraded
                                             : core::CbgVerdict::Ok);
      e.conf = static_cast<float>(5 + gen.bounded(200));
    }
    e.ttl = ttl_of(static_cast<publish::Method>(e.method),
                   static_cast<core::CbgVerdict>(e.tier));
    e.lat = gen.uniform(-60.0, 70.0);
    e.lon = gen.uniform(-180.0, 180.0);
    d->entries.push_back(e);
  };

  std::size_t placed = 0;
  std::uint8_t slots[256];
  std::iota(std::begin(slots), std::end(slots), std::uint8_t{0});
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::uint32_t base = kBase + (static_cast<std::uint32_t>(b) << 16);
    const std::size_t n = std::min<std::size_t>(kSlotsPer16, want24 - placed);
    for (std::size_t j = 0; j < n; ++j) {  // partial Fisher-Yates
      std::swap(slots[j], slots[j + gen.bounded(256 - static_cast<std::uint32_t>(j))]);
      has24[b * 256 + slots[j]] = 1;
      add(base | (std::uint32_t{slots[j]} << 8), 24);
    }
    placed += n;
    if (gen.chance(0.5)) add(base, 16);
    for (std::uint32_t q = 0; q < 16; ++q) {
      if (gen.chance(0.18)) {
        has20[b * 16 + q] = 1;
        add(base | (q << 12), 20);
      }
    }
  }

  // An address whose longest match is entry i, or none if i owns no space.
  auto address_in = [&](std::size_t i, std::uint32_t& out) {
    const Entry& e = d->entries[i];
    const std::size_t b = (e.network - kBase) >> 16;
    for (int attempt = 0; attempt < 32; ++attempt) {
      const std::uint32_t host = gen.bounded(256);
      if (e.len == 24) {
        out = e.network | host;
        return true;
      }
      const std::uint32_t slot =
          e.len == 20 ? ((e.network >> 8) & 0xF0) | gen.bounded(16)
                      : gen.bounded(256);
      if (has24[b * 256 + slot]) continue;
      if (e.len == 16 && has20[b * 16 + (slot >> 4)]) continue;
      out = (kBase + (static_cast<std::uint32_t>(b) << 16)) | (slot << 8) | host;
      return true;
    }
    return false;
  };

  const std::size_t n = d->entries.size();
  const std::size_t pool = o.quick ? (1u << 16) : (1u << 20);
  std::vector<double> cdf;
  std::vector<std::uint32_t> rank_to_entry;
  if (zipf) {  // Zipf(1.1) over prefixes, hot ranks scattered in address space
    cdf.resize(n);
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      acc += std::pow(static_cast<double>(k + 1), -1.1);
      cdf[k] = acc;
    }
    rank_to_entry.resize(n);
    std::iota(rank_to_entry.begin(), rank_to_entry.end(), 0u);
    for (std::size_t k = n - 1; k > 0; --k) {
      std::swap(rank_to_entry[k],
                rank_to_entry[gen.bounded(static_cast<std::uint32_t>(k + 1))]);
    }
  }
  const std::uint32_t miss_base =
      kBase + (static_cast<std::uint32_t>(blocks + 16) << 16);
  while (d->pool_addr.size() < pool) {
    if (!zipf && gen.bounded(10) == 0) {
      d->pool_addr.push_back(miss_base + gen.bounded(1u << 24));
      d->pool_entry.push_back(-1);
      continue;
    }
    std::size_t i = 0;
    if (zipf) {
      const double u = gen.uniform() * cdf.back();
      const auto k = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      i = rank_to_entry[std::min(k, n - 1)];
    } else {
      i = gen.bounded(static_cast<std::uint32_t>(n));
    }
    std::uint32_t addr = 0;
    if (!address_in(i, addr)) continue;
    d->pool_addr.push_back(addr);
    d->pool_entry.push_back(static_cast<std::int32_t>(i));
  }

  // Staleness: rank entries by a uniform draw and make stale those below
  // the draw of the pool's kStaleShare quantile, so ~5 % of answers are.
  std::vector<float> draw(n);
  for (float& x : draw) x = static_cast<float>(gen.uniform());
  std::vector<float> pool_draws;
  pool_draws.reserve(pool);
  for (const std::int32_t i : d->pool_entry) {
    if (i >= 0) pool_draws.push_back(draw[static_cast<std::size_t>(i)]);
  }
  const std::size_t k = static_cast<std::size_t>(kStaleShare * pool);
  std::nth_element(pool_draws.begin(), pool_draws.begin() + k, pool_draws.end());
  const float cut = pool_draws[k];
  for (std::size_t i = 0; i < n; ++i) {
    Entry& e = d->entries[i];
    const double ttl = static_cast<double>(e.ttl);
    e.measured_at = kNowS - (draw[i] < cut ? ttl * (1.0 + gen.uniform())
                                           : ttl * 0.95 * gen.uniform());
  }

  publish::SnapshotBuilder builder;
  for (const Entry& e : d->entries) builder.add(to_record(e, d->provenance));
  d->service = std::make_unique<serve::GeoService>(publish::Snapshot::from_bytes(
      builder.build({.dataset_version = 1,
                     .created_at_s = kNowS,
                     .source = "bench serve v1"})));
  return d;
}

// -- load generator ----------------------------------------------------------

struct Schedule {
  Load load;
  std::uint64_t seed = 0;
  std::int64_t origin_ns = 0;   ///< due time of request 0
  std::uint64_t first = 0;      ///< first request of the measured window
  std::uint64_t end = 0;        ///< one past the last request
  std::size_t slices = 1;       ///< the window is cut into this many slices
  [[nodiscard]] std::int64_t due(std::uint64_t seq) const {
    return origin_ns +
           static_cast<std::int64_t>(static_cast<double>(seq) * 1e9 /
                                     load.requests_per_s);
  }
  /// Slice of the window a measured request falls in.
  [[nodiscard]] std::size_t slice_of(std::uint64_t seq) const {
    return std::min(slices - 1, static_cast<std::size_t>(
                                    (seq - first) * slices / (end - first)));
  }
  /// Pool index of address j of request seq.
  [[nodiscard]] std::size_t pool_index(std::uint64_t seq, std::size_t j,
                                       std::size_t pool) const {
    return mix(seed, seq, j) % pool;
  }
};

/// CPU clocks read at the start of a slice of the measured window.
struct CpuReading {
  double process = 0.0;
  double generator = 0.0;
  double publisher = 0.0;
};

/// One slice of the measured window: the requests due in it. The window is
/// cut into slices and the end-to-end numbers are medians over slices, so a
/// burst of host noise shorter than half the window does not move them.
struct Slice {
  CpuReading start;
  std::uint64_t answered_addrs = 0;
  std::vector<double> latency_ms;  ///< due -> reply
};

/// What the generator saw. Window counters cover requests [first, end).
struct ClientStats {
  std::uint64_t sent_addrs = 0;
  std::uint64_t answered_addrs = 0;
  std::uint64_t error_addrs = 0;
  std::uint64_t shed_addrs = 0;
  std::uint64_t missing_addrs = 0;
  std::uint64_t wrong_addrs = 0;     ///< replies that differ from expected
  std::uint64_t version_regressions = 0;
  std::vector<Slice> slices;
  std::int64_t late_max_ns = 0;      ///< send time - due time, window
  std::int64_t last_reply_ns = 0;
  double gen_cpu_end = 0.0;          ///< generator thread CPU when done
  serve::ServiceStats svc0, svc1;
  serve::ServerStats srv0, srv1;
  std::vector<std::string> first_errors;
};

struct ClientConn {
  wire::TcpClient client;
  wire::FrameDecoder decoder;
  std::vector<std::byte> out;
  std::size_t out_pos = 0;
  std::deque<std::uint64_t> pending;  ///< request seqs awaiting replies
  std::uint32_t last_version = 0;
};

bool same_answer(const wire::WireAnswer& a, const Entry* e,
                 const ServeData& d, std::uint32_t version) {
  if (e == nullptr) {
    return !a.found && !a.stale && a.prefix == net::Prefix{} &&
           a.lat_deg == 0.0 && a.lon_deg == 0.0 && a.age_s == 0.0 &&
           a.confidence_radius_km == 0.0f && a.method == 0 && a.tier == 0 &&
           a.dataset_version == 0 && a.provenance.empty();
  }
  const double ttl = static_cast<double>(e->ttl);
  const bool stale = ttl > 0.0 && kNowS >= e->measured_at + ttl;
  return a.found && a.stale == stale &&
         a.prefix == net::Prefix{net::IPv4Address{e->network}, e->len} &&
         a.lat_deg == e->lat && a.lon_deg == e->lon &&
         a.age_s == kNowS - e->measured_at && a.confidence_radius_km == e->conf &&
         a.method == e->method && a.tier == e->tier &&
         a.dataset_version == version && a.provenance == d.provenance[e->prov];
}

class Generator {
 public:
  /// `publisher_cpu` reads the publisher thread's CPU clock (0 without one).
  Generator(const ServeData& d, const Schedule& s, std::uint16_t port,
            bool check_versions, const std::atomic<std::uint32_t>& published,
            const serve::Server& server, bool trace_requests,
            std::function<double()> publisher_cpu)
      : d_(d), s_(s), port_(port), check_versions_(check_versions),
        published_(published), server_(server),
        trace_every_(s.load.addrs_per_request > 1 ? 1 : 64),
        trace_requests_(trace_requests),
        publisher_cpu_(std::move(publisher_cpu)) {
    stats_.slices.resize(s.slices);
  }

  ClientStats run() {
    std::string error;
    for (ClientConn& c : conns_) {
      if (!c.client.connect(port_, &error)) {
        note("connect: " + error);
        return std::move(stats_);
      }
      const int fd = c.client.fd();
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    }
    const std::int64_t drain_until = s_.due(s_.end) + 2'000'000'000LL;
    std::uint64_t next = 0;
    std::vector<net::IPv4Address> addrs(s_.load.addrs_per_request);
    for (;;) {
      const std::int64_t now = trace::now_ns();
      while (next < s_.end && s_.due(next) <= now) {
        if (next == s_.first) {
          stats_.svc0 = d_.service->stats();
          stats_.srv0 = server_.stats();
        }
        if (next >= s_.first && s_.slice_of(next) >= slices_started_) {
          stats_.slices[slices_started_++].start = read_cpu();
        }
        issue(next, now, addrs);
        ++next;
      }
      for (ClientConn& c : conns_) flush(c);
      for (std::size_t ci = 0; ci < conns_.size(); ++ci) receive(ci);
      const bool idle = std::all_of(conns_.begin(), conns_.end(),
                                    [](const ClientConn& c) {
                                      return c.pending.empty();
                                    });
      if (next >= s_.end && (idle || trace::now_ns() > drain_until)) break;
    }
    for (const ClientConn& c : conns_) {
      for (const std::uint64_t seq : c.pending) {
        if (seq >= s_.first) stats_.missing_addrs += s_.load.addrs_per_request;
      }
    }
    stats_.gen_cpu_end = thread_cpu_s();
    stats_.svc1 = d_.service->stats();
    stats_.srv1 = server_.stats();
    return std::move(stats_);
  }

 private:
  void note(std::string what) {
    if (stats_.first_errors.size() < 5) stats_.first_errors.push_back(std::move(what));
  }

  CpuReading read_cpu() const {
    return {process_cpu_s(), thread_cpu_s(), publisher_cpu_()};
  }

  void issue(std::uint64_t seq, std::int64_t now,
             std::vector<net::IPv4Address>& addrs) {
    ClientConn& c = conns_[seq & 1];
    const auto id = static_cast<std::uint32_t>(seq);
    const std::size_t pool = d_.pool_addr.size();
    std::vector<std::byte> frame;
    if (s_.load.addrs_per_request == 1) {
      frame = wire::encode_lookup_request(
          id, net::IPv4Address{d_.pool_addr[s_.pool_index(seq, 0, pool)]}, kNowS);
    } else {
      for (std::size_t j = 0; j < addrs.size(); ++j) {
        addrs[j] = net::IPv4Address{d_.pool_addr[s_.pool_index(seq, j, pool)]};
      }
      frame = wire::encode_batch_request(id, addrs, kNowS);
    }
    c.out.insert(c.out.end(), frame.begin(), frame.end());
    c.pending.push_back(seq);
    if (seq >= s_.first) {
      stats_.sent_addrs += s_.load.addrs_per_request;
      stats_.late_max_ns = std::max(stats_.late_max_ns, now - s_.due(seq));
    }
  }

  void flush(ClientConn& c) {
    while (c.out_pos < c.out.size()) {
      const ssize_t n = ::send(c.client.fd(), c.out.data() + c.out_pos,
                               c.out.size() - c.out_pos, MSG_NOSIGNAL);
      if (n <= 0) return;  // EAGAIN: the rest goes out on the next pass
      c.out_pos += static_cast<std::size_t>(n);
    }
    c.out.clear();
    c.out_pos = 0;
  }

  void receive(std::size_t ci) {
    ClientConn& c = conns_[ci];
    std::byte buf[1 << 16];
    for (;;) {
      const ssize_t n = ::recv(c.client.fd(), buf, sizeof buf, MSG_DONTWAIT);
      if (n <= 0) return;
      const std::int64_t t = trace::now_ns();
      c.decoder.feed(std::span<const std::byte>(buf, static_cast<std::size_t>(n)));
      std::span<const std::byte> payload;
      while (c.decoder.next(&payload) == wire::FrameDecoder::Status::Frame) {
        on_reply(c, payload, t);
      }
    }
  }

  void on_reply(ClientConn& c, std::span<const std::byte> payload,
                std::int64_t t) {
    if (c.pending.empty()) {
      note("reply with nothing pending");
      return;
    }
    const std::uint64_t seq = c.pending.front();
    c.pending.pop_front();
    const bool in_window = seq >= s_.first;
    const std::uint64_t addrs = s_.load.addrs_per_request;
    const bool ok_parse = wire::parse_reply(payload, &reply_);
    if (!ok_parse || reply_.request_id != static_cast<std::uint32_t>(seq)) {
      note("request " + std::to_string(seq) + ": unparsable or mismatched reply");
      if (in_window) stats_.error_addrs += addrs;
      return;
    }
    if (reply_.type == wire::MsgType::ErrorReply) {
      note("request " + std::to_string(seq) + ": error " +
           std::string(wire::to_string(reply_.error)));
      if (in_window) {
        (reply_.error == wire::ErrorCode::Overloaded ? stats_.shed_addrs
                                                     : stats_.error_addrs) += addrs;
      }
      return;
    }
    const std::size_t pool = d_.pool_addr.size();
    const std::uint32_t newest = published_.load(std::memory_order_acquire);
    std::uint64_t wrong = 0;
    const auto check = [&](const wire::WireAnswer& a, std::size_t j) {
      const std::int32_t i = d_.pool_entry[s_.pool_index(seq, j, pool)];
      if (i < 0) {
        wrong += !same_answer(a, nullptr, d_, 0);
        return;
      }
      // A hit carries the version it was served from; serve_lookup never
      // publishes, and no reply may name a version not yet published.
      const std::uint32_t version = check_versions_ ? a.dataset_version : 1;
      if (version == 0 || version > newest) {
        ++wrong;
        return;
      }
      const Entry e =
          entry_at(d_, s_.seed, version, static_cast<std::size_t>(i));
      wrong += !same_answer(a, &e, d_, version);
    };
    std::uint32_t version = 0;
    if (addrs == 1 && reply_.type == wire::MsgType::LookupReply) {
      check(reply_.answer, 0);
      version = reply_.answer.dataset_version;
    } else if (addrs > 1 && reply_.type == wire::MsgType::BatchReply &&
               reply_.batch.size() == addrs) {
      for (std::size_t j = 0; j < addrs; ++j) check(reply_.batch[j], j);
      version = reply_.batch.front().dataset_version;
    } else {
      wrong = addrs;
    }
    if (version != 0) {
      if (version < c.last_version) {
        ++stats_.version_regressions;
        note("request " + std::to_string(seq) + ": dataset_version " +
             std::to_string(version) + " after " + std::to_string(c.last_version));
      }
      c.last_version = std::max(c.last_version, version);
    }
    if (wrong > 0) note("request " + std::to_string(seq) + ": wrong answer");
    if (!in_window) return;
    stats_.wrong_addrs += wrong;
    stats_.answered_addrs += addrs - wrong;
    Slice& slice = stats_.slices[s_.slice_of(seq)];
    slice.answered_addrs += addrs - wrong;
    slice.latency_ms.push_back(static_cast<double>(t - s_.due(seq)) / 1e6);
    stats_.last_reply_ns = t;
    if (trace_requests_ && seq % trace_every_ == 0) {
      trace::record("client.request", s_.due(seq), t, seq + 1);
    }
  }

  const ServeData& d_;
  const Schedule s_;
  const std::uint16_t port_;
  const bool check_versions_;
  const std::atomic<std::uint32_t>& published_;
  const serve::Server& server_;
  const std::uint64_t trace_every_;
  const bool trace_requests_;
  const std::function<double()> publisher_cpu_;
  std::array<ClientConn, 2> conns_;
  wire::Reply reply_;
  std::size_t slices_started_ = 0;
  ClientStats stats_;
};

// -- publisher ---------------------------------------------------------------

/// Every kPublishEveryS from the window start: build version v + 1 with 5 %
/// of entries moved, write it, load it and swap it in.
/// The thread then waits for `release`, so its CPU clock stays readable
/// until the last reading of the window is taken.
struct PublisherResult {
  std::uint32_t cycles = 0;
  std::vector<std::string> errors;
};

PublisherResult publish_loop(const ServeData& d, std::uint64_t seed,
                             const std::string& path, std::int64_t start_ns,
                             std::int64_t end_ns,
                             std::atomic<std::uint32_t>& published,
                             const std::atomic<bool>& release) {
  PublisherResult out;
  std::vector<Entry> current = d.entries;
  for (std::uint32_t k = 0;; ++k) {
    const std::int64_t at =
        start_ns + static_cast<std::int64_t>(k * kPublishEveryS * 1e9);
    if (at >= end_ns) break;
    const std::int64_t wait = at - trace::now_ns();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    const std::uint32_t version = k + 2;
    for (std::size_t i = 0; i < current.size(); ++i) {
      if (moved_in(seed, version, i)) {
        current[i] = moved_entry(seed, version, i, d.entries[i]);
      }
    }
    const trace::Scope root("bench.publish_cycle");
    std::string error;
    publish::SnapshotBuilder builder;
    {
      const trace::Scope span("publish.build");
      for (const Entry& e : current) builder.add(to_record(e, d.provenance));
    }
    bool ok = false;
    {
      const trace::Scope span("publish.write");
      ok = builder.write_file(
          path,
          {.dataset_version = version,
           .created_at_s = kNowS,
           .source = "bench serve v" + std::to_string(version)},
          &error);
    }
    std::shared_ptr<const publish::Snapshot> snap;
    if (ok) {
      const trace::Scope span("publish.load");
      snap = publish::Snapshot::load(path, &error);
    }
    if (!snap) {
      out.errors.push_back("publish v" + std::to_string(version) + ": " + error);
      break;
    }
    published.store(version, std::memory_order_release);
    {
      const trace::Scope span("serve.swap");
      d.service->publish(std::move(snap));
    }
    ++out.cycles;
  }
  while (!release.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return out;
}

// -- in-process replay -------------------------------------------------------

/// Per-address cost of each serving layer, replaying the window's exact
/// frames in process: parse, GeoService lookup (which includes the LPM),
/// the LPM alone, and reply encoding. Each connection's frames replay on
/// their own thread, phase by phase in step, as the two server workers
/// served them, so contention on shared state lands in the layer that
/// causes it. Costs are thread CPU time.
struct Replay {
  double parse_ns = 0, lookup_ns = 0, lpm_ns = 0, encode_ns = 0;
  std::uint64_t addrs = 0;
  std::uint64_t service_hits = 0;  ///< answers found by GeoService
  std::uint64_t lpm_hits = 0;      ///< addresses the bare LPM matched
};

void replay_connection(const ServeData& d, const Schedule& s, std::uint64_t conn,
                       std::barrier<>& step, Replay& r) {
  const std::size_t pool = d.pool_addr.size();
  const std::size_t per = s.load.addrs_per_request;
  const std::uint64_t chunk = std::max<std::uint64_t>(1, 65'536 / per);
  const std::uint64_t mine = (s.end - s.first + 1) / 2;
  const auto snap = d.service->current();
  std::vector<wire::Request> requests(chunk);
  std::vector<serve::Answer> answers(chunk * per);
  std::vector<std::byte> out;
  std::vector<net::IPv4Address> addrs(per);
  std::vector<std::vector<std::byte>> frames(chunk);
  double t0 = 0.0;
  const auto phase = [&](double& total) {
    total += (thread_cpu_s() - t0) * 1e9;
    step.arrive_and_wait();
    t0 = thread_cpu_s();
  };
  for (std::uint64_t begin = 0; begin < mine; begin += chunk) {
    std::uint64_t n = 0;
    for (std::uint64_t q = begin; q < std::min(mine, begin + chunk); ++q) {
      const std::uint64_t seq = s.first + conn + 2 * q;
      if (seq >= s.end) break;
      for (std::size_t j = 0; j < per; ++j) {
        addrs[j] = net::IPv4Address{d.pool_addr[s.pool_index(seq, j, pool)]};
      }
      const auto id = static_cast<std::uint32_t>(seq);
      frames[n++] = per == 1 ? wire::encode_lookup_request(id, addrs[0], kNowS)
                             : wire::encode_batch_request(id, addrs, kNowS);
    }
    step.arrive_and_wait();
    t0 = thread_cpu_s();
    for (std::uint64_t q = 0; q < n; ++q) {
      (void)wire::parse_request(
          std::span<const std::byte>(frames[q]).subspan(wire::kFramePrefixBytes),
          serve::ServerConfig{}.max_batch, &requests[q]);
    }
    phase(r.parse_ns);
    for (std::uint64_t q = 0; q < n; ++q) {
      const wire::Request& req = requests[q];
      if (per == 1) {
        answers[q] = d.service->lookup(req.address, req.now_s);
      } else {
        d.service->lookup_batch(req.addresses, req.now_s,
                                std::span(answers).subspan(q * per, per));
      }
    }
    phase(r.lookup_ns);
    for (std::uint64_t q = 0; q < n; ++q) {
      if (per == 1) {
        r.lpm_hits += snap->index().lookup(requests[q].address) != nullptr;
      } else {
        for (const auto a : requests[q].addresses) {
          r.lpm_hits += snap->index().lookup(a) != nullptr;
        }
      }
    }
    phase(r.lpm_ns);
    out.clear();
    for (std::uint64_t q = 0; q < n; ++q) {
      if (per == 1) {
        wire::encode_lookup_reply(out, requests[q].request_id, answers[q]);
      } else {
        wire::encode_batch_reply(out, requests[q].request_id,
                                 std::span(answers).subspan(q * per, per));
      }
    }
    phase(r.encode_ns);
    for (std::uint64_t i = 0; i < n * per; ++i) r.service_hits += answers[i].found;
    r.addrs += n * per;
  }
}

Replay replay(const ServeData& d, const Schedule& s) {
  std::array<Replay, 2> parts;
  std::barrier<> step(2);
  std::thread other(
      [&] { replay_connection(d, s, 1, step, parts[1]); });
  replay_connection(d, s, 0, step, parts[0]);
  other.join();
  Replay r;
  for (const Replay& p : parts) {
    r.parse_ns += p.parse_ns;
    r.lookup_ns += p.lookup_ns;
    r.lpm_ns += p.lpm_ns;
    r.encode_ns += p.encode_ns;
    r.addrs += p.addrs;
    r.service_hits += p.service_hits;
    r.lpm_hits += p.lpm_hits;
  }
  const double a = static_cast<double>(std::max<std::uint64_t>(r.addrs, 1));
  r.parse_ns /= a;
  r.lookup_ns /= a;
  r.lpm_ns /= a;
  r.encode_ns /= a;
  return r;
}

serve::ServerConfig server_config() {
  serve::ServerConfig c;
  c.port = 0;
  c.workers = 2;
  c.max_connections = 64;
  c.max_batch = 2048;
  c.read_deadline_ms = 5000;
  c.write_deadline_ms = 5000;
  c.drain_deadline_ms = 2000;
  c.max_output_queue_bytes = 1u << 20;
  c.max_outstanding_bytes = 8u << 20;
  c.loopback_only = true;
  return c;
}

}  // namespace

void run_serve(const Options& o, bool batch_swap, Result& r) {
  const std::unique_ptr<ServeData> d =
      timed_setup(o, r, [&] { return set_up(o, batch_swap); });
  std::printf("%s: %zu entries, pool %zu addresses\n", r.workload.c_str(),
              d->entries.size(), d->pool_addr.size());

  serve::Server server(*d->service, server_config());
  std::string error;
  if (!server.start(&error)) {
    r.check(false, "server start: " + error);
    return;
  }

  const double warmup_s = o.quick ? 0.2 : 2.0;
  Schedule s;
  s.load = batch_swap ? kBatchLoad : kLookupLoad;
  s.seed = mix(o.seed, 0xc11e, batch_swap ? 2 : 1);
  s.origin_ns = trace::now_ns() + 1'000'000;
  s.first = static_cast<std::uint64_t>(std::ceil(warmup_s * s.load.requests_per_s));
  s.end = s.first +
          static_cast<std::uint64_t>(std::ceil(o.seconds * s.load.requests_per_s));
  // One-second slices; with publishing, one publish cycle per slice.
  const double slice_s = batch_swap ? kPublishEveryS : 1.0;
  s.slices = static_cast<std::size_t>(std::max(1.0, std::round(o.seconds / slice_s)));
  const std::int64_t window_start = s.due(s.first);
  const std::int64_t window_end = s.due(s.end);

  std::atomic<std::uint32_t> published{1};
  const std::string path = o.workdir + "/serve-" + r.workload + ".snap";
  trace::set_enabled(o.trace);
  PublisherResult pub;
  std::atomic<bool> release{false};
  std::thread publisher;
  std::function<double()> publisher_cpu = [] { return 0.0; };
  if (batch_swap) {
    publisher = std::thread([&] {
      pub = publish_loop(*d, s.seed, path, window_start, window_end, published,
                         release);
    });
    clockid_t clock{};
    pthread_getcpuclockid(publisher.native_handle(), &clock);
    publisher_cpu = [clock] { return cpu_seconds(clock); };
  }
  ClientStats cs;
  std::thread generator([&] {
    cs = Generator(*d, s, server.port(), batch_swap, published, server, o.trace,
                   publisher_cpu)
             .run();
  });
  generator.join();
  const CpuReading end{process_cpu_s(), cs.gen_cpu_end, publisher_cpu()};
  release.store(true, std::memory_order_release);
  if (publisher.joinable()) publisher.join();
  trace::set_enabled(false);
  server.stop();
  std::filesystem::remove(path);

  for (const auto& e : cs.first_errors) r.check(false, e);
  for (const auto& e : pub.errors) r.check(false, e);
  r.check(cs.version_regressions == 0, "dataset_version went backwards");
  r.check(cs.answered_addrs > 0, "no answered requests in the window");
  if (batch_swap) r.check(pub.cycles > 0, "no publish cycle completed");
  r.attempted = cs.sent_addrs;
  r.failed = cs.error_addrs + cs.shed_addrs + cs.missing_addrs + cs.wrong_addrs;

  // Server CPU of a slice: the process's, less the generator's and the
  // publisher's threads.
  std::vector<double> cpu_per_addr, p50s, latencies;
  for (std::size_t k = 0; k < cs.slices.size(); ++k) {
    const Slice& slice = cs.slices[k];
    const CpuReading& a = slice.start;
    const CpuReading& b = k + 1 < cs.slices.size() ? cs.slices[k + 1].start : end;
    const double server_cpu = (b.process - a.process) -
                              (b.generator - a.generator) -
                              (b.publisher - a.publisher);
    if (slice.answered_addrs == 0) continue;
    cpu_per_addr.push_back(server_cpu * 1e6 /
                           static_cast<double>(slice.answered_addrs));
    p50s.push_back(median_of(slice.latency_ms));
    latencies.insert(latencies.end(), slice.latency_ms.begin(),
                     slice.latency_ms.end());
  }
  const double answered = static_cast<double>(std::max<std::uint64_t>(cs.answered_addrs, 1));
  const double active_s =
      static_cast<double>(cs.last_reply_ns - window_start) / 1e9;
  r.end_to_end["addrs_per_s"] = answered / std::max(active_s, 1e-9);
  r.end_to_end["cpu_us_per_addr"] = median_of(cpu_per_addr);
  r.end_to_end["latency_p50_ms"] = median_of(p50s);

  const double lookups =
      static_cast<double>(std::max<std::uint64_t>(cs.svc1.lookups - cs.svc0.lookups, 1));
  r.per_layer["serve.hit_rate"] =
      static_cast<double>(cs.svc1.hits - cs.svc0.hits) / lookups;
  r.per_layer["serve.stale_frac"] =
      static_cast<double>(cs.svc1.stale_hits - cs.svc0.stale_hits) / lookups;
  r.per_layer["serve.shed"] =
      static_cast<double>(cs.srv1.shed_requests - cs.srv0.shed_requests);
  r.per_layer["serve.bytes_out_per_addr"] =
      static_cast<double>(cs.srv1.bytes_out - cs.srv0.bytes_out) / answered;
  if (!latencies.empty()) {
    const std::size_t k99 = latencies.size() * 99 / 100;
    std::nth_element(latencies.begin(), latencies.begin() + k99, latencies.end());
    const double p99 = latencies[k99];
    r.per_layer["client.p99_ms"] = p99;
    r.per_layer["client.beyond_p99"] = static_cast<double>(std::count_if(
        latencies.begin(), latencies.end(), [&](double x) { return x > p99; }));
  }
  r.per_layer["client.samples"] = static_cast<double>(latencies.size());
  r.per_layer["client.late_max_ms"] = static_cast<double>(cs.late_max_ns) / 1e6;

  if (o.trace) {
    const Replay rp = replay(*d, s);
    r.check(rp.lpm_hits == rp.service_hits,
            "replay: LPM and GeoService disagree on hits");
    r.per_layer["serve.wire_parse_ns"] = rp.parse_ns;
    r.per_layer["serve.lookup_ns"] = rp.lookup_ns;
    r.per_layer["net.lpm_ns"] = rp.lpm_ns;
    r.per_layer["serve.wire_encode_ns"] = rp.encode_ns;
    r.per_layer["serve.socket_us"] =
        r.end_to_end["cpu_us_per_addr"] -
        (rp.parse_ns + rp.lookup_ns + rp.encode_ns) / 1e3;
  }
  fold_trace(o, r, "bench.publish_cycle", pub.cycles);
}

}  // namespace geoloc::bench
