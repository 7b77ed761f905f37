// Socket-level chaos/fuzz harness for the epoll server (DESIGN.md §12):
// torn frames, oversized length prefixes, malformed bodies, slow-drip
// senders, abrupt resets, backpressure, admission control, load shedding,
// graceful drain, and lookups racing hot snapshot swaps. The invariant
// throughout: every hostile byte stream produces a typed error reply or a
// clean close — never a crash, a hang, or a torn answer — and the suite is
// run under ASan/UBSan and TSan via the sanitize and tsan presets
// (`ctest --preset sanitize -L server`).
#include "serve/server.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "publish/snapshot.h"
#include "serve/geo_service.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace geoloc::serve {
namespace {

using namespace std::chrono_literals;
using wire::ErrorCode;
using wire::MsgType;
using wire::Reply;
using wire::TcpClient;

net::IPv4Address addr(const char* text) {
  return *net::IPv4Address::parse(text);
}

/// Snapshot whose entry latitude encodes the dataset version, so any torn
/// read anywhere in the pipeline shows up as version/latitude mismatch.
std::shared_ptr<const publish::Snapshot> make_snapshot(
    std::uint32_t version, std::size_t prefixes = 8) {
  publish::SnapshotBuilder b;
  for (std::size_t i = 0; i < prefixes; ++i) {
    publish::Record r;
    r.prefix = net::Prefix{net::IPv4Address{10, 0, static_cast<uint8_t>(i), 0},
                           24};
    r.location = {static_cast<double>(version), 0.0};
    r.ttl_s = 0.0f;
    r.provenance = "chaos";
    b.add(std::move(r));
  }
  std::string error;
  auto snap = publish::Snapshot::from_bytes(
      b.build(publish::SnapshotMeta{.dataset_version = version,
                                    .source = "chaos harness"}),
      &error);
  EXPECT_NE(snap, nullptr) << error;
  return snap;
}

/// A service + started server with per-test config tweaks.
struct Rig {
  explicit Rig(ServerConfig cfg = {}, std::uint32_t version = 1) {
    service = std::make_unique<GeoService>(make_snapshot(version));
    server = std::make_unique<Server>(*service, cfg);
    std::string error;
    EXPECT_TRUE(server->start(&error)) << error;
  }
  TcpClient client() {
    TcpClient c;
    std::string error;
    EXPECT_TRUE(c.connect(server->port(), &error)) << error;
    return c;
  }
  std::unique_ptr<GeoService> service;
  std::unique_ptr<Server> server;
};

std::span<const std::byte> bytes_of(const std::vector<std::byte>& v) {
  return v;
}

// -- happy paths (the baseline the chaos cases must not disturb) -----------

TEST(ServeServer, LookupRoundTrip) {
  Rig rig;
  TcpClient c = rig.client();
  ASSERT_TRUE(c.send_raw(wire::encode_lookup_request(7, addr("10.0.1.9"),
                                                     /*now_s=*/0.0)));
  Reply r;
  ASSERT_TRUE(c.recv_reply(&r));
  EXPECT_EQ(r.type, MsgType::LookupReply);
  EXPECT_EQ(r.request_id, 7u);
  EXPECT_TRUE(r.answer.found);
  EXPECT_EQ(r.answer.dataset_version, 1u);
  EXPECT_EQ(r.answer.lat_deg, 1.0);
  EXPECT_EQ(r.answer.provenance, "chaos");
  EXPECT_EQ(r.answer.prefix, *net::Prefix::parse("10.0.1.0/24"));

  // A miss is found=false, not an error.
  ASSERT_TRUE(c.send_raw(wire::encode_lookup_request(8, addr("192.0.2.1"),
                                                     0.0)));
  ASSERT_TRUE(c.recv_reply(&r));
  EXPECT_EQ(r.request_id, 8u);
  EXPECT_FALSE(r.answer.found);
}

TEST(ServeServer, PipelinedRequestsAnswerInOrder) {
  Rig rig;
  TcpClient c = rig.client();
  std::vector<std::byte> burst;
  constexpr std::uint32_t kN = 64;
  for (std::uint32_t i = 0; i < kN; ++i) {
    const auto f = wire::encode_lookup_request(
        i, addr(i % 2 == 0 ? "10.0.0.1" : "203.0.113.5"), 0.0);
    burst.insert(burst.end(), f.begin(), f.end());
  }
  ASSERT_TRUE(c.send_raw(burst));
  for (std::uint32_t i = 0; i < kN; ++i) {
    Reply r;
    ASSERT_TRUE(c.recv_reply(&r)) << "reply " << i;
    EXPECT_EQ(r.request_id, i);
    EXPECT_EQ(r.answer.found, i % 2 == 0);
  }
}

TEST(ServeServer, BatchInfoAndStats) {
  Rig rig;
  TcpClient c = rig.client();
  const std::vector<net::IPv4Address> addrs = {
      addr("10.0.0.1"), addr("10.0.3.200"), addr("198.51.100.1")};
  ASSERT_TRUE(c.send_raw(wire::encode_batch_request(21, addrs, 0.0)));
  Reply r;
  ASSERT_TRUE(c.recv_reply(&r));
  EXPECT_EQ(r.type, MsgType::BatchReply);
  ASSERT_EQ(r.batch.size(), 3u);
  EXPECT_TRUE(r.batch[0].found);
  EXPECT_TRUE(r.batch[1].found);
  EXPECT_FALSE(r.batch[2].found);
  // One consistent snapshot version for the whole batch.
  EXPECT_EQ(r.batch[0].dataset_version, r.batch[1].dataset_version);

  ASSERT_TRUE(c.send_raw(wire::encode_info_request(22)));
  ASSERT_TRUE(c.recv_reply(&r));
  EXPECT_EQ(r.type, MsgType::InfoReply);
  EXPECT_TRUE(r.info.has_snapshot);
  EXPECT_FALSE(r.info.draining);
  EXPECT_EQ(r.info.dataset_version, 1u);
  EXPECT_EQ(r.info.entries, 8u);

  ASSERT_TRUE(c.send_raw(wire::encode_stats_request(23)));
  ASSERT_TRUE(c.recv_reply(&r));
  EXPECT_EQ(r.type, MsgType::StatsReply);
  EXPECT_GE(r.stats.lookups, 3u);  // the batch
  EXPECT_EQ(r.stats.conns_accepted, 1u);
  EXPECT_EQ(r.stats.malformed, 0u);
}

TEST(ServeServer, EmptyBatchIsAnswered) {
  Rig rig;
  TcpClient c = rig.client();
  ASSERT_TRUE(c.send_raw(wire::encode_batch_request(1, {}, 0.0)));
  Reply r;
  ASSERT_TRUE(c.recv_reply(&r));
  EXPECT_EQ(r.type, MsgType::BatchReply);
  EXPECT_TRUE(r.batch.empty());
}

// -- malformed input: typed errors, never crashes --------------------------

TEST(ServeServer, UnknownTypeGetsTypedErrorAndConnectionSurvives) {
  Rig rig;
  TcpClient c = rig.client();
  const std::byte payload[] = {std::byte{0x55}, std::byte{1}, std::byte{0},
                               std::byte{0}, std::byte{0}};
  ASSERT_TRUE(c.send_frame(payload));
  Reply r;
  ASSERT_TRUE(c.recv_reply(&r));
  EXPECT_EQ(r.type, MsgType::ErrorReply);
  EXPECT_EQ(r.error, ErrorCode::UnknownType);
  EXPECT_EQ(r.request_id, 1u);

  // The frame boundary held, so the connection still works.
  ASSERT_TRUE(c.send_raw(wire::encode_lookup_request(2, addr("10.0.0.1"),
                                                     0.0)));
  ASSERT_TRUE(c.recv_reply(&r));
  EXPECT_EQ(r.type, MsgType::LookupReply);
  EXPECT_EQ(r.request_id, 2u);
}

TEST(ServeServer, ShortAndOverlongBodiesAreMalformed) {
  Rig rig;
  TcpClient c = rig.client();
  // Too short for even the payload header.
  const std::byte stub[] = {std::byte{0x01}, std::byte{9}};
  ASSERT_TRUE(c.send_frame(stub));
  Reply r;
  ASSERT_TRUE(c.recv_reply(&r));
  EXPECT_EQ(r.type, MsgType::ErrorReply);
  EXPECT_EQ(r.error, ErrorCode::Malformed);
  EXPECT_EQ(r.request_id, 0u);  // id unrecoverable

  // A lookup with trailing junk: the id parses, the body is rejected.
  auto frame = wire::encode_lookup_request(3, addr("10.0.0.1"), 0.0);
  frame.push_back(std::byte{0xAA});
  std::uint32_t len = 0;
  std::memcpy(&len, frame.data(), sizeof len);
  ++len;
  std::memcpy(frame.data(), &len, sizeof len);
  ASSERT_TRUE(c.send_raw(frame));
  ASSERT_TRUE(c.recv_reply(&r));
  EXPECT_EQ(r.error, ErrorCode::Malformed);
  EXPECT_EQ(r.request_id, 3u);

  // Still alive after both.
  ASSERT_TRUE(c.send_raw(wire::encode_lookup_request(4, addr("10.0.0.1"),
                                                     0.0)));
  ASSERT_TRUE(c.recv_reply(&r));
  EXPECT_EQ(r.type, MsgType::LookupReply);
  EXPECT_GE(rig.server->stats().malformed, 2u);
}

TEST(ServeServer, LyingBatchCountIsMalformedNotAllocation) {
  Rig rig;
  TcpClient c = rig.client();
  // Declares 2^28 addresses but carries none: must be rejected before any
  // allocation happens.
  util::durable::PayloadWriter w;
  w.pod(static_cast<std::uint8_t>(MsgType::BatchReq));
  w.pod(std::uint32_t{11});
  w.pod(0.0);  // now_s
  w.pod(std::uint32_t{1u << 28});
  ASSERT_TRUE(c.send_frame(w.data()));
  Reply r;
  ASSERT_TRUE(c.recv_reply(&r));
  EXPECT_EQ(r.error, ErrorCode::Malformed);
}

TEST(ServeServer, BatchAboveLimitGetsBatchTooLarge) {
  ServerConfig cfg;
  cfg.max_batch = 4;
  Rig rig(cfg);
  TcpClient c = rig.client();
  const std::vector<net::IPv4Address> addrs(8, addr("10.0.0.1"));
  ASSERT_TRUE(c.send_raw(wire::encode_batch_request(5, addrs, 0.0)));
  Reply r;
  ASSERT_TRUE(c.recv_reply(&r));
  EXPECT_EQ(r.error, ErrorCode::BatchTooLarge);
  EXPECT_EQ(r.request_id, 5u);
}

TEST(ServeServer, OversizedLengthPrefixIsFatalButTyped) {
  ServerConfig cfg;
  cfg.max_frame_bytes = 1024;
  Rig rig(cfg);
  TcpClient c = rig.client();
  const std::uint32_t len = 1 << 30;
  std::vector<std::byte> prefix(4);
  std::memcpy(prefix.data(), &len, sizeof len);
  ASSERT_TRUE(c.send_raw(prefix));
  Reply r;
  ASSERT_TRUE(c.recv_reply(&r));
  EXPECT_EQ(r.type, MsgType::ErrorReply);
  EXPECT_EQ(r.error, ErrorCode::FrameTooLarge);
  // Framing is unrecoverable: the server closes after the typed reply.
  EXPECT_TRUE(c.recv_eof(2000));
}

TEST(ServeServer, TornFrameThenCloseIsClean) {
  Rig rig;
  {
    TcpClient c = rig.client();
    const auto frame = wire::encode_lookup_request(1, addr("10.0.0.1"), 0.0);
    ASSERT_TRUE(
        c.send_raw(bytes_of(frame).subspan(0, frame.size() - 3)));
    c.close();
  }
  // The server noticed the close; a fresh connection is unaffected.
  TcpClient c2 = rig.client();
  ASSERT_TRUE(c2.send_raw(wire::encode_lookup_request(2, addr("10.0.0.1"),
                                                      0.0)));
  Reply r;
  ASSERT_TRUE(c2.recv_reply(&r));
  EXPECT_TRUE(r.answer.found);
}

TEST(ServeServer, AbruptResetMidRequestIsSurvived) {
  Rig rig;
  for (int i = 0; i < 8; ++i) {
    TcpClient c = rig.client();
    const auto frame = wire::encode_lookup_request(1, addr("10.0.0.1"), 0.0);
    ASSERT_TRUE(c.send_raw(bytes_of(frame).subspan(0, 5)));
    c.reset();  // RST, not FIN
  }
  TcpClient c = rig.client();
  ASSERT_TRUE(c.send_raw(wire::encode_lookup_request(2, addr("10.0.0.1"),
                                                     0.0)));
  Reply r;
  ASSERT_TRUE(c.recv_reply(&r));
  EXPECT_TRUE(r.answer.found);
}

// -- deadlines: slowloris defense ------------------------------------------

TEST(ServeServer, SlowDripSenderIsClosedByReadDeadline) {
  // The deadline is 10x the drip interval, so a sleep stretched by a
  // loaded host rarely lets it fire mid-drip; when it does, the failed send
  // is only acceptable if the gap since the previous byte really reached
  // the deadline.
  constexpr auto kDrip = 40ms;
  ServerConfig cfg;
  cfg.read_deadline_ms = 10 * static_cast<int>(kDrip.count());
  const std::chrono::milliseconds deadline(cfg.read_deadline_ms);
  Rig rig(cfg);
  TcpClient c = rig.client();
  const auto frame = wire::encode_lookup_request(1, addr("10.0.0.1"), 0.0);
  const auto start = std::chrono::steady_clock::now();
  // Drip one byte per interval: each byte is activity, but never a whole
  // frame. The deadline is measured from the last byte, so the close
  // lands one to two deadlines after the drip stalls.
  auto last_byte = start;
  bool closed_mid_drip = false;
  for (std::size_t i = 0; i < 3 && !closed_mid_drip; ++i) {
    if (!c.send_raw(bytes_of(frame).subspan(i, 1))) {
      const auto gap = std::chrono::steady_clock::now() - last_byte;
      ASSERT_GE(gap, deadline) << "send failed before the deadline was due";
      closed_mid_drip = true;
      break;
    }
    last_byte = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(kDrip);
  }
  if (!closed_mid_drip) {
    EXPECT_TRUE(c.recv_eof(5000)) << "read deadline never fired";
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, 4s);
  EXPECT_GE(rig.server->stats().deadline_closed, 1u);
}

TEST(ServeServer, IdleConnectionIsReaped) {
  ServerConfig cfg;
  cfg.read_deadline_ms = 120;
  Rig rig(cfg);
  TcpClient c = rig.client();
  EXPECT_TRUE(c.recv_eof(5000));
  EXPECT_GE(rig.server->stats().deadline_closed, 1u);
}

TEST(ServeServer, ClientThatNeverReadsIsClosedByWriteDeadline) {
  ServerConfig cfg;
  cfg.read_deadline_ms = 10'000;  // isolate the write deadline
  cfg.write_deadline_ms = 200;
  cfg.max_output_queue_bytes = 32 * 1024;
  Rig rig(cfg);
  TcpClient c = rig.client();
  // Ask for far more reply bytes than the kernel buffers will absorb and
  // never read a single one (recv_eof would count as draining): the flush
  // stalls and the write deadline must fire. Detected via server stats,
  // since the client deliberately keeps its socket untouched.
  // ~24 MB of replies: far past what loopback kernel buffers can absorb,
  // so the flush genuinely stalls. (The burst send itself may block until
  // the server's deadline close unblocks it — also part of the test.)
  std::vector<net::IPv4Address> addrs(2000, addr("10.0.0.1"));
  std::vector<std::byte> burst;
  for (std::uint32_t i = 0; i < 300; ++i) {
    const auto f = wire::encode_batch_request(i, addrs, 0.0);
    burst.insert(burst.end(), f.begin(), f.end());
  }
  (void)c.send_raw(burst);  // may fail midway once the server closes: fine
  // Generous window: under TSan on a loaded host the server needs real CPU
  // time to fill the loopback buffers before the flush can stall. What we
  // assert is that the deadline fires at all, not how fast we observe it.
  const auto start = std::chrono::steady_clock::now();
  while (rig.server->stats().deadline_closed == 0 &&
         std::chrono::steady_clock::now() - start < 30s) {
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_GE(rig.server->stats().deadline_closed, 1u)
      << "write deadline never fired";
}

// -- admission control and load shedding -----------------------------------

TEST(ServeServer, ConnectionsPastAdmissionLimitAreShedWithTypedReply) {
  ServerConfig cfg;
  cfg.max_connections = 2;
  Rig rig(cfg);
  TcpClient a = rig.client();
  TcpClient b = rig.client();
  // Make sure both are fully admitted before the third knocks.
  Reply r;
  ASSERT_TRUE(a.send_raw(wire::encode_info_request(1)));
  ASSERT_TRUE(a.recv_reply(&r));
  ASSERT_TRUE(b.send_raw(wire::encode_info_request(2)));
  ASSERT_TRUE(b.recv_reply(&r));

  TcpClient over = rig.client();
  ASSERT_TRUE(over.recv_reply(&r));
  EXPECT_EQ(r.type, MsgType::ErrorReply);
  EXPECT_EQ(r.error, ErrorCode::Overloaded);
  EXPECT_TRUE(over.recv_eof(2000));
  EXPECT_EQ(rig.server->stats().conns_shed, 1u);

  // Admitted connections are unaffected.
  ASSERT_TRUE(a.send_raw(wire::encode_lookup_request(3, addr("10.0.0.1"),
                                                     0.0)));
  ASSERT_TRUE(a.recv_reply(&r));
  EXPECT_TRUE(r.answer.found);

  // Closing one admitted connection frees a slot. The worker reaps the
  // closed fd asynchronously, so knock until admitted: a knock that lands
  // before the reap gets the typed OVERLOADED reply and we try again.
  b.close();
  bool admitted = false;
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  while (!admitted && std::chrono::steady_clock::now() < give_up) {
    TcpClient fresh = rig.client();
    ASSERT_TRUE(fresh.send_raw(
        wire::encode_lookup_request(4, addr("10.0.0.1"), 0.0)));
    if (fresh.recv_reply(&r) && r.type == MsgType::LookupReply) {
      admitted = true;
      break;
    }
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(admitted) << "slot never freed after closing an admitted conn";
}

TEST(ServeServer, OverloadShedsRequestsInsteadOfBuffering) {
  ServerConfig cfg;
  cfg.max_outstanding_bytes = 8 * 1024;  // global shed threshold
  cfg.max_output_queue_bytes = 64 * 1024;
  cfg.write_deadline_ms = 10'000;  // the test drains before any deadline
  cfg.read_deadline_ms = 10'000;
  Rig rig(cfg);
  TcpClient c = rig.client();
  // Pipeline many batch requests without reading a byte: replies queue up,
  // cross the threshold, and the tail must be shed with OVERLOADED.
  constexpr std::uint32_t kRequests = 200;
  std::vector<net::IPv4Address> addrs(512, addr("10.0.0.1"));
  std::vector<std::byte> burst;
  for (std::uint32_t i = 0; i < kRequests; ++i) {
    const auto f = wire::encode_batch_request(i, addrs, 0.0);
    burst.insert(burst.end(), f.begin(), f.end());
  }
  ASSERT_TRUE(c.send_raw(burst));
  c.shutdown_write();

  // Now drain: every request must be answered — served or shed, never
  // dropped, never hung.
  std::uint32_t served = 0;
  std::uint32_t shed = 0;
  for (std::uint32_t i = 0; i < kRequests; ++i) {
    Reply r;
    ASSERT_TRUE(c.recv_reply(&r, 10'000)) << "reply " << i << " missing";
    EXPECT_EQ(r.request_id, i);
    if (r.type == MsgType::BatchReply) {
      ASSERT_EQ(r.batch.size(), addrs.size());
      ++served;
    } else {
      ASSERT_EQ(r.type, MsgType::ErrorReply);
      EXPECT_EQ(r.error, ErrorCode::Overloaded);
      ++shed;
    }
  }
  EXPECT_TRUE(c.recv_eof(2000));  // half-close: server closes when done
  EXPECT_GT(served, 0u);
  EXPECT_GT(shed, 0u) << "threshold never tripped";
  EXPECT_EQ(served + shed, kRequests);
  EXPECT_EQ(rig.server->stats().shed_requests, shed);
}

// -- graceful drain --------------------------------------------------------

TEST(ServeServer, GracefulDrainFlushesInFlightReplies) {
  Rig rig;
  TcpClient c = rig.client();
  std::vector<std::byte> burst;
  constexpr std::uint32_t kN = 32;
  for (std::uint32_t i = 0; i < kN; ++i) {
    const auto f = wire::encode_lookup_request(i, addr("10.0.0.1"), 0.0);
    burst.insert(burst.end(), f.begin(), f.end());
  }
  ASSERT_TRUE(c.send_raw(burst));
  // Give the worker a moment to buffer the burst, then stop.
  std::this_thread::sleep_for(50ms);
  rig.server->stop();
  EXPECT_FALSE(rig.server->running());

  // Every fully-received request was answered before the close.
  std::uint32_t replies = 0;
  for (;;) {
    Reply r;
    bool eof = false;
    if (!c.recv_reply(&r, 2000, &eof)) {
      EXPECT_TRUE(eof) << "connection hung instead of closing";
      break;
    }
    EXPECT_EQ(r.type, MsgType::LookupReply);
    ++replies;
  }
  EXPECT_EQ(replies, kN);
}

TEST(ServeServer, StoppedServerRefusesNewConnections) {
  Rig rig;
  const std::uint16_t port = rig.server->port();
  rig.server->stop();
  TcpClient c;
  std::string error;
  EXPECT_FALSE(c.connect(port, &error));
}

// -- hot swaps under fire --------------------------------------------------

TEST(ServeServer, LookupsNeverTearAcrossHotSwaps) {
  Rig rig;
  auto v1 = make_snapshot(1);
  auto v2 = make_snapshot(2);
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      TcpClient c;
      std::string error;
      if (!c.connect(rig.server->port(), &error)) {
        torn.fetch_add(1000);
        return;
      }
      std::uint32_t id = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        ASSERT_TRUE(c.send_raw(
            wire::encode_lookup_request(++id, addr("10.0.2.2"), 0.0)));
        Reply r;
        if (!c.recv_reply(&r, 5000)) {
          torn.fetch_add(1000);  // a hang or close here is a failure
          return;
        }
        // The invariant: whatever version answered, its latitude agrees.
        if (!r.answer.found ||
            r.answer.lat_deg !=
                static_cast<double>(r.answer.dataset_version)) {
          torn.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 500; ++i) {
    rig.service->publish(i % 2 == 0 ? v2 : v1);
    if (i % 50 == 0) std::this_thread::sleep_for(1ms);
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(torn.load(), 0);
  EXPECT_GE(rig.service->stats().swaps, 500u);
}

// -- fuzz ------------------------------------------------------------------

TEST(ServeServer, RandomGarbageNeverCrashesOrHangs) {
  ServerConfig cfg;
  cfg.max_frame_bytes = 64 * 1024;
  cfg.read_deadline_ms = 2000;
  Rig rig(cfg);
  util::Pcg32 gen(20230815);
  for (int round = 0; round < 60; ++round) {
    TcpClient c = rig.client();
    const std::size_t len = 1 + gen.bounded(512);
    std::vector<std::byte> garbage(len);
    for (auto& b : garbage) {
      b = std::byte{static_cast<std::uint8_t>(gen.bounded(256))};
    }
    // A third of the rounds lead with a plausible small length prefix so
    // the garbage lands in the body parser, not just the framer.
    if (round % 3 == 0 && len >= 4) {
      const std::uint32_t plausible = gen.bounded(32);
      std::memcpy(garbage.data(), &plausible, sizeof plausible);
    }
    if (!c.send_raw(garbage)) continue;  // server already closed us: fine
    switch (round % 4) {
      case 0: c.close(); break;
      case 1: c.reset(); break;
      case 2: c.shutdown_write(); (void)c.recv_eof(4000); break;
      default: {
        Reply r;
        (void)c.recv_reply(&r, 200);  // may or may not be a parseable frame
        c.close();
        break;
      }
    }
  }
  // The server is still fully functional.
  TcpClient c = rig.client();
  ASSERT_TRUE(c.send_raw(wire::encode_lookup_request(1, addr("10.0.0.1"),
                                                     0.0)));
  Reply r;
  ASSERT_TRUE(c.recv_reply(&r));
  EXPECT_TRUE(r.answer.found);
}

// -- decoder unit coverage (no sockets) ------------------------------------

TEST(FrameDecoder, ReassemblesByteAtATime) {
  const auto frame = wire::encode_lookup_request(9, addr("10.0.0.1"), 2.5);
  wire::FrameDecoder d;
  std::span<const std::byte> payload;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    EXPECT_EQ(d.next(&payload), wire::FrameDecoder::Status::NeedMore);
    d.feed(bytes_of(frame).subspan(i, 1));
  }
  ASSERT_EQ(d.next(&payload), wire::FrameDecoder::Status::Frame);
  wire::Request req;
  ASSERT_EQ(wire::parse_request(payload, 16, &req), wire::ParseStatus::Ok);
  EXPECT_EQ(req.type, MsgType::LookupReq);
  EXPECT_EQ(req.request_id, 9u);
  EXPECT_EQ(req.address, addr("10.0.0.1"));
  EXPECT_EQ(req.now_s, 2.5);
  EXPECT_EQ(d.next(&payload), wire::FrameDecoder::Status::NeedMore);
}

TEST(FrameDecoder, PoisonsOnOversizedLengthAndStopsBuffering) {
  wire::FrameDecoder d(/*max_payload=*/64);
  const std::uint32_t len = 65;
  std::byte prefix[4];
  std::memcpy(prefix, &len, sizeof len);
  d.feed(prefix);
  std::span<const std::byte> payload;
  EXPECT_EQ(d.next(&payload), wire::FrameDecoder::Status::TooLarge);
  EXPECT_TRUE(d.poisoned());
  // Poisoned decoders discard further input instead of buffering it.
  const std::vector<std::byte> junk(1024);
  d.feed(junk);
  EXPECT_EQ(d.next(&payload), wire::FrameDecoder::Status::TooLarge);
  EXPECT_LE(d.buffered(), 4u);
}

TEST(FrameDecoder, ManyPipelinedFramesInOneFeed) {
  std::vector<std::byte> stream;
  for (std::uint32_t i = 0; i < 10; ++i) {
    const auto f = wire::encode_info_request(i);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  wire::FrameDecoder d;
  d.feed(stream);
  std::span<const std::byte> payload;
  for (std::uint32_t i = 0; i < 10; ++i) {
    ASSERT_EQ(d.next(&payload), wire::FrameDecoder::Status::Frame);
    wire::Request req;
    ASSERT_EQ(wire::parse_request(payload, 16, &req), wire::ParseStatus::Ok);
    EXPECT_EQ(req.request_id, i);
  }
  EXPECT_EQ(d.next(&payload), wire::FrameDecoder::Status::NeedMore);
  EXPECT_EQ(d.buffered(), 0u);
}

TEST(WireCodec, AnswerRoundTripsThroughBatchReply) {
  Answer a;
  a.found = true;
  a.stale = true;
  a.prefix = *net::Prefix::parse("198.18.0.0/15");
  a.location = {48.85, 2.35};
  a.method = publish::Method::StreetLevel;
  a.tier = core::CbgVerdict::Degraded;
  a.confidence_radius_km = 12.5f;
  a.age_s = 3600.0;
  a.dataset_version = 42;
  const std::string prov(300, 'p');  // longer than the wire cap
  a.provenance = prov;

  std::vector<std::byte> frame;
  wire::encode_batch_reply(frame, 77, std::span<const Answer>(&a, 1));
  wire::FrameDecoder d;
  d.feed(frame);
  std::span<const std::byte> payload;
  ASSERT_EQ(d.next(&payload), wire::FrameDecoder::Status::Frame);
  Reply r;
  ASSERT_TRUE(wire::parse_reply(payload, &r));
  EXPECT_EQ(r.request_id, 77u);
  ASSERT_EQ(r.batch.size(), 1u);
  const wire::WireAnswer& wa = r.batch[0];
  EXPECT_TRUE(wa.found);
  EXPECT_TRUE(wa.stale);
  EXPECT_EQ(wa.prefix, a.prefix);
  EXPECT_EQ(wa.lat_deg, 48.85);
  EXPECT_EQ(wa.dataset_version, 42u);
  EXPECT_EQ(wa.provenance, prov.substr(0, wire::kMaxWireProvenance));
}

}  // namespace
}  // namespace geoloc::serve
