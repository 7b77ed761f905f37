// The network-facing geolocation server: an epoll-based, multi-threaded
// TCP frontend over serve::GeoService speaking the length-prefixed wire
// protocol of serve/wire.h (DESIGN.md §12).
//
// Threading: one acceptor thread plus N worker threads. The acceptor owns
// the listening socket, applies connection-level admission control (past
// `max_connections` a client receives one typed OVERLOADED error frame
// and a close — never a hang), and hands accepted fds to workers
// round-robin over an eventfd-signalled queue. Each worker owns its
// connections exclusively (no cross-thread connection state) and runs its
// own epoll loop, so the design is TSan-provable: the only shared state
// is the handoff queue, a handful of relaxed atomics, and the RCU-style
// GeoService underneath.
//
// Defense in depth, per connection:
//   * Incremental strictly-bounds-checked frame parsing (wire.h): every
//     malformed byte becomes a typed error reply; an oversized length
//     prefix is answered and the connection closed (framing is lost).
//   * Read/write deadlines enforced by a per-worker hashed timer wheel —
//     a slow-drip (slowloris) sender or a client that never drains its
//     replies is closed when its deadline fires, and can never pin a
//     worker.
//   * Bounded per-connection output queues with backpressure: when a
//     pipelining client stops reading, the server stops reading *from*
//     it (EPOLLIN off) instead of buffering without limit, and resumes
//     once the queue drains below half the cap.
//   * Request-level load shedding: past `max_outstanding_bytes` of queued
//     replies server-wide, requests are answered with OVERLOADED (a
//     fixed-size reply) instead of being processed — past saturation the
//     server sheds, it does not collapse.
//   * Graceful drain: stop() closes the listener, stops reading, flushes
//     every queued reply within `drain_deadline_ms`, then closes.
//
// Hot snapshot swaps need no connection-level coordination: GeoService is
// RCU-swappable, so a worker mid-batch keeps the snapshot version it
// started with (its Answers pin it) while new requests see the new one.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/geo_service.h"
#include "serve/wire.h"

namespace geoloc::serve {

/// Tunables; callers set the fields in code.
struct ServerConfig {
  std::uint16_t port = 0;          ///< 0 = kernel-assigned (tests/benches)
  unsigned workers = 2;            ///< epoll worker threads
  std::size_t max_connections = 1024;
  std::size_t max_batch = 2048;    ///< addresses per batch request
  std::size_t max_frame_bytes = wire::kDefaultMaxFramePayload;
  int read_deadline_ms = 5000;     ///< idle/slow-sender horizon
  int write_deadline_ms = 5000;    ///< reply-drain horizon
  int drain_deadline_ms = 2000;    ///< graceful-stop flush budget
  std::size_t max_output_queue_bytes = 1u << 20;  ///< per-conn backpressure
  std::size_t max_outstanding_bytes = 8u << 20;   ///< global shed threshold
  int listen_backlog = 128;
  bool loopback_only = true;       ///< bind 127.0.0.1 (false: INADDR_ANY)
};

/// Monotonic per-instance counters (same copy-out contract as
/// ServiceStats: individually consistent, not mutually).
struct ServerStats {
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_shed = 0;      ///< admission control closes
  std::uint64_t conns_closed = 0;
  std::uint64_t deadline_closed = 0; ///< timer-wheel expiries
  std::uint64_t frames = 0;          ///< complete frames parsed
  std::uint64_t malformed = 0;       ///< typed protocol errors sent
  std::uint64_t shed_requests = 0;   ///< OVERLOADED replies
  std::uint64_t requests_lookup = 0;
  std::uint64_t requests_batch = 0;
  std::uint64_t requests_info = 0;
  std::uint64_t requests_stats = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

class Server {
 public:
  /// `service` must outlive the server.
  explicit Server(GeoService& service, ServerConfig config = {});
  ~Server();  ///< stop()s if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and spin up the acceptor + workers. False (with
  /// *error) when the socket setup fails; the server is then inert.
  bool start(std::string* error = nullptr);

  /// Graceful drain: stop accepting, stop reading, flush queued replies
  /// (bounded by drain_deadline_ms), close everything, join threads.
  /// Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// The bound port (after start(); the kernel-assigned one when
  /// config.port == 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] const ServerConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] ServerStats stats() const;

  /// Implementation types, defined in server.cpp only. Public so the
  /// file-local helpers there (the timer wheel) can name them; opaque to
  /// everyone else.
  struct Worker;
  struct Conn;

 private:

  void acceptor_loop();
  void worker_loop(Worker& w);
  void adopt_connections(Worker& w);
  void handle_readable(Worker& w, Conn& c);
  void handle_writable(Worker& w, Conn& c);
  void process_frame(Worker& w, Conn& c, std::span<const std::byte> payload);
  void enqueue_wrote(Worker& w, Conn& c, std::size_t before);
  void close_conn(Worker& w, Conn& c, bool deadline_expired = false);
  void check_deadlines(Worker& w);
  wire::InfoReply build_info() const;
  wire::StatsReply build_stats() const;

  GeoService& service_;
  ServerConfig cfg_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> open_conns_{0};
  std::atomic<std::size_t> outstanding_bytes_{0};
  std::uint64_t next_worker_ = 0;  ///< acceptor-only round-robin cursor

  struct Counters {
    obs::Counter conns_accepted, conns_shed, conns_closed, deadline_closed;
    obs::Counter frames, malformed, shed_requests;
    obs::Counter requests_lookup, requests_batch, requests_info,
        requests_stats;
    obs::Counter bytes_in, bytes_out;
  };
  mutable Counters counters_;

  std::thread acceptor_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace geoloc::serve
