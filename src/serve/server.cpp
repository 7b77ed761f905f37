#include "serve/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <unordered_map>

namespace geoloc::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Process-wide serving-frontend series, bumped alongside the per-instance
/// counters (same two-striped-adds pattern as serve_series()).
struct NetSeries {
  obs::Counter& conns_accepted;
  obs::Counter& conns_shed;
  obs::Counter& conns_closed;
  obs::Counter& deadline_closed;
  obs::Counter& frames;
  obs::Counter& malformed;
  obs::Counter& shed_requests;
  obs::Counter& req_lookup;
  obs::Counter& req_batch;
  obs::Counter& req_info;
  obs::Counter& req_stats;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  obs::Histogram& request_ms;
};

NetSeries& net_series() {
  static auto& reg = obs::Registry::instance();
  static NetSeries s{reg.counter("serve.net.conns_accepted"),
                     reg.counter("serve.net.conns_shed"),
                     reg.counter("serve.net.conns_closed"),
                     reg.counter("serve.net.deadline_closed"),
                     reg.counter("serve.net.frames"),
                     reg.counter("serve.net.malformed"),
                     reg.counter("serve.net.shed_requests"),
                     reg.counter("serve.net.req.lookup"),
                     reg.counter("serve.net.req.batch"),
                     reg.counter("serve.net.req.info"),
                     reg.counter("serve.net.req.stats"),
                     reg.counter("serve.net.bytes_in"),
                     reg.counter("serve.net.bytes_out"),
                     reg.histogram("serve.net.request_ms")};
  return s;
}

}  // namespace

// -- per-worker timer wheel ------------------------------------------------

/// Hashed timer wheel with lazy deadline validation: connections are
/// scheduled once per *armed* deadline; activity only moves the
/// connection's `deadline` field, and when the wheel entry fires early
/// the connection is simply re-armed for the remainder. O(1) schedule and
/// cancel, O(ticks elapsed) advance.
struct Server::Conn {
  int fd = -1;
  wire::FrameDecoder decoder;
  std::vector<std::byte> out;
  std::size_t out_pos = 0;
  std::uint32_t events = 0;  ///< current epoll interest mask
  bool close_after_flush = false;
  bool paused = false;      ///< EPOLLIN off due to output backpressure
  bool input_done = false;  ///< peer half-closed or server draining
  Clock::time_point deadline;
  // timer-wheel linkage
  Clock::time_point armed_deadline;  ///< deadline the wheel entry was set for
  std::size_t wheel_slot = kNoSlot;
  std::size_t wheel_index = 0;
  std::uint32_t wheel_rounds = 0;

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  explicit Conn(int f, std::size_t max_frame) : fd(f), decoder(max_frame) {}
};

namespace {

class TimerWheel {
 public:
  static constexpr int kTickMs = 10;
  static constexpr std::size_t kSlots = 256;  ///< 2.56 s per revolution

  explicit TimerWheel(Clock::time_point now) : start_(now) {}

  void schedule(Server::Conn* c, Clock::time_point now) {
    cancel(c);
    const auto delta_ms = std::max<std::int64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(c->deadline -
                                                              now)
            .count(),
        0);
    const std::uint64_t ticks = 1 + static_cast<std::uint64_t>(delta_ms) /
                                        static_cast<std::uint64_t>(kTickMs);
    const std::uint64_t abs_tick = tick_of(now) + ticks;
    const std::size_t slot = abs_tick % kSlots;
    c->armed_deadline = c->deadline;
    c->wheel_slot = slot;
    c->wheel_rounds = static_cast<std::uint32_t>(ticks / kSlots);
    c->wheel_index = slots_[slot].size();
    slots_[slot].push_back(c);
    ++count_;
  }

  void cancel(Server::Conn* c) {
    if (c->wheel_slot == Server::Conn::kNoSlot) return;
    auto& slot = slots_[c->wheel_slot];
    const std::size_t i = c->wheel_index;
    slot[i] = slot.back();
    slot[i]->wheel_index = i;
    slot.pop_back();
    c->wheel_slot = Server::Conn::kNoSlot;
    --count_;
  }

  /// Append every connection whose slot has come due to *fired (their
  /// wheel entries are removed; the caller validates the real deadline).
  void advance(Clock::time_point now, std::vector<Server::Conn*>* fired) {
    const std::uint64_t target = tick_of(now);
    while (cursor_ < target) {
      ++cursor_;
      auto& slot = slots_[cursor_ % kSlots];
      for (std::size_t i = 0; i < slot.size();) {
        Server::Conn* c = slot[i];
        if (c->wheel_rounds > 0) {
          --c->wheel_rounds;
          ++i;
          continue;
        }
        cancel(c);  // swap-erases slot[i]; do not advance i
        fired->push_back(c);
      }
    }
  }

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

 private:
  [[nodiscard]] std::uint64_t tick_of(Clock::time_point t) const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(t - start_)
            .count() /
        kTickMs);
  }

  std::vector<Server::Conn*> slots_[kSlots];
  std::uint64_t cursor_ = 0;
  Clock::time_point start_;
  std::size_t count_ = 0;
};

/// Move a connection's deadline `ms` from now. Lazy when it moves later
/// (the armed wheel entry fires early and re-arms for the remainder) but
/// eager when it moves earlier — shortening must reschedule, or a switch
/// from a long read deadline to a short write deadline would not take
/// effect until the stale entry fired.
void arm_deadline(TimerWheel& wheel, Server::Conn& c, int ms) {
  const auto now = Clock::now();
  c.deadline = now + std::chrono::milliseconds(ms);
  if (c.wheel_slot != Server::Conn::kNoSlot && c.deadline < c.armed_deadline) {
    wheel.schedule(&c, now);  // cancels the stale entry first
  }
}

}  // namespace

struct Server::Worker {
  unsigned id = 0;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  std::mutex mu;
  std::vector<int> incoming;       ///< fds handed off by the acceptor
  std::atomic<bool> shutdown{false};
  bool drain_seen = false;
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  TimerWheel wheel{Clock::now()};
  std::vector<Conn*> fired;
  std::vector<Answer> batch_scratch;

  ~Worker() {
    if (epoll_fd >= 0) ::close(epoll_fd);
    if (wake_fd >= 0) ::close(wake_fd);
  }

  void wake() const {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof one);
  }
};

// -- lifecycle -------------------------------------------------------------

Server::Server(GeoService& service, ServerConfig config)
    : service_(service), cfg_(config) {
  if (cfg_.workers == 0) cfg_.workers = 1;
  if (cfg_.max_frame_bytes < wire::kPayloadHeaderBytes) {
    cfg_.max_frame_bytes = wire::kPayloadHeaderBytes;
  }
}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  auto fail = [&](const char* what) {
    if (error) *error = std::string(what) + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    workers_.clear();
    return false;
  };
  if (running_.load(std::memory_order_acquire)) {
    if (error) *error = "server already running";
    return false;
  }
  draining_.store(false, std::memory_order_release);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  addr.sin_addr.s_addr =
      htonl(cfg_.loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, cfg_.listen_backlog) != 0) return fail("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  workers_.clear();
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->id = i;
    w->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (w->epoll_fd < 0) return fail("epoll_create1");
    w->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (w->wake_fd < 0) return fail("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // nullptr marks the wake fd
    if (::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->wake_fd, &ev) != 0) {
      return fail("epoll_ctl(wake)");
    }
    workers_.push_back(std::move(w));
  }

  running_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { worker_loop(*worker); });
  }
  acceptor_ = std::thread([this] { acceptor_loop(); });
  return true;
}

void Server::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  // Phase 1: stop accepting.
  draining_.store(true, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Phase 2: let workers flush queued replies, bounded by the drain
  // deadline (a client that refuses to drain cannot stall shutdown).
  for (auto& w : workers_) w->wake();
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(cfg_.drain_deadline_ms);
  while (open_conns_.load(std::memory_order_acquire) > 0 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Phase 3: hard stop.
  for (auto& w : workers_) {
    w->shutdown.store(true, std::memory_order_release);
    w->wake();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  workers_.clear();
  running_.store(false, std::memory_order_release);
}

// -- acceptor --------------------------------------------------------------

void Server::acceptor_loop() {
  // A pre-encoded OVERLOADED error frame, written best-effort to shed
  // connections so they learn *why* instead of seeing a silent close.
  std::vector<std::byte> overloaded_frame;
  wire::encode_error(overloaded_frame, 0, wire::ErrorCode::Overloaded);

  while (!draining_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 50);
    if (pr <= 0) continue;
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN, or a raced-away connection
      if (open_conns_.load(std::memory_order_acquire) >=
          cfg_.max_connections) {
        // Admission control: a typed reply, then close. The frame is 14
        // bytes — it fits any socket buffer, so the non-blocking send
        // only fails when the peer is already gone. Counted first, so a
        // client that has seen the reply also sees the count in stats().
        counters_.conns_shed.add();
        net_series().conns_shed.add();
        (void)::send(fd, overloaded_frame.data(), overloaded_frame.size(),
                     MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      counters_.conns_accepted.add();
      net_series().conns_accepted.add();
      open_conns_.fetch_add(1, std::memory_order_acq_rel);
      Worker& w = *workers_[next_worker_++ % workers_.size()];
      {
        const std::lock_guard<std::mutex> lock(w.mu);
        w.incoming.push_back(fd);
      }
      w.wake();
    }
  }
}

// -- worker ----------------------------------------------------------------

void Server::adopt_connections(Worker& w) {
  std::vector<int> fds;
  {
    const std::lock_guard<std::mutex> lock(w.mu);
    fds.swap(w.incoming);
  }
  const auto now = Clock::now();
  for (const int fd : fds) {
    if (draining_.load(std::memory_order_acquire)) {
      // Handed off just as the drain started: nothing was read yet, so a
      // plain close is the flush.
      ::close(fd);
      open_conns_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    auto conn = std::make_unique<Conn>(fd, cfg_.max_frame_bytes);
    Conn* c = conn.get();
    c->events = EPOLLIN;
    epoll_event ev{};
    ev.events = c->events;
    ev.data.ptr = c;
    if (::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      open_conns_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    c->deadline = now + std::chrono::milliseconds(cfg_.read_deadline_ms);
    w.wheel.schedule(c, now);
    w.conns.emplace(fd, std::move(conn));
  }
}

void Server::close_conn(Worker& w, Conn& c, bool deadline_expired) {
  w.wheel.cancel(&c);
  (void)::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, c.fd, nullptr);
  // Counted before the close, so a peer that has seen the EOF also sees
  // the count in stats().
  counters_.conns_closed.add();
  net_series().conns_closed.add();
  if (deadline_expired) {
    counters_.deadline_closed.add();
    net_series().deadline_closed.add();
  }
  ::close(c.fd);
  const std::size_t unsent = c.out.size() - c.out_pos;
  if (unsent > 0) {
    outstanding_bytes_.fetch_sub(unsent, std::memory_order_acq_rel);
  }
  const int fd = c.fd;
  open_conns_.fetch_sub(1, std::memory_order_acq_rel);
  w.conns.erase(fd);  // destroys c — must be last
}

void Server::enqueue_wrote(Worker&, Conn& c, std::size_t before) {
  const std::size_t delta = c.out.size() - before;
  if (delta > 0) {
    outstanding_bytes_.fetch_add(delta, std::memory_order_acq_rel);
  }
}

wire::InfoReply Server::build_info() const {
  wire::InfoReply info;
  const auto snap = service_.current();
  info.has_snapshot = snap != nullptr;
  info.draining = draining_.load(std::memory_order_acquire);
  if (snap) {
    info.dataset_version = snap->dataset_version();
    info.created_at_s = snap->created_at_s();
    info.entries = snap->size();
  }
  info.swaps = service_.stats().swaps;
  info.remeasure_depth = service_.remeasure_queue().size();
  info.remeasure_dropped = service_.remeasure_queue().dropped();
  return info;
}

wire::StatsReply Server::build_stats() const {
  const ServiceStats svc = service_.stats();
  wire::StatsReply s;
  s.lookups = svc.lookups;
  s.hits = svc.hits;
  s.misses = svc.misses;
  s.stale_hits = svc.stale_hits;
  s.swaps = svc.swaps;
  s.conns_accepted = counters_.conns_accepted.value();
  s.conns_shed = counters_.conns_shed.value();
  s.frames = counters_.frames.value();
  s.malformed = counters_.malformed.value();
  s.shed_requests = counters_.shed_requests.value();
  s.deadline_closed = counters_.deadline_closed.value();
  return s;
}

void Server::process_frame(Worker& w, Conn& c,
                           std::span<const std::byte> payload) {
  NetSeries& series = net_series();
  counters_.frames.add();
  series.frames.add();
  const auto t0 = Clock::now();

  wire::Request req;
  const wire::ParseStatus ps =
      wire::parse_request(payload, cfg_.max_batch, &req);
  const std::size_t before = c.out.size();
  switch (ps) {
    case wire::ParseStatus::Malformed:
      counters_.malformed.add();
      series.malformed.add();
      wire::encode_error(c.out, req.request_id, wire::ErrorCode::Malformed);
      break;
    case wire::ParseStatus::UnknownType:
      counters_.malformed.add();
      series.malformed.add();
      wire::encode_error(c.out, req.request_id, wire::ErrorCode::UnknownType);
      break;
    case wire::ParseStatus::BatchTooLarge:
      counters_.malformed.add();
      series.malformed.add();
      wire::encode_error(c.out, req.request_id,
                         wire::ErrorCode::BatchTooLarge);
      break;
    case wire::ParseStatus::Ok: {
      if (draining_.load(std::memory_order_acquire) &&
          (req.type == wire::MsgType::LookupReq ||
           req.type == wire::MsgType::BatchReq)) {
        wire::encode_error(c.out, req.request_id, wire::ErrorCode::Draining);
        break;
      }
      switch (req.type) {
        case wire::MsgType::LookupReq: {
          counters_.requests_lookup.add();
          series.req_lookup.add();
          if (outstanding_bytes_.load(std::memory_order_acquire) >
              cfg_.max_outstanding_bytes) {
            counters_.shed_requests.add();
            series.shed_requests.add();
            wire::encode_error(c.out, req.request_id,
                               wire::ErrorCode::Overloaded);
            break;
          }
          const Answer a = service_.lookup(req.address, req.now_s);
          wire::encode_lookup_reply(c.out, req.request_id, a);
          break;
        }
        case wire::MsgType::BatchReq: {
          counters_.requests_batch.add();
          series.req_batch.add();
          if (outstanding_bytes_.load(std::memory_order_acquire) >
              cfg_.max_outstanding_bytes) {
            counters_.shed_requests.add();
            series.shed_requests.add();
            wire::encode_error(c.out, req.request_id,
                               wire::ErrorCode::Overloaded);
            break;
          }
          w.batch_scratch.resize(req.addresses.size());
          service_.lookup_batch(req.addresses, req.now_s, w.batch_scratch);
          wire::encode_batch_reply(c.out, req.request_id, w.batch_scratch);
          break;
        }
        case wire::MsgType::InfoReq:
          counters_.requests_info.add();
          series.req_info.add();
          wire::encode_info_reply(c.out, req.request_id, build_info());
          break;
        case wire::MsgType::StatsReq:
          counters_.requests_stats.add();
          series.req_stats.add();
          wire::encode_stats_reply(c.out, req.request_id, build_stats());
          break;
        default:  // unreachable: parse_request only returns the four above
          wire::encode_error(c.out, req.request_id,
                             wire::ErrorCode::BadRequest);
          break;
      }
      break;
    }
  }
  enqueue_wrote(w, c, before);
  series.request_ms.observe(
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
}

void Server::handle_readable(Worker& w, Conn& c) {
  if (c.input_done) return;
  NetSeries& series = net_series();
  std::byte chunk[16384];
  bool progressed = false;
  for (;;) {
    const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      progressed = true;
      counters_.bytes_in.add(static_cast<std::uint64_t>(n));
      series.bytes_in.add(static_cast<std::uint64_t>(n));
      c.decoder.feed(
          std::span<const std::byte>(chunk, static_cast<std::size_t>(n)));
      // Process as we go so a fast pipelining client cannot balloon the
      // input buffer: frames are consumed chunk by chunk.
      std::span<const std::byte> payload;
      for (;;) {
        const auto st = c.decoder.next(&payload);
        if (st == wire::FrameDecoder::Status::Frame) {
          process_frame(w, c, payload);
          continue;
        }
        if (st == wire::FrameDecoder::Status::TooLarge) {
          counters_.malformed.add();
          series.malformed.add();
          const std::size_t before = c.out.size();
          wire::encode_error(c.out, 0, wire::ErrorCode::FrameTooLarge);
          enqueue_wrote(w, c, before);
          c.close_after_flush = true;
          c.input_done = true;
        }
        break;
      }
      if (c.input_done) break;
      // Backpressure: a client that pipelines requests faster than it
      // drains replies gets its reads paused, not an unbounded buffer.
      if (c.out.size() - c.out_pos > cfg_.max_output_queue_bytes) {
        c.paused = true;
        break;
      }
      continue;
    }
    if (n == 0) {  // orderly half-close: flush replies, then close
      c.input_done = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    // RST or similar: nothing more to send to this peer.
    close_conn(w, c);
    return;
  }
  if (progressed) {
    arm_deadline(w.wheel, c,
                 c.out.size() - c.out_pos > 0 ? cfg_.write_deadline_ms
                                              : cfg_.read_deadline_ms);
  }
  handle_writable(w, c);  // may close and free `c`
}

void Server::handle_writable(Worker& w, Conn& c) {
  NetSeries& series = net_series();
  const std::size_t flushed_from = c.out_pos;
  while (c.out_pos < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
      counters_.bytes_out.add(static_cast<std::uint64_t>(n));
      series.bytes_out.add(static_cast<std::uint64_t>(n));
      outstanding_bytes_.fetch_sub(static_cast<std::size_t>(n),
                                   std::memory_order_acq_rel);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_conn(w, c);  // peer vanished mid-write
    return;
  }

  std::uint32_t want = c.events;
  if (c.out_pos == c.out.size()) {
    c.out.clear();
    c.out_pos = 0;
    if (c.close_after_flush || c.input_done) {
      close_conn(w, c);
      return;
    }
    want &= ~static_cast<std::uint32_t>(EPOLLOUT);
    c.paused = false;
    // Back to the idle horizon: the write deadline only governs while a
    // flush is actually pending.
    arm_deadline(w.wheel, c, cfg_.read_deadline_ms);
    want |= EPOLLIN;
  } else {
    want |= EPOLLOUT;
    // Re-arm only on flush progress: a peer that stopped draining must
    // hit the write deadline no matter how often this path re-runs.
    if (c.out_pos > flushed_from) {
      arm_deadline(w.wheel, c, cfg_.write_deadline_ms);
    }
    if (c.paused &&
        c.out.size() - c.out_pos < cfg_.max_output_queue_bytes / 2) {
      c.paused = false;
      want |= EPOLLIN;
    } else if (c.paused || c.input_done) {
      want &= ~static_cast<std::uint32_t>(EPOLLIN);
    }
  }
  if (want != c.events) {
    c.events = want;
    epoll_event ev{};
    ev.events = want;
    ev.data.ptr = &c;
    (void)::epoll_ctl(w.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  }
}

void Server::check_deadlines(Worker& w) {
  const auto now = Clock::now();
  w.fired.clear();
  w.wheel.advance(now, &w.fired);
  for (Conn* c : w.fired) {
    if (now >= c->deadline) {
      close_conn(w, *c, /*deadline_expired=*/true);
    } else {
      w.wheel.schedule(c, now);  // deadline was bumped since arming
    }
  }
}

void Server::worker_loop(Worker& w) {
  std::vector<epoll_event> events(64);
  while (!w.shutdown.load(std::memory_order_acquire)) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining && !w.drain_seen) {
      // Drain entry: answer what is fully buffered, stop reading, flush.
      w.drain_seen = true;
      std::vector<Conn*> open;
      open.reserve(w.conns.size());
      for (auto& [fd, conn] : w.conns) open.push_back(conn.get());
      for (Conn* c : open) {
        c->input_done = true;
        handle_writable(w, *c);  // may close and free *c
      }
    }
    if (draining && w.conns.empty()) break;

    const int timeout_ms = w.wheel.empty() && !draining ? 100 : TimerWheel::kTickMs;
    const int n =
        ::epoll_wait(w.epoll_fd, events.data(),
                     static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone: shutting down
    }
    for (int i = 0; i < n; ++i) {
      Conn* c = static_cast<Conn*>(events[i].data.ptr);
      if (c == nullptr) {  // wake eventfd
        std::uint64_t tokens = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(w.wake_fd, &tokens, sizeof tokens);
        adopt_connections(w);
        continue;
      }
      const int fd = c->fd;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
          (events[i].events & EPOLLIN) == 0) {
        close_conn(w, *c);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        handle_readable(w, *c);  // may close and free *c
        if (w.conns.find(fd) == w.conns.end()) continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) handle_writable(w, *c);
    }
    check_deadlines(w);
  }
  // Hard stop: whatever could not be flushed in the drain window is cut.
  while (!w.conns.empty()) {
    close_conn(w, *w.conns.begin()->second);
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.conns_accepted = counters_.conns_accepted.value();
  s.conns_shed = counters_.conns_shed.value();
  s.conns_closed = counters_.conns_closed.value();
  s.deadline_closed = counters_.deadline_closed.value();
  s.frames = counters_.frames.value();
  s.malformed = counters_.malformed.value();
  s.shed_requests = counters_.shed_requests.value();
  s.requests_lookup = counters_.requests_lookup.value();
  s.requests_batch = counters_.requests_batch.value();
  s.requests_info = counters_.requests_info.value();
  s.requests_stats = counters_.requests_stats.value();
  s.bytes_in = counters_.bytes_in.value();
  s.bytes_out = counters_.bytes_out.value();
  return s;
}

}  // namespace geoloc::serve
