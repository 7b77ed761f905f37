#include "serve/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace geoloc::serve::wire {

using util::durable::PayloadReader;
using util::durable::PayloadWriter;

std::string_view to_string(ErrorCode c) noexcept {
  switch (c) {
    case ErrorCode::Malformed: return "malformed";
    case ErrorCode::FrameTooLarge: return "frame-too-large";
    case ErrorCode::UnknownType: return "unknown-type";
    case ErrorCode::BadRequest: return "bad-request";
    case ErrorCode::BatchTooLarge: return "batch-too-large";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::Draining: return "draining";
  }
  return "unknown-error";
}

// -- FrameDecoder ----------------------------------------------------------

void FrameDecoder::feed(std::span<const std::byte> bytes) {
  if (poisoned_) return;  // stream is dead, don't buffer unbounded garbage
  // Compact before growing: consumed bytes at the front are dead weight.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 4096)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

FrameDecoder::Status FrameDecoder::next(std::span<const std::byte>* payload) {
  if (poisoned_) return Status::TooLarge;
  if (buffered() < kFramePrefixBytes) return Status::NeedMore;
  std::uint32_t len = 0;
  std::memcpy(&len, buf_.data() + pos_, sizeof len);
  if (len > max_payload_) {
    poisoned_ = true;
    return Status::TooLarge;
  }
  if (buffered() < kFramePrefixBytes + len) return Status::NeedMore;
  *payload = std::span<const std::byte>(buf_.data() + pos_ + kFramePrefixBytes,
                                        len);
  pos_ += kFramePrefixBytes + len;
  return Status::Frame;
}

// -- encoding helpers ------------------------------------------------------

void append_frame(std::vector<std::byte>& out,
                  std::span<const std::byte> payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::size_t base = out.size();
  out.resize(base + kFramePrefixBytes + payload.size());
  std::memcpy(out.data() + base, &len, sizeof len);
  std::memcpy(out.data() + base + kFramePrefixBytes, payload.data(),
              payload.size());
}

namespace {

void payload_header(PayloadWriter& w, MsgType type, std::uint32_t request_id) {
  w.pod(static_cast<std::uint8_t>(type));
  w.pod(request_id);
}

std::vector<std::byte> frame_of(const PayloadWriter& w) {
  std::vector<std::byte> out;
  append_frame(out, w.data());
  return out;
}

void append_answer(PayloadWriter& w, const Answer& a) {
  std::uint8_t flags = 0;
  if (a.found) flags |= 1u;
  if (a.stale) flags |= 2u;
  w.pod(flags);
  w.pod(a.prefix.network().value());
  w.pod(static_cast<std::uint8_t>(a.prefix.length()));
  w.pod(static_cast<std::uint8_t>(a.method));
  w.pod(static_cast<std::uint8_t>(a.tier));
  w.pod(a.location.lat_deg);
  w.pod(a.location.lon_deg);
  w.pod(a.age_s);
  w.pod(a.confidence_radius_km);
  w.pod(a.dataset_version);
  const std::size_t n = std::min(a.provenance.size(), kMaxWireProvenance);
  w.pod(static_cast<std::uint8_t>(n));
  w.bytes(a.provenance.data(), n);
}

[[nodiscard]] bool read_answer(PayloadReader& r, WireAnswer* a) {
  std::uint8_t flags = 0;
  std::uint32_t network = 0;
  std::uint8_t prefix_len = 0;
  if (!r.pod(flags) || !r.pod(network) || !r.pod(prefix_len) ||
      !r.pod(a->method) || !r.pod(a->tier) || !r.pod(a->lat_deg) ||
      !r.pod(a->lon_deg) || !r.pod(a->age_s) ||
      !r.pod(a->confidence_radius_km) || !r.pod(a->dataset_version)) {
    return false;
  }
  if (prefix_len > 32) return false;
  a->found = (flags & 1u) != 0;
  a->stale = (flags & 2u) != 0;
  a->prefix = net::Prefix{net::IPv4Address{network}, prefix_len};
  std::uint8_t prov_len = 0;
  if (!r.pod(prov_len)) return false;
  a->provenance.resize(prov_len);
  return prov_len == 0 || r.bytes(a->provenance.data(), prov_len);
}

}  // namespace

// -- request encode/parse --------------------------------------------------

std::vector<std::byte> encode_lookup_request(std::uint32_t request_id,
                                             net::IPv4Address address,
                                             double now_s) {
  PayloadWriter w;
  payload_header(w, MsgType::LookupReq, request_id);
  w.pod(address.value());
  w.pod(now_s);
  return frame_of(w);
}

std::vector<std::byte> encode_batch_request(
    std::uint32_t request_id, std::span<const net::IPv4Address> addresses,
    double now_s) {
  PayloadWriter w;
  w.reserve(sizeof(std::uint8_t) + sizeof request_id + sizeof now_s +
            sizeof(std::uint32_t) + addresses.size() * sizeof(std::uint32_t));
  payload_header(w, MsgType::BatchReq, request_id);
  w.pod(now_s);
  w.pod(static_cast<std::uint32_t>(addresses.size()));
  for (const auto a : addresses) w.pod(a.value());
  return frame_of(w);
}

std::vector<std::byte> encode_info_request(std::uint32_t request_id) {
  PayloadWriter w;
  payload_header(w, MsgType::InfoReq, request_id);
  return frame_of(w);
}

std::vector<std::byte> encode_stats_request(std::uint32_t request_id) {
  PayloadWriter w;
  payload_header(w, MsgType::StatsReq, request_id);
  return frame_of(w);
}

ParseStatus parse_request(std::span<const std::byte> payload,
                          std::size_t max_batch, Request* out) {
  *out = Request{};
  PayloadReader r(payload);
  std::uint8_t type = 0;
  if (!r.pod(type) || !r.pod(out->request_id)) return ParseStatus::Malformed;
  switch (static_cast<MsgType>(type)) {
    case MsgType::LookupReq: {
      out->type = MsgType::LookupReq;
      std::uint32_t addr = 0;
      if (!r.pod(addr) || !r.pod(out->now_s) || !r.exhausted()) {
        return ParseStatus::Malformed;
      }
      out->address = net::IPv4Address{addr};
      return ParseStatus::Ok;
    }
    case MsgType::BatchReq: {
      out->type = MsgType::BatchReq;
      std::uint32_t count = 0;
      if (!r.pod(out->now_s) || !r.pod(count)) return ParseStatus::Malformed;
      // The declared count must match the bytes actually present before
      // any allocation happens — a lying header cannot size a vector.
      if (r.remaining() != static_cast<std::size_t>(count) * 4) {
        return ParseStatus::Malformed;
      }
      if (count > max_batch) return ParseStatus::BatchTooLarge;
      out->addresses.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t addr = 0;
        if (!r.pod(addr)) return ParseStatus::Malformed;
        out->addresses.emplace_back(addr);
      }
      return ParseStatus::Ok;
    }
    case MsgType::InfoReq:
      out->type = MsgType::InfoReq;
      return r.exhausted() ? ParseStatus::Ok : ParseStatus::Malformed;
    case MsgType::StatsReq:
      out->type = MsgType::StatsReq;
      return r.exhausted() ? ParseStatus::Ok : ParseStatus::Malformed;
    default:
      return ParseStatus::UnknownType;
  }
}

// -- reply encode/parse ----------------------------------------------------

void encode_error(std::vector<std::byte>& out, std::uint32_t request_id,
                  ErrorCode code) {
  PayloadWriter w;
  payload_header(w, MsgType::ErrorReply, request_id);
  w.pod(static_cast<std::uint8_t>(code));
  append_frame(out, w.data());
}

void encode_lookup_reply(std::vector<std::byte>& out,
                         std::uint32_t request_id, const Answer& answer) {
  PayloadWriter w;
  payload_header(w, MsgType::LookupReply, request_id);
  append_answer(w, answer);
  append_frame(out, w.data());
}

void encode_batch_reply(std::vector<std::byte>& out, std::uint32_t request_id,
                        std::span<const Answer> answers) {
  PayloadWriter w;
  payload_header(w, MsgType::BatchReply, request_id);
  w.pod(static_cast<std::uint32_t>(answers.size()));
  for (const Answer& a : answers) append_answer(w, a);
  append_frame(out, w.data());
}

void encode_info_reply(std::vector<std::byte>& out, std::uint32_t request_id,
                       const InfoReply& info) {
  PayloadWriter w;
  payload_header(w, MsgType::InfoReply, request_id);
  w.pod(static_cast<std::uint8_t>(info.has_snapshot ? 1 : 0));
  w.pod(static_cast<std::uint8_t>(info.draining ? 1 : 0));
  w.pod(info.dataset_version);
  w.pod(info.created_at_s);
  w.pod(info.entries);
  w.pod(info.swaps);
  w.pod(info.remeasure_depth);
  w.pod(info.remeasure_dropped);
  append_frame(out, w.data());
}

void encode_stats_reply(std::vector<std::byte>& out, std::uint32_t request_id,
                        const StatsReply& s) {
  PayloadWriter w;
  payload_header(w, MsgType::StatsReply, request_id);
  w.pod(s.lookups);
  w.pod(s.hits);
  w.pod(s.misses);
  w.pod(s.stale_hits);
  w.pod(s.swaps);
  w.pod(s.conns_accepted);
  w.pod(s.conns_shed);
  w.pod(s.frames);
  w.pod(s.malformed);
  w.pod(s.shed_requests);
  w.pod(s.deadline_closed);
  append_frame(out, w.data());
}

bool parse_reply(std::span<const std::byte> payload, Reply* out) {
  *out = Reply{};
  PayloadReader r(payload);
  std::uint8_t type = 0;
  if (!r.pod(type) || !r.pod(out->request_id)) return false;
  switch (static_cast<MsgType>(type)) {
    case MsgType::LookupReply:
      out->type = MsgType::LookupReply;
      return read_answer(r, &out->answer) && r.exhausted();
    case MsgType::BatchReply: {
      out->type = MsgType::BatchReply;
      std::uint32_t count = 0;
      if (!r.pod(count)) return false;
      // Bounded by the payload itself: each answer is >= 40 bytes.
      if (static_cast<std::size_t>(count) * 40 > r.remaining() + 40) {
        return false;
      }
      out->batch.resize(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        if (!read_answer(r, &out->batch[i])) return false;
      }
      return r.exhausted();
    }
    case MsgType::InfoReply: {
      out->type = MsgType::InfoReply;
      std::uint8_t has_snapshot = 0;
      std::uint8_t draining = 0;
      InfoReply& info = out->info;
      if (!r.pod(has_snapshot) || !r.pod(draining) ||
          !r.pod(info.dataset_version) || !r.pod(info.created_at_s) ||
          !r.pod(info.entries) || !r.pod(info.swaps) ||
          !r.pod(info.remeasure_depth) || !r.pod(info.remeasure_dropped) ||
          !r.exhausted()) {
        return false;
      }
      info.has_snapshot = has_snapshot != 0;
      info.draining = draining != 0;
      return true;
    }
    case MsgType::StatsReply: {
      out->type = MsgType::StatsReply;
      StatsReply& s = out->stats;
      return r.pod(s.lookups) && r.pod(s.hits) && r.pod(s.misses) &&
             r.pod(s.stale_hits) && r.pod(s.swaps) &&
             r.pod(s.conns_accepted) && r.pod(s.conns_shed) &&
             r.pod(s.frames) && r.pod(s.malformed) &&
             r.pod(s.shed_requests) && r.pod(s.deadline_closed) &&
             r.exhausted();
    }
    case MsgType::ErrorReply: {
      out->type = MsgType::ErrorReply;
      std::uint8_t code = 0;
      if (!r.pod(code) || !r.exhausted()) return false;
      out->error = static_cast<ErrorCode>(code);
      return true;
    }
    default:
      return false;
  }
}

// -- TcpClient -------------------------------------------------------------

TcpClient::~TcpClient() { close(); }

TcpClient::TcpClient(TcpClient&& other) noexcept
    : fd_(other.fd_), decoder_(std::move(other.decoder_)) {
  other.fd_ = -1;
}

TcpClient& TcpClient::operator=(TcpClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    decoder_ = std::move(other.decoder_);
    other.fd_ = -1;
  }
  return *this;
}

bool TcpClient::connect(std::uint16_t port, std::string* error) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (error) *error = std::string("connect: ") + std::strerror(errno);
    close();
    return false;
  }
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  decoder_ = FrameDecoder{};
  return true;
}

bool TcpClient::send_raw(std::span<const std::byte> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool TcpClient::send_frame(std::span<const std::byte> payload) {
  std::vector<std::byte> frame;
  append_frame(frame, payload);
  return send_raw(frame);
}

bool TcpClient::recv_reply(Reply* out, int timeout_ms, bool* eof) {
  if (eof) *eof = false;
  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::milliseconds(timeout_ms);
  std::byte chunk[16384];
  for (;;) {
    std::span<const std::byte> payload;
    const FrameDecoder::Status st = decoder_.next(&payload);
    if (st == FrameDecoder::Status::Frame) {
      return parse_reply(payload, out);
    }
    if (st == FrameDecoder::Status::TooLarge) return false;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) return false;
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n == 0) {
      if (eof) *eof = true;
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (eof) *eof = true;  // RST and friends count as closed
      return false;
    }
    decoder_.feed(std::span<const std::byte>(chunk,
                                             static_cast<std::size_t>(n)));
  }
}

bool TcpClient::recv_eof(int timeout_ms) {
  using clock = std::chrono::steady_clock;
  const auto deadline = clock::now() + std::chrono::milliseconds(timeout_ms);
  std::byte chunk[4096];
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) return false;
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n == 0) return true;
    if (n < 0) {
      if (errno == EINTR) continue;
      return true;  // connection error (e.g. RST) == closed
    }
    // Drain and discard pending replies until the close arrives.
  }
}

void TcpClient::shutdown_write() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_WR);
}

void TcpClient::reset() {
  if (fd_ < 0) return;
  linger lg{1, 0};
  (void)::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  close();
}

void TcpClient::close() {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
}

}  // namespace geoloc::serve::wire
