#include "comm/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/check.hpp"

namespace bnsgcn::comm {

namespace {

void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  const auto off = buf.size();
  buf.resize(off + sizeof(v));
  std::memcpy(buf.data() + off, &v, sizeof(v));
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  const auto off = buf.size();
  buf.resize(off + sizeof(v));
  std::memcpy(buf.data() + off, &v, sizeof(v));
}

template <typename T>
T get_pod(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  BNSGCN_CHECK(flags >= 0);
  BNSGCN_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

/// Blocking write of exactly n bytes (bootstrap hello only).
void write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      BNSGCN_CHECK_MSG(false, "bootstrap write failed");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

/// Blocking read of exactly n bytes (bootstrap hello only).
void read_exact(int fd, void* data, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r < 0 && errno == EINTR) continue;
    BNSGCN_CHECK_MSG(r > 0, "bootstrap read failed (peer closed early)");
    p += r;
    n -= static_cast<std::size_t>(r);
  }
}

struct ParsedTcp {
  in_addr host{};
  std::uint16_t port = 0;
};

ParsedTcp parse_tcp_addr(const std::string& addr) {
  const auto colon = addr.rfind(':');
  BNSGCN_CHECK_MSG(colon != std::string::npos, "tcp address needs host:port");
  ParsedTcp out;
  const std::string host = addr.substr(0, colon);
  BNSGCN_CHECK_MSG(::inet_pton(AF_INET, host.c_str(), &out.host) == 1,
                   "bad tcp host: " + host);
  const std::string port = addr.substr(colon + 1);
  BNSGCN_CHECK_MSG(
      !port.empty() && port.size() <= 5 &&
          port.find_first_not_of("0123456789") == std::string::npos,
      "bad tcp port: " + port);
  int value = 0;
  for (const char c : port) value = value * 10 + (c - '0');
  BNSGCN_CHECK_MSG(value <= 65535, "tcp port out of range: " + port);
  out.port = static_cast<std::uint16_t>(value);
  return out;
}

int dial(const SocketEndpoints& eps, PartId to) {
  const std::string& addr = eps.addrs[static_cast<std::size_t>(to)];
  // The listener is bound before any rank starts, so a refused connect
  // can only be transient scheduling noise — retry briefly.
  for (int attempt = 0;; ++attempt) {
    int fd = -1;
    int rc = -1;
    if (eps.kind == TransportKind::kUds) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      BNSGCN_CHECK(fd >= 0);
      sockaddr_un sa{};
      sa.sun_family = AF_UNIX;
      BNSGCN_CHECK_MSG(addr.size() < sizeof(sa.sun_path),
                       "uds path too long: " + addr);
      std::strncpy(sa.sun_path, addr.c_str(), sizeof(sa.sun_path) - 1);
      rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    } else {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      BNSGCN_CHECK(fd >= 0);
      const ParsedTcp t = parse_tcp_addr(addr);
      sockaddr_in sa{};
      sa.sin_family = AF_INET;
      sa.sin_addr = t.host;
      sa.sin_port = htons(t.port);
      rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    }
    if (rc == 0) return fd;
    const int err = errno;
    ::close(fd);
    BNSGCN_CHECK_MSG(
        (err == ECONNREFUSED || err == ENOENT || err == EAGAIN ||
         err == EINTR) && attempt < 5000,
        "connect to rank " + std::to_string(to) + " failed: " +
            std::strerror(err));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

} // namespace

std::vector<std::uint8_t> encode_frame(const Frame& f) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameHeaderBytes + f.payload.size());
  put_u32(out, kFrameMagic);
  put_u32(out, static_cast<std::uint32_t>(f.kind));
  put_u32(out, static_cast<std::uint32_t>(f.tag));
  put_u64(out, static_cast<std::uint64_t>(f.payload.size()));
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  return out;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

bool FrameDecoder::pop(Frame& out) {
  BNSGCN_REQUIRE(pos_ <= buf_.size(),
                 "decoder consumed past the end of its buffer");
  if (buf_.size() - pos_ < kFrameHeaderBytes) return false;
  const std::uint8_t* h = buf_.data() + pos_;
  const auto magic = get_pod<std::uint32_t>(h);
  BNSGCN_CHECK_MSG(magic == kFrameMagic, "corrupt frame header");
  const auto kind = get_pod<std::uint32_t>(h + 4);
  BNSGCN_CHECK_MSG(kind <= static_cast<std::uint32_t>(FrameKind::kHaloDelta),
                   "corrupt frame kind");
  const auto nbytes = get_pod<std::uint64_t>(h + 12);
  BNSGCN_CHECK_MSG(nbytes <= kMaxFramePayloadBytes,
                   "frame payload length " + std::to_string(nbytes) +
                       " exceeds kMaxFramePayloadBytes");
  // Compare against what follows the header: adding nbytes to the header
  // size could wrap.
  if (buffered() - kFrameHeaderBytes < nbytes) return false;
  out.kind = static_cast<FrameKind>(kind);
  out.tag = static_cast<int>(get_pod<std::uint32_t>(h + 8));
  out.payload.assign(h + kFrameHeaderBytes,
                     h + kFrameHeaderBytes + nbytes);
  pos_ += kFrameHeaderBytes + static_cast<std::size_t>(nbytes);
  // Compact once the consumed prefix dominates, keeping feed() amortised.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return true;
}

Frame wire_to_frame(const Wire& msg) {
  Frame f;
  f.tag = msg.tag;
  const std::size_t id_bytes = msg.ids.size() * sizeof(NodeId);
  const std::size_t float_bytes = msg.floats.size() * sizeof(float);
  switch (msg.kind) {
    case WireKind::kIds:
      f.kind = FrameKind::kIds;
      f.payload.resize(id_bytes);
      if (id_bytes > 0)
        std::memcpy(f.payload.data(), msg.ids.data(), id_bytes);
      break;
    case WireKind::kFloats:
      f.kind = FrameKind::kFloats;
      f.payload.resize(float_bytes);
      if (float_bytes > 0)
        std::memcpy(f.payload.data(), msg.floats.data(), float_bytes);
      break;
    case WireKind::kHaloDelta:
      // u64 index count, then the index list, then the rows — the only
      // frame carrying two payload vectors, so the count makes the split
      // explicit (the receiver must not infer it from the row width).
      f.kind = FrameKind::kHaloDelta;
      f.payload.reserve(sizeof(std::uint64_t) + id_bytes + float_bytes);
      put_u64(f.payload, static_cast<std::uint64_t>(msg.ids.size()));
      f.payload.resize(sizeof(std::uint64_t) + id_bytes + float_bytes);
      if (id_bytes > 0)
        std::memcpy(f.payload.data() + sizeof(std::uint64_t), msg.ids.data(),
                    id_bytes);
      if (float_bytes > 0)
        std::memcpy(f.payload.data() + sizeof(std::uint64_t) + id_bytes,
                    msg.floats.data(), float_bytes);
      break;
  }
  return f;
}

Wire frame_to_wire(Frame f) {
  Wire msg;
  msg.tag = f.tag;
  if (f.kind == FrameKind::kIds) {
    msg.kind = WireKind::kIds;
    msg.ids.resize(f.payload.size() / sizeof(NodeId));
    if (!f.payload.empty())
      std::memcpy(msg.ids.data(), f.payload.data(), f.payload.size());
  } else if (f.kind == FrameKind::kHaloDelta) {
    msg.kind = WireKind::kHaloDelta;
    BNSGCN_CHECK(f.payload.size() >= sizeof(std::uint64_t));
    const auto nids = get_pod<std::uint64_t>(f.payload.data());
    const std::size_t id_bytes =
        static_cast<std::size_t>(nids) * sizeof(NodeId);
    BNSGCN_CHECK(f.payload.size() >= sizeof(std::uint64_t) + id_bytes);
    const std::size_t float_bytes =
        f.payload.size() - sizeof(std::uint64_t) - id_bytes;
    msg.ids.resize(static_cast<std::size_t>(nids));
    msg.floats.resize(float_bytes / sizeof(float));
    if (id_bytes > 0)
      std::memcpy(msg.ids.data(), f.payload.data() + sizeof(std::uint64_t),
                  id_bytes);
    if (float_bytes > 0)
      std::memcpy(msg.floats.data(),
                  f.payload.data() + sizeof(std::uint64_t) + id_bytes,
                  float_bytes);
  } else {
    BNSGCN_CHECK(f.kind == FrameKind::kFloats);
    msg.kind = WireKind::kFloats;
    msg.floats.resize(f.payload.size() / sizeof(float));
    if (!f.payload.empty())
      std::memcpy(msg.floats.data(), f.payload.data(), f.payload.size());
  }
  return msg;
}

SocketTransport::SocketTransport(PartId rank, const SocketEndpoints& eps,
                                 int listen_fd)
    : rank_(rank),
      nranks_(static_cast<PartId>(eps.addrs.size())),
      eps_(eps) {
  BNSGCN_CHECK(nranks_ >= 1 && rank_ >= 0 && rank_ < nranks_);
  peers_.resize(static_cast<std::size_t>(nranks_));
  connect_all(listen_fd);
}

void SocketTransport::connect_all(int listen_fd) {
  // Dial every rank below us; each connection opens with our rank hello.
  for (PartId j = 0; j < rank_; ++j) {
    const int fd = dial(eps_, j);
    const auto hello = static_cast<std::uint32_t>(rank_);
    write_all(fd, &hello, sizeof(hello));
    peers_[static_cast<std::size_t>(j)].fd = fd;
  }
  // Accept every rank above us; their hello says which peer slot.
  for (PartId k = rank_ + 1; k < nranks_; ++k) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    BNSGCN_CHECK_MSG(fd >= 0, "accept failed during bootstrap");
    std::uint32_t hello = 0;
    read_exact(fd, &hello, sizeof(hello));
    const auto from = static_cast<PartId>(hello);
    BNSGCN_CHECK(from > rank_ && from < nranks_);
    BNSGCN_CHECK(peers_[static_cast<std::size_t>(from)].fd < 0);
    peers_[static_cast<std::size_t>(from)].fd = fd;
  }
  if (listen_fd >= 0) ::close(listen_fd);
  for (auto& p : peers_) {
    if (p.fd < 0) continue;
    set_nonblocking(p.fd);
    if (eps_.kind == TransportKind::kTcp) {
      const int one = 1;
      ::setsockopt(p.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }
}

SocketTransport::~SocketTransport() {
  // Graceful teardown: our final sends may still sit in the user-space
  // queue (a peer's collective ack, the last halo slab); push them out —
  // bounded, so a dead peer cannot wedge destruction — then close.
  try {
    // lint: allow(raw-clock) — teardown flush deadline; never observed by
    // numeric state, only bounds how long destruction may block.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
      bool dirty = false;
      for (const auto& p : peers_)
        if (p.fd >= 0 && !p.eof && !p.sendq.empty()) dirty = true;
      if (!dirty || stopped_) break;
      // lint: allow(raw-clock) — same teardown deadline as above.
      if (std::chrono::steady_clock::now() > deadline) break;
      progress(50);
    }
  } catch (...) {
    // Teardown must not throw; unflushed bytes surface as the peer's
    // ShutdownError, which is the best available signal anyway.
  }
  for (auto& p : peers_) {
    if (p.fd >= 0) ::close(p.fd);
    p.fd = -1;
  }
}

void SocketTransport::check_alive() const {
  if (stopped_) throw ShutdownError("socket fabric shut down");
}

void SocketTransport::read_peer(Peer& p) {
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(p.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      p.decoder.feed(buf, static_cast<std::size_t>(n));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) { // orderly peer close
      p.eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    p.eof = true; // hard error: treat as disconnect
    break;
  }
  Frame f;
  while (p.decoder.pop(f)) p.inbox.push_back(std::move(f));
}

void SocketTransport::flush_peer(Peer& p) {
  while (!p.sendq.empty()) {
    const auto& front = p.sendq.front();
    BNSGCN_REQUIRE(p.send_off < front.size(),
                   "send cursor at or past the frame end");
    const ssize_t w = ::send(p.fd, front.data() + p.send_off,
                             front.size() - p.send_off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      p.eof = true; // EPIPE etc: peer is gone, nothing more to write
      p.sendq.clear();
      p.send_off = 0;
      return;
    }
    p.send_off += static_cast<std::size_t>(w);
    if (p.send_off == front.size()) {
      p.sendq.pop_front();
      p.send_off = 0;
    }
  }
}

void SocketTransport::progress(int timeout_ms) {
  std::vector<pollfd> pfds;
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    Peer& p = peers_[i];
    if (p.fd < 0) continue;
    short events = 0;
    if (!p.eof) events |= POLLIN;
    if (!p.sendq.empty()) events |= POLLOUT;
    if (events == 0) continue;
    pfds.push_back(pollfd{.fd = p.fd, .events = events, .revents = 0});
    idx.push_back(i);
  }
  if (pfds.empty()) return;
  const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                        timeout_ms);
  if (rc < 0) {
    BNSGCN_CHECK(errno == EINTR);
    return;
  }
  if (rc == 0) return;
  for (std::size_t k = 0; k < pfds.size(); ++k) {
    Peer& p = peers_[idx[k]];
    const short re = pfds[k].revents;
    if (re & (POLLIN | POLLHUP | POLLERR)) read_peer(p);
    if ((re & POLLOUT) && !p.eof) flush_peer(p);
  }
}

void SocketTransport::send_frame(PartId to, Frame f) {
  check_alive();
  BNSGCN_CHECK(to >= 0 && to < nranks_ && to != rank_);
  BNSGCN_REQUIRE(f.tag != -1, "tag -1 belongs to no tag space");
  Peer& p = peers_[static_cast<std::size_t>(to)];
  if (p.eof || p.fd < 0)
    throw ShutdownError("rank " + std::to_string(rank_) +
                        ": peer rank " + std::to_string(to) +
                        " disconnected");
  p.sendq.push_back(encode_frame(f));
  flush_peer(p); // opportunistic; leftovers drain in progress()
}

bool SocketTransport::take_from_inbox(Peer& p, int tag, Frame& out) {
  const auto it =
      std::find_if(p.inbox.begin(), p.inbox.end(),
                   [tag](const Frame& f) { return f.tag == tag; });
  if (it == p.inbox.end()) return false;
  out = std::move(*it);
  p.inbox.erase(it);
  return true;
}

Frame SocketTransport::recv_frame(PartId from, int tag) {
  BNSGCN_CHECK(from >= 0 && from < nranks_ && from != rank_);
  // Tag spaces: point-to-point tags are non-negative (trainer sequence),
  // collective tags are <= -2 (next_coll_tag); -1 matches neither.
  BNSGCN_REQUIRE(tag != -1, "tag -1 belongs to no tag space");
  Peer& p = peers_[static_cast<std::size_t>(from)];
  Frame out;
  for (;;) {
    check_alive();
    if (take_from_inbox(p, tag, out)) return out;
    if (p.eof)
      throw ShutdownError("rank " + std::to_string(rank_) +
                          ": peer rank " + std::to_string(from) +
                          " disconnected with receives outstanding");
    // Blocks until any peer has events; also flushes our pending writes,
    // so a blocking receive can never starve the sends a peer needs to
    // make matching traffic.
    progress(-1);
  }
}

void SocketTransport::send(PartId from, PartId to, Wire msg) {
  BNSGCN_CHECK(from == rank_);
  send_frame(to, wire_to_frame(msg));
}

bool SocketTransport::try_recv(PartId rank, PartId from, int tag, Wire& out) {
  check_alive();
  BNSGCN_CHECK(rank == rank_);
  BNSGCN_CHECK(from >= 0 && from < nranks_ && from != rank_);
  Peer& p = peers_[static_cast<std::size_t>(from)];
  Frame f;
  if (take_from_inbox(p, tag, f)) {
    out = frame_to_wire(std::move(f));
    return true;
  }
  progress(0);
  if (take_from_inbox(p, tag, f)) {
    out = frame_to_wire(std::move(f));
    return true;
  }
  if (p.eof)
    throw ShutdownError("rank " + std::to_string(rank_) + ": peer rank " +
                        std::to_string(from) +
                        " disconnected with receives outstanding");
  return false;
}

Wire SocketTransport::recv(PartId rank, PartId from, int tag) {
  BNSGCN_CHECK(rank == rank_);
  return frame_to_wire(recv_frame(from, tag));
}

void SocketTransport::barrier(PartId rank) {
  BNSGCN_CHECK(rank == rank_);
  const int tag = next_coll_tag();
  // Hub barrier on rank 0: gather a ping from everyone, then release
  // everyone. Two hops, no fan-in races, deterministic.
  if (rank_ == 0) {
    for (PartId j = 1; j < nranks_; ++j) (void)recv_frame(j, tag);
    for (PartId j = 1; j < nranks_; ++j)
      send_frame(j, Frame{.kind = FrameKind::kEmpty, .tag = tag, .payload = {}});
  } else {
    send_frame(0, Frame{.kind = FrameKind::kEmpty, .tag = tag, .payload = {}});
    (void)recv_frame(0, tag);
  }
}

void SocketTransport::allreduce_sum(PartId rank, std::span<float> data) {
  BNSGCN_CHECK(rank == rank_);
  const int tag = next_coll_tag();
  Frame f;
  f.kind = FrameKind::kFloats;
  f.tag = tag;
  f.payload.resize(data.size() * sizeof(float));
  if (!f.payload.empty())
    std::memcpy(f.payload.data(), data.data(), f.payload.size());
  for (PartId j = 0; j < nranks_; ++j)
    if (j != rank_) send_frame(j, f);
  // Fold peers in ascending rank order skipping self — identical
  // reduction order to the mailbox backend, so sums are bit-equal.
  for (PartId j = 0; j < nranks_; ++j) {
    if (j == rank_) continue;
    const Frame r = recv_frame(j, tag);
    BNSGCN_CHECK(r.payload.size() == data.size() * sizeof(float));
    const auto* other = reinterpret_cast<const float*>(r.payload.data());
    for (std::size_t i = 0; i < data.size(); ++i) data[i] += other[i];
  }
}

double SocketTransport::allreduce_sum_scalar(PartId rank, double value) {
  BNSGCN_CHECK(rank == rank_);
  const int tag = next_coll_tag();
  Frame f;
  f.kind = FrameKind::kDoubles;
  f.tag = tag;
  f.payload.resize(sizeof(double));
  std::memcpy(f.payload.data(), &value, sizeof(double));
  for (PartId j = 0; j < nranks_; ++j)
    if (j != rank_) send_frame(j, f);
  // Mirror the mailbox slot fold: every contribution lands in a
  // rank-indexed slot and the sum runs over slots in rank order, self
  // included — the addition order is identical on every rank.
  std::vector<double> slots(static_cast<std::size_t>(nranks_), 0.0);
  slots[static_cast<std::size_t>(rank_)] = value;
  for (PartId j = 0; j < nranks_; ++j) {
    if (j == rank_) continue;
    const Frame r = recv_frame(j, tag);
    BNSGCN_CHECK(r.payload.size() == sizeof(double));
    std::memcpy(&slots[static_cast<std::size_t>(j)], r.payload.data(),
                sizeof(double));
  }
  double sum = 0.0;
  for (const double v : slots) sum += v;
  return sum;
}

double SocketTransport::allreduce_max_scalar(PartId rank, double value) {
  BNSGCN_CHECK(rank == rank_);
  const int tag = next_coll_tag();
  Frame f;
  f.kind = FrameKind::kDoubles;
  f.tag = tag;
  f.payload.resize(sizeof(double));
  std::memcpy(f.payload.data(), &value, sizeof(double));
  for (PartId j = 0; j < nranks_; ++j)
    if (j != rank_) send_frame(j, f);
  std::vector<double> slots(static_cast<std::size_t>(nranks_), 0.0);
  slots[static_cast<std::size_t>(rank_)] = value;
  for (PartId j = 0; j < nranks_; ++j) {
    if (j == rank_) continue;
    const Frame r = recv_frame(j, tag);
    BNSGCN_CHECK(r.payload.size() == sizeof(double));
    std::memcpy(&slots[static_cast<std::size_t>(j)], r.payload.data(),
                sizeof(double));
  }
  double mx = slots[0];
  for (const double v : slots) mx = std::max(mx, v);
  return mx;
}

std::vector<std::vector<NodeId>> SocketTransport::allgather_ids(
    PartId rank, std::vector<NodeId> ids) {
  BNSGCN_CHECK(rank == rank_);
  const int tag = next_coll_tag();
  Frame f;
  f.kind = FrameKind::kIds;
  f.tag = tag;
  f.payload.resize(ids.size() * sizeof(NodeId));
  if (!f.payload.empty())
    std::memcpy(f.payload.data(), ids.data(), f.payload.size());
  for (PartId j = 0; j < nranks_; ++j)
    if (j != rank_) send_frame(j, f);
  std::vector<std::vector<NodeId>> out(static_cast<std::size_t>(nranks_));
  out[static_cast<std::size_t>(rank_)] = std::move(ids);
  for (PartId j = 0; j < nranks_; ++j) {
    if (j == rank_) continue;
    Frame r = recv_frame(j, tag);
    auto& slot = out[static_cast<std::size_t>(j)];
    slot.resize(r.payload.size() / sizeof(NodeId));
    if (!r.payload.empty())
      std::memcpy(slot.data(), r.payload.data(), r.payload.size());
  }
  return out;
}

std::vector<std::vector<double>> SocketTransport::allgather_doubles(
    PartId rank, const std::vector<double>& vals) {
  BNSGCN_CHECK(rank == rank_);
  const int tag = next_coll_tag();
  Frame f;
  f.kind = FrameKind::kDoubles;
  f.tag = tag;
  f.payload.resize(vals.size() * sizeof(double));
  if (!f.payload.empty())
    std::memcpy(f.payload.data(), vals.data(), f.payload.size());
  for (PartId j = 0; j < nranks_; ++j)
    if (j != rank_) send_frame(j, f);
  std::vector<std::vector<double>> out(static_cast<std::size_t>(nranks_));
  out[static_cast<std::size_t>(rank_)] = vals;
  for (PartId j = 0; j < nranks_; ++j) {
    if (j == rank_) continue;
    Frame r = recv_frame(j, tag);
    auto& slot = out[static_cast<std::size_t>(j)];
    slot.resize(r.payload.size() / sizeof(double));
    if (!r.payload.empty())
      std::memcpy(slot.data(), r.payload.data(), r.payload.size());
  }
  return out;
}

void SocketTransport::shutdown(PartId /*rank*/) {
  stopped_ = true;
  for (auto& p : peers_) {
    if (p.fd >= 0) ::close(p.fd);
    p.fd = -1;
    p.eof = true;
    p.sendq.clear();
    p.send_off = 0;
  }
}

} // namespace bnsgcn::comm
