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
#include <exception>
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

OutFrame::OutFrame(Message m) : msg(std::move(m)) {
  const std::size_t id_bytes = msg.ids.size() * sizeof(NodeId);
  const std::size_t float_bytes = msg.floats.size() * sizeof(float);
  const std::size_t double_bytes = msg.doubles.size() * sizeof(double);
  // kHaloDelta leads its payload with a u64 index count — the only frame
  // carrying two payload vectors, so the count makes the split explicit
  // (the receiver must not infer it from the row width).
  const bool delta = msg.kind == FrameKind::kHaloDelta;
  if (delta) head_len += sizeof(std::uint64_t);
  const auto payload = static_cast<std::uint64_t>(
      head_len - kFrameHeaderBytes + id_bytes + float_bytes + double_bytes);
  const std::uint32_t words[3] = {kFrameMagic,
                                  static_cast<std::uint32_t>(msg.kind),
                                  static_cast<std::uint32_t>(msg.tag)};
  std::memcpy(head, words, sizeof(words));
  std::memcpy(head + 12, &payload, sizeof(payload));
  if (delta) {
    const auto nids = static_cast<std::uint64_t>(msg.ids.size());
    std::memcpy(head + kFrameHeaderBytes, &nids, sizeof(nids));
  }
  bytes = kFrameHeaderBytes + static_cast<std::size_t>(payload);
}

int OutFrame::iov_from(std::size_t off, iovec* iov) const {
  const std::pair<const void*, std::size_t> segs[4] = {
      {head, head_len},
      {msg.ids.data(), msg.ids.size() * sizeof(NodeId)},
      {msg.floats.data(), msg.floats.size() * sizeof(float)},
      {msg.doubles.data(), msg.doubles.size() * sizeof(double)},
  };
  int n = 0;
  for (const auto& [base, len] : segs) {
    if (off >= len) {
      off -= len;
      continue;
    }
    iov[n++] = iovec{
        .iov_base = const_cast<std::uint8_t*>(
            static_cast<const std::uint8_t*>(base) + off),
        .iov_len = len - off};
    off = 0;
  }
  return n;
}

namespace {

/// The payload bytes of a frame as its iovecs lay them out (byte views).
std::vector<std::uint8_t> payload_bytes(const OutFrame& f) {
  iovec iov[4];
  const int n = f.iov_from(kFrameHeaderBytes, iov);
  std::vector<std::uint8_t> out;
  for (int i = 0; i < n; ++i) {
    const auto* b = static_cast<const std::uint8_t*>(iov[i].iov_base);
    out.insert(out.end(), b, b + iov[i].iov_len);
  }
  return out;
}

/// Validate a complete 20-byte header: magic, kind, the length cap, and a
/// length that is a whole number of the kind's elements (kHaloDelta: a
/// u64 index count, then NodeIds and floats, both 4 bytes wide).
void check_header(const std::uint8_t* h) {
  BNSGCN_CHECK_MSG(get_pod<std::uint32_t>(h) == kFrameMagic,
                   "corrupt frame header");
  const auto kind = get_pod<std::uint32_t>(h + 4);
  BNSGCN_CHECK_MSG(kind <= static_cast<std::uint32_t>(FrameKind::kHaloDelta),
                   "corrupt frame kind");
  const auto nbytes = get_pod<std::uint64_t>(h + 12);
  BNSGCN_CHECK_MSG(nbytes <= kMaxFramePayloadBytes,
                   "frame payload length " + std::to_string(nbytes) +
                       " exceeds kMaxFramePayloadBytes");
  bool whole = false;
  switch (static_cast<FrameKind>(kind)) {
    case FrameKind::kFloats: whole = nbytes % sizeof(float) == 0; break;
    case FrameKind::kIds: whole = nbytes % sizeof(NodeId) == 0; break;
    case FrameKind::kDoubles: whole = nbytes % sizeof(double) == 0; break;
    case FrameKind::kEmpty: whole = nbytes == 0; break;
    case FrameKind::kHaloDelta:
      static_assert(sizeof(NodeId) == sizeof(float));
      whole = nbytes >= sizeof(std::uint64_t) &&
              (nbytes - sizeof(std::uint64_t)) % sizeof(float) == 0;
      break;
  }
  BNSGCN_CHECK_MSG(whole, "frame payload length " + std::to_string(nbytes) +
                              " is not a whole number of its kind's elements");
}

/// Bytes a payload vector is first sized to: every real message (a halo
/// slab is a few MiB) is sized exactly once from its header, while a
/// hostile length up to kMaxFramePayloadBytes only grows its vector
/// (doubling) as bytes actually arrive.
constexpr std::size_t kSizeOnceBytes = std::size_t{16} << 20;

} // namespace

void FrameDecoder::start_payload() {
  const std::uint8_t* h = head_;
  const auto nbytes = get_pod<std::uint64_t>(h + 12);
  cur_ = Message{};
  cur_.kind = static_cast<FrameKind>(get_pod<std::uint32_t>(h + 4));
  cur_.tag = static_cast<int>(get_pod<std::uint32_t>(h + 8));
  nsegs_ = 0;
  seg_ = 0;
  const auto add = [this](Vec vec, std::uint64_t len) {
    if (len > 0)
      segs_[nsegs_++] = Segment{.vec = vec,
                                .total = static_cast<std::size_t>(len),
                                .got = 0,
                                .alloc = 0};
  };
  switch (cur_.kind) {
    case FrameKind::kFloats: add(Vec::kFloats, nbytes); break;
    case FrameKind::kIds: add(Vec::kIds, nbytes); break;
    case FrameKind::kDoubles: add(Vec::kDoubles, nbytes); break;
    case FrameKind::kEmpty: break;
    case FrameKind::kHaloDelta: {
      const auto nids = get_pod<std::uint64_t>(h + kFrameHeaderBytes);
      const std::uint64_t rest = nbytes - sizeof(std::uint64_t);
      BNSGCN_CHECK_MSG(nids <= rest / sizeof(NodeId),
                       "halo delta frame index count " +
                           std::to_string(nids) + " exceeds its payload");
      add(Vec::kIds, nids * sizeof(NodeId));
      add(Vec::kFloats, rest - nids * sizeof(NodeId));
      break;
    }
  }
  in_payload_ = true;
  if (nsegs_ == 0) advance(0);
}

namespace {

/// Size `v` to the segment's allocation and return its unwritten bytes.
template <typename T>
std::span<std::uint8_t> unwritten(std::vector<T>& v, std::size_t alloc,
                                  std::size_t got) {
  v.resize(alloc / sizeof(T));
  return {reinterpret_cast<std::uint8_t*>(v.data()) + got, alloc - got};
}

} // namespace

std::span<std::uint8_t> FrameDecoder::room() {
  Segment& s = segs_[seg_];
  if (s.got == s.alloc)
    s.alloc = std::min(s.total, std::max(kSizeOnceBytes, 2 * s.alloc));
  switch (s.vec) {
    case Vec::kIds: return unwritten(cur_.ids, s.alloc, s.got);
    case Vec::kFloats: return unwritten(cur_.floats, s.alloc, s.got);
    case Vec::kDoubles: break;
  }
  return unwritten(cur_.doubles, s.alloc, s.got);
}

void FrameDecoder::advance(std::size_t n) {
  BNSGCN_REQUIRE(in_payload_, "payload bytes outside a frame");
  if (nsegs_ > 0) {
    Segment& s = segs_[seg_];
    BNSGCN_REQUIRE(s.got + n <= s.alloc, "payload write past its vector");
    s.got += n;
    if (s.got < s.total || ++seg_ < nsegs_) return;
  }
  std::size_t frame_bytes = head_len_;
  for (std::size_t i = 0; i < nsegs_; ++i) frame_bytes += segs_[i].total;
  ready_.emplace_back(std::move(cur_), frame_bytes);
  in_payload_ = false;
  head_len_ = 0;
  head_need_ = kFrameHeaderBytes;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  if (error_) return; // the stream is corrupt; pop() reports it
  buffered_ += n;
  try {
    consume(data, n);
  } catch (const CheckError&) {
    error_ = std::current_exception();
  }
}

void FrameDecoder::consume(const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    if (!in_payload_) {
      const std::size_t take = std::min(n, head_need_ - head_len_);
      std::memcpy(head_ + head_len_, data, take);
      head_len_ += take;
      data += take;
      n -= take;
      if (head_len_ < head_need_) return;
      if (head_len_ == kFrameHeaderBytes) {
        check_header(head_);
        // kHaloDelta's index count sizes its two vectors: wait for it.
        if (static_cast<FrameKind>(get_pod<std::uint32_t>(head_ + 4)) ==
            FrameKind::kHaloDelta) {
          head_need_ += sizeof(std::uint64_t);
          continue;
        }
      }
      start_payload();
      continue;
    }
    const auto dst = room();
    const std::size_t take = std::min(n, dst.size());
    std::memcpy(dst.data(), data, take);
    data += take;
    n -= take;
    advance(take);
  }
}

std::span<std::uint8_t> FrameDecoder::direct() {
  if (!in_payload_) return {};
  std::size_t left = 0;
  for (std::size_t i = seg_; i < nsegs_; ++i)
    left += segs_[i].total - segs_[i].got;
  if (left < kStageBytes) return {};
  return room();
}

void FrameDecoder::commit(std::size_t n) {
  buffered_ += n;
  advance(n);
}

bool FrameDecoder::pop(Message& out) {
  if (ready_.empty()) {
    if (error_) std::rethrow_exception(error_);
    return false;
  }
  out = std::move(ready_.front().first);
  buffered_ -= ready_.front().second;
  ready_.pop_front();
  return true;
}

bool FrameDecoder::pop(Frame& out) {
  Message m;
  if (!pop(m)) return false;
  out.kind = m.kind;
  out.tag = m.tag;
  out.payload = payload_bytes(OutFrame(std::move(m)));
  return true;
}

Message to_message(Wire w) {
  Message m;
  m.tag = w.tag;
  switch (w.kind) {
    case WireKind::kFloats: m.kind = FrameKind::kFloats; break;
    case WireKind::kIds: m.kind = FrameKind::kIds; break;
    case WireKind::kHaloDelta: m.kind = FrameKind::kHaloDelta; break;
  }
  m.floats = std::move(w.floats);
  m.ids = std::move(w.ids);
  return m;
}

Wire to_wire(Message m) {
  Wire w;
  w.tag = m.tag;
  switch (m.kind) {
    case FrameKind::kIds: w.kind = WireKind::kIds; break;
    case FrameKind::kHaloDelta: w.kind = WireKind::kHaloDelta; break;
    default:
      BNSGCN_CHECK_MSG(m.kind == FrameKind::kFloats,
                       "point-to-point frame of a collective kind");
      w.kind = WireKind::kFloats;
      break;
  }
  w.floats = std::move(m.floats);
  w.ids = std::move(m.ids);
  return w;
}

Frame wire_to_frame(const Wire& msg) {
  const OutFrame f(to_message(msg));
  return Frame{.kind = f.msg.kind, .tag = f.msg.tag,
               .payload = payload_bytes(f)};
}

Wire frame_to_wire(const Frame& f) {
  const auto bytes = encode_frame(f);
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Message m;
  BNSGCN_CHECK_MSG(dec.pop(m), "truncated frame");
  return to_wire(std::move(m));
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

void SocketTransport::drop(Peer& p) {
  // The peer is gone: reads are over, and what is still queued to it can
  // never be written — its waiters see the eof and name the peer.
  p.eof = true;
  p.sendq.clear();
  p.send_off = 0;
}

void SocketTransport::read_peer(Peer& p) {
  std::uint8_t stage[FrameDecoder::kStageBytes];
  for (;;) {
    // A large payload's rest goes straight into its own vector; small
    // frames (and the tail of a large one) come through the stage.
    const std::span<std::uint8_t> direct = p.decoder.direct();
    const std::size_t want = direct.empty() ? sizeof(stage) : direct.size();
    const ssize_t n =
        ::recv(p.fd, direct.empty() ? stage : direct.data(), want, 0);
    if (n > 0) {
      if (direct.empty())
        p.decoder.feed(stage, static_cast<std::size_t>(n));
      else
        p.decoder.commit(static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < want) break; // socket drained
      continue;
    }
    if (n == 0) { // orderly peer close
      drop(p);
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    drop(p); // hard error: treat as disconnect
    break;
  }
  Message m;
  while (p.decoder.pop(m)) p.inbox.push_back(std::move(m));
}

void SocketTransport::flush_peer(Peer& p) {
  while (!p.sendq.empty()) {
    const OutFrame& front = p.sendq.front();
    BNSGCN_REQUIRE(p.send_off < front.bytes,
                   "send cursor at or past the frame end");
    iovec iov[4];
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = static_cast<std::size_t>(front.iov_from(p.send_off, iov));
    const ssize_t w = ::sendmsg(p.fd, &mh, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      drop(p); // EPIPE etc: peer is gone, nothing more to write
      return;
    }
    p.send_off += static_cast<std::size_t>(w);
    if (p.send_off == front.bytes) {
      p.sendq.pop_front();
      p.send_off = 0;
      ++p.written;
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

void SocketTransport::await_progress(PartId rank, int /*idle_passes*/) {
  BNSGCN_CHECK(rank == rank_);
  check_alive();
  progress(kProgressWaitMs);
}

std::uint64_t SocketTransport::send_frame(PartId to, Message m) {
  check_alive();
  BNSGCN_CHECK(to >= 0 && to < nranks_ && to != rank_);
  BNSGCN_REQUIRE(m.tag != -1, "tag -1 belongs to no tag space");
  Peer& p = peers_[static_cast<std::size_t>(to)];
  if (p.eof || p.fd < 0)
    throw ShutdownError("rank " + std::to_string(rank_) +
                        ": peer rank " + std::to_string(to) +
                        " disconnected");
  p.sendq.emplace_back(std::move(m));
  const std::uint64_t ticket = ++p.posted;
  // Write what the socket takes now; the rest moves inside later
  // transport calls, and the ticket's waiter finishes it.
  flush_peer(p);
  return p.written >= ticket ? 0 : ticket;
}

void SocketTransport::check_send(PartId to, std::uint64_t ticket) const {
  check_alive();
  const Peer& p = peers_[static_cast<std::size_t>(to)];
  if (p.eof && p.written < ticket)
    throw ShutdownError("rank " + std::to_string(rank_) + ": peer rank " +
                        std::to_string(to) +
                        " disconnected before a send to it was written");
}

bool SocketTransport::send_done(PartId rank, PartId to,
                                std::uint64_t ticket) {
  BNSGCN_CHECK(rank == rank_);
  BNSGCN_CHECK(to >= 0 && to < nranks_ && to != rank_);
  const Peer& p = peers_[static_cast<std::size_t>(to)];
  if (p.written >= ticket) return true;
  check_send(to, ticket);
  progress(0);
  check_send(to, ticket);
  return p.written >= ticket;
}

void SocketTransport::wait_send(PartId rank, PartId to, std::uint64_t ticket) {
  BNSGCN_CHECK(rank == rank_);
  BNSGCN_CHECK(to >= 0 && to < nranks_ && to != rank_);
  const Peer& p = peers_[static_cast<std::size_t>(to)];
  while (p.written < ticket) {
    check_send(to, ticket);
    // Blocks until a peer is readable or our queue can move: reading on
    // while we wait is what lets the peer finish its own sends to us.
    progress(-1);
  }
}

void SocketTransport::wait_sent(const Sent& sent) {
  for (const auto& [to, ticket] : sent)
    if (ticket != 0) wait_send(rank_, to, ticket);
}

bool SocketTransport::take_from_inbox(Peer& p, int tag, Message& out) {
  const auto it =
      std::find_if(p.inbox.begin(), p.inbox.end(),
                   [tag](const Message& m) { return m.tag == tag; });
  if (it == p.inbox.end()) return false;
  out = std::move(*it);
  p.inbox.erase(it);
  return true;
}

Message SocketTransport::recv_frame(PartId from, int tag) {
  BNSGCN_CHECK(from >= 0 && from < nranks_ && from != rank_);
  // Tag spaces: point-to-point tags are non-negative (trainer sequence),
  // collective tags are <= -2 (next_coll_tag); -1 matches neither.
  BNSGCN_REQUIRE(tag != -1, "tag -1 belongs to no tag space");
  Peer& p = peers_[static_cast<std::size_t>(from)];
  Message out;
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

std::uint64_t SocketTransport::send(PartId from, PartId to, Wire msg) {
  BNSGCN_CHECK(from == rank_);
  return send_frame(to, to_message(std::move(msg)));
}

bool SocketTransport::try_recv(PartId rank, PartId from, int tag, Wire& out) {
  check_alive();
  BNSGCN_CHECK(rank == rank_);
  BNSGCN_CHECK(from >= 0 && from < nranks_ && from != rank_);
  Peer& p = peers_[static_cast<std::size_t>(from)];
  Message m;
  if (take_from_inbox(p, tag, m)) {
    out = to_wire(std::move(m));
    return true;
  }
  progress(0);
  if (take_from_inbox(p, tag, m)) {
    out = to_wire(std::move(m));
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
  return to_wire(recv_frame(from, tag));
}

void SocketTransport::barrier(PartId rank) {
  BNSGCN_CHECK(rank == rank_);
  const int tag = next_coll_tag();
  const Message empty{.kind = FrameKind::kEmpty,
                      .tag = tag,
                      .floats = {},
                      .ids = {},
                      .doubles = {}};
  // Hub barrier on rank 0: gather a ping from everyone, then release
  // everyone. Two hops, no fan-in races, deterministic.
  Sent sent;
  if (rank_ == 0) {
    for (PartId j = 1; j < nranks_; ++j) (void)recv_frame(j, tag);
    for (PartId j = 1; j < nranks_; ++j)
      sent.emplace_back(j, send_frame(j, empty));
  } else {
    sent.emplace_back(0, send_frame(0, empty));
    (void)recv_frame(0, tag);
  }
  wait_sent(sent);
}

void SocketTransport::allreduce_sum(PartId rank, std::span<float> data) {
  BNSGCN_CHECK(rank == rank_);
  const int tag = next_coll_tag();
  Sent sent;
  for (PartId j = 0; j < nranks_; ++j)
    if (j != rank_)
      sent.emplace_back(
          j, send_frame(j, Message{.kind = FrameKind::kFloats,
                                   .tag = tag,
                                   .floats = {data.begin(), data.end()},
                                   .ids = {},
                                   .doubles = {}}));
  // Fold peers in ascending rank order skipping self — identical
  // reduction order to the mailbox backend, so sums are bit-equal.
  for (PartId j = 0; j < nranks_; ++j) {
    if (j == rank_) continue;
    const Message r = recv_frame(j, tag);
    BNSGCN_CHECK(r.kind == FrameKind::kFloats &&
                 r.floats.size() == data.size());
    for (std::size_t i = 0; i < data.size(); ++i) data[i] += r.floats[i];
  }
  wait_sent(sent);
}

std::vector<double> SocketTransport::gather_scalars(double value) {
  const int tag = next_coll_tag();
  Sent sent;
  for (PartId j = 0; j < nranks_; ++j)
    if (j != rank_)
      sent.emplace_back(j, send_frame(j, Message{.kind = FrameKind::kDoubles,
                                                 .tag = tag,
                                                 .floats = {},
                                                 .ids = {},
                                                 .doubles = {value}}));
  std::vector<double> slots(static_cast<std::size_t>(nranks_), 0.0);
  slots[static_cast<std::size_t>(rank_)] = value;
  for (PartId j = 0; j < nranks_; ++j) {
    if (j == rank_) continue;
    const Message r = recv_frame(j, tag);
    BNSGCN_CHECK(r.kind == FrameKind::kDoubles && r.doubles.size() == 1);
    slots[static_cast<std::size_t>(j)] = r.doubles[0];
  }
  wait_sent(sent);
  return slots;
}

double SocketTransport::allreduce_sum_scalar(PartId rank, double value) {
  BNSGCN_CHECK(rank == rank_);
  // Mirror the mailbox slot fold: every contribution lands in a
  // rank-indexed slot and the sum runs over slots in rank order, self
  // included — the addition order is identical on every rank.
  double sum = 0.0;
  for (const double v : gather_scalars(value)) sum += v;
  return sum;
}

double SocketTransport::allreduce_max_scalar(PartId rank, double value) {
  BNSGCN_CHECK(rank == rank_);
  const std::vector<double> slots = gather_scalars(value);
  double mx = slots[0];
  for (const double v : slots) mx = std::max(mx, v);
  return mx;
}

std::vector<std::vector<NodeId>> SocketTransport::allgather_ids(
    PartId rank, std::vector<NodeId> ids) {
  BNSGCN_CHECK(rank == rank_);
  const int tag = next_coll_tag();
  Sent sent;
  for (PartId j = 0; j < nranks_; ++j)
    if (j != rank_)
      sent.emplace_back(j, send_frame(j, Message{.kind = FrameKind::kIds,
                                                 .tag = tag,
                                                 .floats = {},
                                                 .ids = ids,
                                                 .doubles = {}}));
  std::vector<std::vector<NodeId>> out(static_cast<std::size_t>(nranks_));
  out[static_cast<std::size_t>(rank_)] = std::move(ids);
  for (PartId j = 0; j < nranks_; ++j) {
    if (j == rank_) continue;
    Message r = recv_frame(j, tag);
    BNSGCN_CHECK(r.kind == FrameKind::kIds);
    out[static_cast<std::size_t>(j)] = std::move(r.ids);
  }
  wait_sent(sent);
  return out;
}

std::vector<std::vector<double>> SocketTransport::allgather_doubles(
    PartId rank, const std::vector<double>& vals) {
  BNSGCN_CHECK(rank == rank_);
  const int tag = next_coll_tag();
  Sent sent;
  for (PartId j = 0; j < nranks_; ++j)
    if (j != rank_)
      sent.emplace_back(j, send_frame(j, Message{.kind = FrameKind::kDoubles,
                                                 .tag = tag,
                                                 .floats = {},
                                                 .ids = {},
                                                 .doubles = vals}));
  std::vector<std::vector<double>> out(static_cast<std::size_t>(nranks_));
  out[static_cast<std::size_t>(rank_)] = vals;
  for (PartId j = 0; j < nranks_; ++j) {
    if (j == rank_) continue;
    Message r = recv_frame(j, tag);
    BNSGCN_CHECK(r.kind == FrameKind::kDoubles);
    out[static_cast<std::size_t>(j)] = std::move(r.doubles);
  }
  wait_sent(sent);
  return out;
}

void SocketTransport::shutdown(PartId /*rank*/) {
  stopped_ = true;
  for (auto& p : peers_) {
    if (p.fd >= 0) ::close(p.fd);
    p.fd = -1;
    drop(p);
  }
}

} // namespace bnsgcn::comm
