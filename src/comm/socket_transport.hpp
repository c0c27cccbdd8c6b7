#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/transport.hpp"

namespace bnsgcn::comm {

/// Rank → endpoint map for a socket fabric. For kUds each address is a
/// socket path; for kTcp it is "host:port" (IPv4 dotted quad). Index r is
/// the address rank r listens on during bootstrap.
struct SocketEndpoints {
  TransportKind kind = TransportKind::kUds;
  std::vector<std::string> addrs;
};

/// Payload kind carried by a frame. kEmpty frames are zero-byte control
/// messages (barrier ping/ack); kDoubles carry collective scalars.
/// kHaloDelta is the halo cache's miss-only frame: a u64 index count,
/// the NodeId index list, then the float rows (docs/ARCHITECTURE.md §9).
enum class FrameKind : std::uint32_t {
  kFloats = 0,
  kIds = 1,
  kDoubles = 2,
  kEmpty = 3,
  kHaloDelta = 4,
};

/// One length-prefixed message as it crosses a socket. The wire layout is
/// a 20-byte header — magic u32, kind u32, tag i32, payload-bytes u64,
/// all host-endian (same host for UDS; homogeneous hosts assumed for
/// TCP) — followed by the raw payload bytes. This is the byte-level view
/// of a frame (codec tests); the transport itself never builds
/// one — it writes from and reads into a Message's own vectors.
struct Frame {
  FrameKind kind = FrameKind::kEmpty;
  int tag = 0;
  std::vector<std::uint8_t> payload;
};

/// One frame as the socket transport holds it on either side of the wire:
/// kind, tag and the payload in the typed vectors it is written from
/// (sendmsg(2) over the header plus these vectors) and read into. kFloats,
/// kIds and kDoubles use one vector; kHaloDelta uses ids then floats;
/// kEmpty none.
struct Message {
  FrameKind kind = FrameKind::kEmpty;
  int tag = 0;
  std::vector<float> floats;
  std::vector<NodeId> ids;
  std::vector<double> doubles;
};

inline constexpr std::uint32_t kFrameMagic = 0x424E5347; // "BNSG"
inline constexpr std::size_t kFrameHeaderBytes = 20;
/// Largest payload a frame header may declare (1 GiB). The biggest legal
/// message is one peer's halo block, rows × feature width × 4 bytes, far
/// below this at every preset; a larger length is a corrupt or hostile
/// stream and is rejected as soon as its header arrives.
inline constexpr std::uint64_t kMaxFramePayloadBytes = std::uint64_t{1} << 30;

/// Serialise a frame into header + payload (the reference byte layout).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& f);

/// A Message queued for writing: its header (plus kHaloDelta's u64 index
/// count, which leads that kind's payload) and the message itself, whose
/// vectors are written in place. `bytes` is the whole frame's length.
struct OutFrame {
  explicit OutFrame(Message m);
  /// Up to four iovecs (header, ids, floats, doubles; empty ones skipped)
  /// covering bytes [off, bytes) of the frame; returns how many.
  int iov_from(std::size_t off, iovec* iov) const;

  std::uint8_t head[kFrameHeaderBytes + sizeof(std::uint64_t)] = {};
  std::size_t head_len = kFrameHeaderBytes;
  Message msg;
  std::size_t bytes = 0;
};

/// Incremental frame receiver over an arbitrary byte stream, with any
/// split down to one byte at a time. feed() copies staged bytes: header
/// bytes into a fixed 28-byte buffer, payload bytes straight into the
/// destination vectors, which are sized from the header (kHaloDelta: from
/// the header and its index count). While a frame still needs at least
/// kStageBytes, direct() exposes the rest of the current vector so a
/// socket can recv(2) into it and commit() the count. pop() yields
/// complete frames in order, then throws CheckError at a corrupt header —
/// bad magic or kind, a length above kMaxFramePayloadBytes, a length that
/// is not a whole number of the kind's elements, or a delta index count
/// longer than its payload.
class FrameDecoder {
 public:
  /// Size of the staging read a socket feeds from; payload left beyond it
  /// is read straight into the destination.
  static constexpr std::size_t kStageBytes = 65536;

  void feed(const std::uint8_t* data, std::size_t n);
  /// Writable rest of the current payload vector when the frame still
  /// needs at least kStageBytes, else empty (read into the stage).
  [[nodiscard]] std::span<std::uint8_t> direct();
  /// Account n bytes written into the span direct() returned.
  void commit(std::size_t n);
  /// Extract the next complete frame; false when more bytes are needed.
  bool pop(Message& out);
  /// The same as raw payload bytes (codec tests).
  bool pop(Frame& out);
  /// Bytes fed but not yet returned as frames.
  [[nodiscard]] std::size_t buffered() const { return buffered_; }

 private:
  /// One payload vector of the frame in progress: which, its full byte
  /// length, bytes received and bytes allocated so far.
  enum class Vec : std::uint8_t { kIds, kFloats, kDoubles };
  struct Segment {
    Vec vec = Vec::kFloats;
    std::size_t total = 0;
    std::size_t got = 0;
    std::size_t alloc = 0;
  };
  void consume(const std::uint8_t* data, std::size_t n);
  void start_payload();
  [[nodiscard]] std::span<std::uint8_t> room();
  void advance(std::size_t n);

  std::uint8_t head_[kFrameHeaderBytes + sizeof(std::uint64_t)] = {};
  std::size_t head_len_ = 0;
  std::size_t head_need_ = kFrameHeaderBytes;
  bool in_payload_ = false;
  Message cur_;
  Segment segs_[2];
  std::size_t nsegs_ = 0;
  std::size_t seg_ = 0;
  std::deque<std::pair<Message, std::size_t>> ready_; // frame, its bytes
  std::size_t buffered_ = 0;
  /// The named check a corrupt header failed: feed() stops there, and
  /// pop() throws it once the frames before it are taken.
  std::exception_ptr error_;
};

/// Socket transport: carries exactly one rank per instance (one trainer
/// process or test thread), with one stream socket per peer. Sockets are
/// nonblocking; a poll(2)-driven progress loop reads into per-peer
/// tag-matched inboxes and writes per-peer send queues, so Request::test
/// makes real progress, and every wait — for a receive or for a send —
/// keeps both directions moving (no send/recv deadlock). A send completes
/// once its whole frame is in the kernel: send() returns a ticket that
/// send_done/wait_send complete, or 0 when the posting sendmsg(2) wrote
/// it all. Collectives are lockstep message exchanges on a reserved
/// negative-tag sequence, folding contributions in the same deterministic
/// rank order as the mailbox backend, and return only once their own
/// frames are written.
///
/// Bootstrap: every rank's listener is bound (and listening) before any
/// process starts, so connects cannot race; rank r then dials every rank
/// below it and accepts from every rank above it, each connection opening
/// with a 4-byte rank hello.
class SocketTransport final : public Transport {
 public:
  /// `listen_fd` is rank's pre-bound listening socket (ownership taken;
  /// closed once all peers above have connected).
  SocketTransport(PartId rank, const SocketEndpoints& eps, int listen_fd);
  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  [[nodiscard]] PartId nranks() const override { return nranks_; }
  [[nodiscard]] bool serves(PartId rank) const override {
    return rank == rank_;
  }
  [[nodiscard]] TimingSource timing() const override {
    return TimingSource::kMeasured;
  }

  [[nodiscard]] std::uint64_t send(PartId from, PartId to, Wire msg) override;
  bool send_done(PartId rank, PartId to, std::uint64_t ticket) override;
  void wait_send(PartId rank, PartId to, std::uint64_t ticket) override;
  bool try_recv(PartId rank, PartId from, int tag, Wire& out) override;
  [[nodiscard]] Wire recv(PartId rank, PartId from, int tag) override;
  void await_progress(PartId rank, int idle_passes) override;

  void barrier(PartId rank) override;
  void allreduce_sum(PartId rank, std::span<float> data) override;
  [[nodiscard]] double allreduce_sum_scalar(PartId rank,
                                            double value) override;
  [[nodiscard]] double allreduce_max_scalar(PartId rank,
                                            double value) override;
  [[nodiscard]] std::vector<std::vector<NodeId>> allgather_ids(
      PartId rank, std::vector<NodeId> ids) override;
  [[nodiscard]] std::vector<std::vector<double>> allgather_doubles(
      PartId rank, const std::vector<double>& vals) override;

  void shutdown(PartId rank) override;

 private:
  struct Peer {
    int fd = -1;
    bool eof = false; // peer closed (or errored); reads are done
    std::deque<OutFrame> sendq;
    std::size_t send_off = 0;  // bytes of sendq.front() already written
    std::uint64_t posted = 0;  // frames ever queued to this peer
    std::uint64_t written = 0; // frames fully written (a prefix of posted)
    FrameDecoder decoder;
    std::deque<Message> inbox; // complete frames not yet matched
  };
  /// Bound of one await_progress sleep: a pending request is re-probed at
  /// least this often even when no peer has an event.
  static constexpr int kProgressWaitMs = 50;
  /// A collective's own sends: (peer, ticket) pairs to complete before it
  /// returns.
  using Sent = std::vector<std::pair<PartId, std::uint64_t>>;

  void connect_all(int listen_fd);
  /// One progress pass: poll(2) every live peer for readability (and
  /// writability while its queue is nonempty), drain reads into inboxes,
  /// flush writes. timeout_ms as poll(2): 0 = nonblocking, -1 = block
  /// until any event.
  void progress(int timeout_ms);
  void read_peer(Peer& p);
  /// Mark a peer gone (eof) and discard its unwritable send queue.
  static void drop(Peer& p);
  void flush_peer(Peer& p);
  /// Queue a frame and write what the socket takes now; returns the send
  /// ticket (0 when the frame is already fully written).
  std::uint64_t send_frame(PartId to, Message m);
  /// Throw ShutdownError if the send `ticket` to `to` can no longer
  /// complete (fabric shut down, or the peer went away first).
  void check_send(PartId to, std::uint64_t ticket) const;
  void wait_sent(const Sent& sent);
  /// The scalar allreduces' exchange: every rank's value in a
  /// rank-indexed slot.
  [[nodiscard]] std::vector<double> gather_scalars(double value);
  [[nodiscard]] Message recv_frame(PartId from, int tag);
  bool take_from_inbox(Peer& p, int tag, Message& out);
  [[nodiscard]] int next_coll_tag() { return -2 - (coll_seq_++); }
  void check_alive() const;

  PartId rank_;
  PartId nranks_;
  SocketEndpoints eps_;
  std::vector<Peer> peers_;
  int coll_seq_ = 0;
  bool stopped_ = false;
};

/// Move an Endpoint-level Wire into a socket Message and back (no copy).
[[nodiscard]] Message to_message(Wire w);
[[nodiscard]] Wire to_wire(Message m);

/// Byte-level views of the same conversions (codec tests): the frame a
/// Wire is written as, built from the transport's own iovec layout, and
/// the Wire the transport's receiver decodes from a frame.
[[nodiscard]] Frame wire_to_frame(const Wire& msg);
[[nodiscard]] Wire frame_to_wire(const Frame& f);

} // namespace bnsgcn::comm
