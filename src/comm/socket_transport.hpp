#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
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
/// TCP) — followed by the raw payload bytes.
struct Frame {
  FrameKind kind = FrameKind::kEmpty;
  int tag = 0;
  std::vector<std::uint8_t> payload;
};

inline constexpr std::uint32_t kFrameMagic = 0x424E5347; // "BNSG"
inline constexpr std::size_t kFrameHeaderBytes = 20;
/// Largest payload a frame header may declare (1 GiB). The biggest legal
/// message is one peer's halo block, rows × feature width × 4 bytes, far
/// below this at every preset; a larger length is a corrupt or hostile
/// stream and is rejected as soon as its header arrives.
inline constexpr std::uint64_t kMaxFramePayloadBytes = std::uint64_t{1} << 30;

/// Serialise a frame into header + payload, ready to write.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& f);

/// Incremental frame parser over an arbitrary byte stream. feed() bytes
/// as they arrive (any split, down to one byte at a time); pop() yields
/// complete frames in order. Throws CheckError on a corrupt header,
/// including a payload length above kMaxFramePayloadBytes.
class FrameDecoder {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  /// Extract the next complete frame; false when more bytes are needed.
  bool pop(Frame& out);
  /// Bytes buffered but not yet returned as frames.
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0; // consumed prefix of buf_
};

/// Socket transport: carries exactly one rank per instance (one trainer
/// process or test thread), with one stream socket per peer. Sockets are
/// nonblocking; a poll(2)-driven progress loop drains reads into per-peer
/// tag-matched inboxes and flushes per-peer send queues, so Request::test
/// makes real progress and blocking receives also push pending writes
/// (no send/recv deadlock). Collectives are lockstep message exchanges on
/// a reserved negative-tag sequence, folding contributions in the same
/// deterministic rank order as the mailbox backend.
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

  void send(PartId from, PartId to, Wire msg) override;
  bool try_recv(PartId rank, PartId from, int tag, Wire& out) override;
  [[nodiscard]] Wire recv(PartId rank, PartId from, int tag) override;

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
    std::deque<std::vector<std::uint8_t>> sendq;
    std::size_t send_off = 0; // bytes of sendq.front() already written
    FrameDecoder decoder;
    std::deque<Frame> inbox; // complete frames not yet matched
  };

  void connect_all(int listen_fd);
  /// One progress pass: poll(2) every live peer for readability (and
  /// writability while its queue is nonempty), drain reads into inboxes,
  /// flush writes. timeout_ms as poll(2): 0 = nonblocking, -1 = block
  /// until any event.
  void progress(int timeout_ms);
  void read_peer(Peer& p);
  void flush_peer(Peer& p);
  void send_frame(PartId to, Frame f);
  [[nodiscard]] Frame recv_frame(PartId from, int tag);
  bool take_from_inbox(Peer& p, int tag, Frame& out);
  [[nodiscard]] int next_coll_tag() { return -2 - (coll_seq_++); }
  void check_alive() const;

  PartId rank_;
  PartId nranks_;
  SocketEndpoints eps_;
  std::vector<Peer> peers_;
  int coll_seq_ = 0;
  bool stopped_ = false;
};

/// Convert between the Endpoint-level Wire and the socket Frame.
[[nodiscard]] Frame wire_to_frame(const Wire& msg);
[[nodiscard]] Wire frame_to_wire(Frame f);

} // namespace bnsgcn::comm
