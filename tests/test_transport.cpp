// Socket transport unit tests: frame codec round-trips (any byte split),
// real UDS/TCP rank groups driven from threads (one SocketTransport per
// rank, exactly the shape of the multi-process runtime minus the fork),
// out-of-order tag completion through RequestSet, large payloads that
// force partial writes through the nonblocking send queues, and the
// deadlock-free shutdown contract (a dead peer surfaces ShutdownError on
// survivors instead of a hang). Cross-process parity with the mailbox is
// pinned separately in tests/test_multiprocess.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "comm/fabric.hpp"
#include "comm/process_group.hpp"
#include "comm/socket_transport.hpp"
#include "common/check.hpp"

namespace bnsgcn {
namespace {

using comm::CostModel;
using comm::Fabric;
using comm::Frame;
using comm::FrameDecoder;
using comm::FrameKind;
using comm::TrafficClass;
using comm::TransportKind;
using comm::Wire;

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

Frame make_frame(FrameKind kind, int tag, std::size_t nbytes) {
  Frame f;
  f.kind = kind;
  f.tag = tag;
  f.payload.resize(nbytes);
  for (std::size_t i = 0; i < nbytes; ++i)
    f.payload[i] = static_cast<std::uint8_t>((i * 7 + 13) & 0xFF);
  return f;
}

TEST(FrameCodec, RoundTripAllKinds) {
  const Frame frames[] = {
      make_frame(FrameKind::kFloats, 42, 12),
      make_frame(FrameKind::kIds, -3, 8),
      make_frame(FrameKind::kDoubles, 0, 24),
      make_frame(FrameKind::kEmpty, 7, 0),
  };
  FrameDecoder dec;
  for (const Frame& f : frames) {
    const auto bytes = comm::encode_frame(f);
    ASSERT_EQ(bytes.size(), comm::kFrameHeaderBytes + f.payload.size());
    dec.feed(bytes.data(), bytes.size());
    Frame out;
    ASSERT_TRUE(dec.pop(out));
    EXPECT_EQ(out.kind, f.kind);
    EXPECT_EQ(out.tag, f.tag);
    EXPECT_EQ(out.payload, f.payload);
    Frame none;
    EXPECT_FALSE(dec.pop(none)); // stream fully consumed
  }
}

TEST(FrameCodec, ByteAtATimeFeed) {
  // The decoder must assemble frames from any split — down to one byte at
  // a time — and report "need more" everywhere short of a full frame.
  const Frame f = make_frame(FrameKind::kFloats, 1234, 40);
  const auto bytes = comm::encode_frame(f);
  FrameDecoder dec;
  Frame out;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    dec.feed(&bytes[i], 1);
    EXPECT_FALSE(dec.pop(out)) << "frame popped " << bytes.size() - 1 - i
                               << " byte(s) early";
  }
  dec.feed(&bytes[bytes.size() - 1], 1);
  ASSERT_TRUE(dec.pop(out));
  EXPECT_EQ(out.tag, f.tag);
  EXPECT_EQ(out.payload, f.payload);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameCodec, BackToBackFramesSplitMidHeader) {
  // Two frames in one stream, fed in chunks that straddle the header of
  // the second frame.
  const Frame a = make_frame(FrameKind::kIds, 5, 16);
  const Frame b = make_frame(FrameKind::kFloats, 6, 4);
  auto stream = comm::encode_frame(a);
  const auto tail = comm::encode_frame(b);
  stream.insert(stream.end(), tail.begin(), tail.end());

  FrameDecoder dec;
  // First chunk ends 3 bytes into frame b's header.
  const std::size_t cut = comm::kFrameHeaderBytes + a.payload.size() + 3;
  dec.feed(stream.data(), cut);
  Frame out;
  ASSERT_TRUE(dec.pop(out));
  EXPECT_EQ(out.payload, a.payload);
  EXPECT_FALSE(dec.pop(out));
  dec.feed(stream.data() + cut, stream.size() - cut);
  ASSERT_TRUE(dec.pop(out));
  EXPECT_EQ(out.tag, b.tag);
  EXPECT_EQ(out.payload, b.payload);
}

TEST(FrameCodec, CorruptMagicThrows) {
  Frame f = make_frame(FrameKind::kFloats, 0, 4);
  auto bytes = comm::encode_frame(f);
  bytes[0] ^= 0xFF;
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_THROW((void)dec.pop(out), CheckError);
}

TEST(FrameCodec, OversizedLengthIsANamedCheck) {
  // A hostile 64-bit payload length must fail the named bound as soon as
  // its header arrives: not wrap the "whole frame buffered?" comparison
  // into a reversed payload range, and not buffer without limit while
  // waiting for a payload that never comes.
  const auto with_length = [](std::uint64_t nbytes) {
    auto bytes = comm::encode_frame(make_frame(FrameKind::kFloats, 0, 8));
    std::memcpy(bytes.data() + 12, &nbytes, sizeof(nbytes));
    return bytes;
  };
  for (const std::uint64_t nbytes :
       {std::numeric_limits<std::uint64_t>::max() - 5,
        comm::kMaxFramePayloadBytes + 1}) {
    const auto bytes = with_length(nbytes);
    FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    Frame out;
    try {
      (void)dec.pop(out);
      FAIL() << "length " << nbytes << " was not rejected";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("kMaxFramePayloadBytes"),
                std::string::npos)
          << e.what();
    }
  }
  // The cap itself is a legal length: the decoder just waits for more.
  const auto at_cap = with_length(comm::kMaxFramePayloadBytes);
  FrameDecoder dec;
  dec.feed(at_cap.data(), at_cap.size());
  Frame out;
  EXPECT_FALSE(dec.pop(out));
}

TEST(FrameCodec, WireConversionRoundTrips) {
  Wire floats{.tag = 9, .hold = 0, .kind = comm::WireKind::kFloats,
              .floats = {1.5f, -2.0f, 3.25f}, .ids = {}};
  Wire got = comm::frame_to_wire(comm::wire_to_frame(floats));
  EXPECT_EQ(got.tag, 9);
  EXPECT_EQ(got.kind, comm::WireKind::kFloats);
  EXPECT_EQ(got.floats, floats.floats);

  Wire ids{.tag = -7, .hold = 0, .kind = comm::WireKind::kIds, .floats = {},
           .ids = {10, 20, 30}};
  got = comm::frame_to_wire(comm::wire_to_frame(ids));
  EXPECT_EQ(got.tag, -7);
  EXPECT_EQ(got.kind, comm::WireKind::kIds);
  EXPECT_EQ(got.ids, ids.ids);

  Wire empty{.tag = 3, .hold = 0, .kind = comm::WireKind::kFloats,
             .floats = {}, .ids = {}};
  got = comm::frame_to_wire(comm::wire_to_frame(empty));
  EXPECT_EQ(got.tag, 3);
  EXPECT_TRUE(got.floats.empty());
  EXPECT_TRUE(got.ids.empty());

  // The halo-delta frame is the only kind carrying both vectors: the index
  // list of present rows plus their features must survive the round trip
  // together, including the empty all-hits message.
  Wire delta{.tag = 42, .hold = 0, .kind = comm::WireKind::kHaloDelta,
             .floats = {0.5f, 1.5f, 2.5f, 3.5f}, .ids = {1, 3}};
  got = comm::frame_to_wire(comm::wire_to_frame(delta));
  EXPECT_EQ(got.tag, 42);
  EXPECT_EQ(got.kind, comm::WireKind::kHaloDelta);
  EXPECT_EQ(got.ids, delta.ids);
  EXPECT_EQ(got.floats, delta.floats);

  Wire all_hits{.tag = 5, .hold = 0, .kind = comm::WireKind::kHaloDelta,
                .floats = {}, .ids = {}};
  got = comm::frame_to_wire(comm::wire_to_frame(all_hits));
  EXPECT_EQ(got.kind, comm::WireKind::kHaloDelta);
  EXPECT_TRUE(got.ids.empty());
  EXPECT_TRUE(got.floats.empty());
}

// ---------------------------------------------------------------------------
// Socket groups (threads standing in for the rank processes)
// ---------------------------------------------------------------------------

/// Build a socket group and run fn(endpoint) on one thread per rank, each
/// thread owning its own SocketTransport+Fabric (the process shape, minus
/// the fork). Rethrows the first rank's exception after joining.
void run_socket_ranks(TransportKind kind, PartId nranks,
                      const std::function<void(comm::Endpoint&)>& fn) {
  auto group = comm::make_local_group(kind, nranks);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  for (PartId r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        Fabric fabric(std::make_unique<comm::SocketTransport>(
                          r, group.endpoints, group.listen_fds[r]),
                      CostModel::pcie3_x16());
        fn(fabric.endpoint(r));
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  comm::cleanup_local_group(group, /*fds_taken=*/true);
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

TEST(SocketTransport, UdsPointToPointDelivers) {
  run_socket_ranks(TransportKind::kUds, 2, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send_floats(1, 7, {1.0f, 2.0f, 3.0f}, TrafficClass::kFeature);
      ep.send_ids(1, 8, {40, 50}, TrafficClass::kControl);
    } else {
      const auto f = ep.recv_floats(0, 7, TrafficClass::kFeature);
      EXPECT_EQ(f, (std::vector<float>{1.0f, 2.0f, 3.0f}));
      const auto ids = ep.recv_ids(0, 8, TrafficClass::kControl);
      EXPECT_EQ(ids, (std::vector<NodeId>{40, 50}));
    }
  });
}

TEST(SocketTransport, UdsOutOfOrderTagsThroughRequestSet) {
  // Sends land in one order, receives posted in another; the per-peer
  // inbox must tag-match every request and RequestSet must report each
  // completion exactly once.
  run_socket_ranks(TransportKind::kUds, 2, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      for (const int tag : {12, 10, 11})
        ep.send_floats(1, tag, {static_cast<float>(tag)},
                       TrafficClass::kFeature);
      ep.barrier();
    } else {
      comm::RequestSet set;
      for (const int tag : {10, 11, 12})
        (void)set.add(ep.irecv_floats(0, tag, TrafficClass::kFeature));
      std::vector<std::size_t> done;
      while (!set.all_done()) (void)set.wait_any(done);
      std::sort(done.begin(), done.end());
      EXPECT_EQ(done, (std::vector<std::size_t>{0, 1, 2}));
      for (std::size_t i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(set.at(i).take_floats()[0],
                        static_cast<float>(10 + i));
      ep.barrier();
    }
  });
}

TEST(SocketTransport, UdsLargePayloadPartialWrites) {
  // A payload far beyond any socket buffer: the nonblocking send queue
  // must drain it across many partial writes while the receiver reads
  // partial frames, and the bytes must arrive intact and accounted.
  static constexpr std::size_t kFloats = 1 << 20; // 4 MiB
  run_socket_ranks(TransportKind::kUds, 2, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      std::vector<float> big(kFloats);
      for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<float>(i % 977);
      ep.send_floats(1, 0, std::move(big), TrafficClass::kFeature);
      ep.barrier();
    } else {
      const auto got = ep.recv_floats(0, 0, TrafficClass::kFeature);
      ASSERT_EQ(got.size(), kFloats);
      for (std::size_t i = 0; i < got.size(); i += 4096)
        ASSERT_FLOAT_EQ(got[i], static_cast<float>(i % 977));
      EXPECT_EQ(
          ep.stats().rx_bytes[static_cast<int>(TrafficClass::kFeature)],
          static_cast<std::int64_t>(kFloats * sizeof(float)));
      ep.barrier();
    }
  });
}

TEST(SocketTransport, UdsCollectivesMatchMailboxSemantics) {
  constexpr PartId kRanks = 4;
  run_socket_ranks(TransportKind::kUds, kRanks, [](comm::Endpoint& ep) {
    // allreduce_sum: every rank ends with the same vector sum.
    std::vector<float> data{static_cast<float>(ep.rank()),
                            static_cast<float>(ep.rank() * 10)};
    ep.allreduce_sum(data);
    EXPECT_FLOAT_EQ(data[0], 0 + 1 + 2 + 3);
    EXPECT_FLOAT_EQ(data[1], 10 * (0 + 1 + 2 + 3));
    // Scalar collectives.
    EXPECT_DOUBLE_EQ(ep.allreduce_sum_scalar(ep.rank() + 1.0), 10.0);
    EXPECT_DOUBLE_EQ(ep.allreduce_max_scalar(ep.rank() * 2.0), 6.0);
    // allgather_ids, indexed by rank.
    std::vector<NodeId> mine(static_cast<std::size_t>(ep.rank()) + 1,
                             ep.rank());
    const auto all = ep.allgather_ids(mine);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(kRanks));
    for (PartId r = 0; r < kRanks; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)].size(),
                static_cast<std::size_t>(r) + 1);
      for (const NodeId v : all[static_cast<std::size_t>(r)])
        EXPECT_EQ(v, r);
    }
    // allgather_doubles, indexed by rank.
    const auto sl = ep.allgather_doubles({ep.rank() * 1.5, 7.0});
    ASSERT_EQ(sl.size(), static_cast<std::size_t>(kRanks));
    for (PartId r = 0; r < kRanks; ++r) {
      EXPECT_DOUBLE_EQ(sl[static_cast<std::size_t>(r)][0], r * 1.5);
      EXPECT_DOUBLE_EQ(sl[static_cast<std::size_t>(r)][1], 7.0);
    }
    // Repeated rounds must not cross (the reserved collective-tag
    // sequence advances in lockstep).
    for (int round = 0; round < 8; ++round) {
      std::vector<float> v{static_cast<float>(round + ep.rank())};
      ep.allreduce_sum(v);
      EXPECT_FLOAT_EQ(v[0], 4.0f * round + 6.0f);
      ep.barrier();
    }
  });
}

TEST(SocketTransport, TcpLoopbackDelivers) {
  run_socket_ranks(TransportKind::kTcp, 2, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send_floats(1, 1, {5.0f, 6.0f}, TrafficClass::kFeature);
      const double sum = ep.allreduce_sum_scalar(1.0);
      EXPECT_DOUBLE_EQ(sum, 3.0);
    } else {
      EXPECT_EQ(ep.recv_floats(0, 1, TrafficClass::kFeature),
                (std::vector<float>{5.0f, 6.0f}));
      const double sum = ep.allreduce_sum_scalar(2.0);
      EXPECT_DOUBLE_EQ(sum, 3.0);
    }
  });
}

TEST(SocketTransport, PeerDisconnectSurfacesShutdownError) {
  // Rank 1 tears its transport down while rank 0 is blocked waiting on a
  // message that will never come. Rank 0 must unwind with ShutdownError —
  // not hang, not crash. This is the fabric's deadlock-free shutdown
  // contract; the process-level version (a dead rank's exit closing its
  // sockets) exercises the identical eof path.
  auto group = comm::make_local_group(TransportKind::kUds, 2);
  std::exception_ptr survivor_error;
  std::thread t0([&] {
    try {
      Fabric fabric(std::make_unique<comm::SocketTransport>(
                        0, group.endpoints, group.listen_fds[0]),
                    CostModel::pcie3_x16());
      // Blocks until rank 1's close lands as eof.
      (void)fabric.endpoint(0).recv_floats(1, 0, TrafficClass::kFeature);
    } catch (...) {
      survivor_error = std::current_exception();
    }
  });
  std::thread t1([&] {
    // Connect, then vanish without sending: transport dtor closes the
    // sockets (the graceful path a failing rank's unwind takes).
    Fabric fabric(std::make_unique<comm::SocketTransport>(
                      1, group.endpoints, group.listen_fds[1]),
                  CostModel::pcie3_x16());
    fabric.shutdown(1);
  });
  t0.join();
  t1.join();
  comm::cleanup_local_group(group, /*fds_taken=*/true);
  ASSERT_TRUE(survivor_error != nullptr)
      << "survivor returned instead of unwinding";
  EXPECT_THROW(std::rethrow_exception(survivor_error), comm::ShutdownError);
}

} // namespace
} // namespace bnsgcn
