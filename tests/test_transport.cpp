// Socket transport unit tests: frame codec round-trips (any byte split),
// a seeded fuzz of the receive path (random splits, direct reads,
// truncated and adversarial streams), real UDS/TCP rank groups driven
// from threads (one SocketTransport per rank, exactly the shape of the
// multi-process runtime minus the fork), out-of-order tag completion
// through RequestSet, large payloads that force partial writes through
// the nonblocking send queues, send completion (an exchange leaves no
// bytes queued behind it), and the deadlock-free shutdown contract (a dead
// peer surfaces ShutdownError on survivors instead of a hang, also while
// MiBs are still queued to it). Cross-process parity with the mailbox is
// pinned separately in tests/test_multiprocess.cpp.

#include <gtest/gtest.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
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
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/halo_exchange.hpp"

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
// Receive-path fuzz
// ---------------------------------------------------------------------------

/// A random well-formed message of any kind, sized up to `max_elems`
/// elements per vector (some past FrameDecoder::kStageBytes, so the
/// direct-read path runs too).
comm::Message random_message(Rng& rng, std::size_t max_elems) {
  comm::Message m;
  m.kind = static_cast<FrameKind>(rng.next_below(5));
  m.tag = static_cast<int>(rng.next_int(-50, 50));
  if (m.tag == -1) m.tag = 0;
  const auto n = [&] {
    return static_cast<std::size_t>(rng.next_below(max_elems + 1));
  };
  switch (m.kind) {
    case FrameKind::kFloats:
      m.floats.resize(n());
      break;
    case FrameKind::kIds:
      m.ids.resize(n());
      break;
    case FrameKind::kDoubles:
      m.doubles.resize(n());
      break;
    case FrameKind::kEmpty:
      break;
    case FrameKind::kHaloDelta:
      m.ids.resize(n());
      m.floats.resize(n());
      break;
  }
  for (auto& v : m.floats) v = rng.next_float();
  for (auto& v : m.ids) v = static_cast<NodeId>(rng.next_u64());
  for (auto& v : m.doubles) v = rng.next_gaussian();
  return m;
}

/// Serialise messages through the transport's own iovec layout.
std::vector<std::uint8_t> stream_of(const std::vector<comm::Message>& msgs) {
  std::vector<std::uint8_t> out;
  for (const auto& m : msgs) {
    const comm::OutFrame f(m);
    iovec iov[4];
    const int n = f.iov_from(0, iov);
    for (int i = 0; i < n; ++i) {
      const auto* b = static_cast<const std::uint8_t*>(iov[i].iov_base);
      out.insert(out.end(), b, b + iov[i].iov_len);
    }
  }
  return out;
}

/// Drive `bytes` into a decoder the way a socket does — random read sizes
/// down to one byte, into the stage or (when the decoder offers it)
/// straight into the payload vector — collecting every popped message.
/// Returns the error message if the decoder raised its named check;
/// anything else it throws escapes and fails the test.
std::string drive(Rng& rng, const std::vector<std::uint8_t>& bytes,
                  std::vector<comm::Message>& out) {
  FrameDecoder dec;
  std::size_t pos = 0;
  try {
    while (pos < bytes.size()) {
      const std::size_t left = bytes.size() - pos;
      const std::span<std::uint8_t> direct = dec.direct();
      const std::size_t cap =
          1 + rng.next_below(rng.next_bool(0.3)
                                 ? 8
                                 : 3 * FrameDecoder::kStageBytes);
      if (!direct.empty()) {
        const std::size_t n = std::min({left, direct.size(), cap});
        std::memcpy(direct.data(), bytes.data() + pos, n);
        dec.commit(n);
        pos += n;
      } else {
        const std::size_t n =
            std::min({left, FrameDecoder::kStageBytes, cap});
        dec.feed(bytes.data() + pos, n);
        pos += n;
      }
      comm::Message m;
      while (dec.pop(m)) out.push_back(std::move(m));
    }
  } catch (const CheckError& e) {
    return e.what();
  }
  return {};
}

void expect_same(const comm::Message& a, const comm::Message& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.tag, b.tag);
  EXPECT_EQ(a.ids, b.ids);
  EXPECT_EQ(a.floats, b.floats);
  EXPECT_EQ(a.doubles, b.doubles);
}

TEST(FrameFuzz, RandomSplitsAndDirectReadsDecodeExactly) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<comm::Message> msgs;
    const std::size_t count = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < count; ++i)
      msgs.push_back(random_message(rng, rng.next_bool(0.2) ? 70000 : 40));
    const auto bytes = stream_of(msgs);
    std::vector<comm::Message> got;
    EXPECT_EQ(drive(rng, bytes, got), "") << "seed " << seed;
    ASSERT_EQ(got.size(), msgs.size()) << "seed " << seed;
    for (std::size_t i = 0; i < msgs.size(); ++i) expect_same(got[i], msgs[i]);
  }
}

TEST(FrameFuzz, TruncatedStreamsYieldOnlyTheCompleteFrames) {
  // Cut the stream anywhere — mid-header or mid-payload: every frame that
  // ended before the cut comes out intact, nothing else, no error.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed * 7919);
    std::vector<comm::Message> msgs;
    for (int i = 0; i < 4; ++i) msgs.push_back(random_message(rng, 30));
    const auto bytes = stream_of(msgs);
    const std::size_t cut = rng.next_below(bytes.size());
    std::size_t whole = 0, end = 0;
    for (const auto& m : msgs) {
      end += comm::OutFrame(m).bytes;
      if (end > cut) break;
      ++whole;
    }
    std::vector<comm::Message> got;
    const std::vector<std::uint8_t> prefix(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_EQ(drive(rng, prefix, got), "") << "seed " << seed;
    ASSERT_EQ(got.size(), whole) << "seed " << seed << " cut " << cut;
    for (std::size_t i = 0; i < whole; ++i) expect_same(got[i], msgs[i]);
  }
}

TEST(FrameFuzz, CorruptHeadersFailTheNamedCheck) {
  // One good frame, then a frame whose header is corrupted in one of the
  // ways a broken or hostile peer could: the good frame comes out, then the
  // decoder raises its check (naming the bound where there is one) —
  // never another exception, a wrapped range or an unbounded allocation.
  struct Corruption {
    const char* name;
    std::size_t offset;  // byte of the second frame's header to overwrite
    std::uint64_t value;
    std::size_t width;
    const char* says;    // expected fragment of the message
  };
  const Corruption cases[] = {
      {"bad magic", 0, 0xDEADBEEF, 4, "corrupt frame header"},
      {"bad kind", 4, 9, 4, "corrupt frame kind"},
      {"length over the cap", 12, comm::kMaxFramePayloadBytes + 4, 8,
       "kMaxFramePayloadBytes"},
      {"wrapping length", 12, std::numeric_limits<std::uint64_t>::max() - 3,
       8, "kMaxFramePayloadBytes"},
      {"ragged length", 12, 6, 8, "whole number"},
  };
  for (const auto& c : cases) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      Rng rng(seed);
      comm::Message good = random_message(rng, 20);
      comm::Message bad;
      bad.kind = FrameKind::kFloats;
      bad.tag = 3;
      bad.floats.assign(4, 1.0f);
      auto bytes = stream_of({good, bad});
      const std::size_t at = comm::OutFrame(good).bytes + c.offset;
      std::memcpy(bytes.data() + at, &c.value, c.width);
      std::vector<comm::Message> got;
      const std::string err = drive(rng, bytes, got);
      EXPECT_NE(err.find(c.says), std::string::npos)
          << c.name << ", seed " << seed << ": " << err;
      ASSERT_EQ(got.size(), 1u) << c.name;
      expect_same(got[0], good);
    }
  }
  // A halo-delta index count longer than its payload.
  comm::Message delta;
  delta.kind = FrameKind::kHaloDelta;
  delta.ids = {1, 2};
  delta.floats = {0.5f};
  auto bytes = stream_of({delta});
  const std::uint64_t count = 1000;
  std::memcpy(bytes.data() + comm::kFrameHeaderBytes, &count, sizeof(count));
  Rng rng(5);
  std::vector<comm::Message> got;
  EXPECT_NE(drive(rng, bytes, got).find("exceeds its payload"),
            std::string::npos);
  EXPECT_TRUE(got.empty());
}

TEST(FrameFuzz, MutatedStreamsGiveFramesOrTheNamedCheck) {
  // Random byte flips anywhere in a valid stream: the decoder may decode
  // (altered) frames, wait for bytes that never come, or raise its check —
  // and nothing else. Every frame it yields is internally consistent.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 104729);
    std::vector<comm::Message> msgs;
    for (int i = 0; i < 3; ++i) msgs.push_back(random_message(rng, 24));
    auto bytes = stream_of(msgs);
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t f = 0; f < flips; ++f)
      bytes[rng.next_below(bytes.size())] ^=
          static_cast<std::uint8_t>(1 + rng.next_below(255));
    std::vector<comm::Message> got;
    (void)drive(rng, bytes, got); // CheckError is an accepted outcome
    for (const auto& m : got) {
      switch (m.kind) {
        case FrameKind::kEmpty:
          EXPECT_TRUE(m.ids.empty() && m.floats.empty() && m.doubles.empty());
          break;
        case FrameKind::kFloats:
          EXPECT_TRUE(m.ids.empty() && m.doubles.empty());
          break;
        case FrameKind::kIds:
          EXPECT_TRUE(m.floats.empty() && m.doubles.empty());
          break;
        case FrameKind::kDoubles:
          EXPECT_TRUE(m.ids.empty() && m.floats.empty());
          break;
        case FrameKind::kHaloDelta:
          EXPECT_TRUE(m.doubles.empty());
          break;
      }
    }
  }
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

// ---------------------------------------------------------------------------
// Send completion: an exchange leaves no bytes queued behind it
// ---------------------------------------------------------------------------

/// Two UDS ranks exchange 8 MiB each way through a FoldDriver in `mode`.
/// Rank 1 posts its half first and then meets rank 0 at a barrier, whose
/// ping follows the slab on the stream, so when rank 0 posts, rank 1's
/// slab already sits in rank 0's inbox: rank 0's receive completes at
/// once, with nearly all of its own 8 MiB — far beyond a default socket
/// buffer — still to write. Rank 0 then makes no transport call and blocks
/// on a pipe that rank 1 writes only once its own receive has completed.
/// If rank 0's FoldDriver returned with its frame still queued, rank 1's
/// receive could never complete: rank 0 would sit on the pipe until its
/// timeout, then shut its transport down so rank 1 unwinds, and the test
/// fails. alarm() backs the timeout up.
void exchange_then_block_on_pipe(core::OverlapMode mode) {
  constexpr std::size_t kFloats = std::size_t{2} << 20; // 8 MiB
  constexpr int kPipeTimeoutMs = 20000;
  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  alarm(120);
  auto group = comm::make_local_group(TransportKind::kUds, 2);
  std::exception_ptr errors[2];
  bool stalled = false;
  std::vector<std::thread> threads;
  for (PartId r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      try {
        Fabric fabric(std::make_unique<comm::SocketTransport>(
                          r, group.endpoints, group.listen_fds[r]),
                      CostModel::pcie3_x16());
        comm::Endpoint& ep = fabric.endpoint(r);
        const PartId peer = 1 - r;
        std::vector<float> slab(kFloats);
        for (std::size_t i = 0; i < kFloats; ++i)
          slab[i] = static_cast<float>(i % 1021 + static_cast<std::size_t>(r));
        if (r == 0) ep.barrier();
        core::PendingExchange px;
        (void)px.sends.add(
            ep.isend_floats(peer, 5, std::move(slab), TrafficClass::kFeature));
        px.peers.push_back(peer);
        (void)px.recvs.add(ep.irecv_floats(peer, 5, TrafficClass::kFeature));
        if (r == 1) ep.barrier();
        std::vector<float> got;
        const auto apply = [&](std::size_t, Wire msg) {
          got = std::move(msg.floats);
        };
        Accumulator acc;
        core::FoldDriver fold(px, mode);
        fold.poll(apply, acc);
        fold.drain(apply, acc);
        EXPECT_TRUE(px.sends.all_done());
        ASSERT_EQ(got.size(), kFloats);
        for (std::size_t i = 0; i < kFloats; i += 4099)
          ASSERT_EQ(got[i],
                    static_cast<float>(i % 1021 +
                                       static_cast<std::size_t>(peer)));
        if (r == 1) {
          const char c = 1;
          ASSERT_EQ(::write(pipefd[1], &c, 1), 1);
          return;
        }
        // Rank 0: no transport call from here on.
        pollfd pfd{.fd = pipefd[0], .events = POLLIN, .revents = 0};
        if (::poll(&pfd, 1, kPipeTimeoutMs) != 1) {
          stalled = true;
          fabric.shutdown(0); // unwind rank 1 so the test can fail cleanly
          return;
        }
        char c = 0;
        ASSERT_EQ(::read(pipefd[0], &c, 1), 1);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  alarm(0);
  comm::cleanup_local_group(group, /*fds_taken=*/true);
  ::close(pipefd[0]);
  ::close(pipefd[1]);
  ASSERT_FALSE(stalled)
      << "rank 1's receive never completed while rank 0 sat outside the "
         "transport: rank 0's exchange returned with its send still queued";
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

TEST(SocketTransport, BlockingExchangeFinishesItsSends) {
  exchange_then_block_on_pipe(core::OverlapMode::kBlocking);
}

TEST(SocketTransport, StreamExchangeFinishesItsSends) {
  exchange_then_block_on_pipe(core::OverlapMode::kStream);
}

TEST(SocketTransport, SendWrittenByThePostingWriteIsDoneAtOnce) {
  // A frame the first sendmsg(2) takes whole needs no later call: its
  // Request is complete at posting (serve's per-query control frames).
  run_socket_ranks(TransportKind::kUds, 2, [](comm::Endpoint& ep) {
    if (ep.rank() == 0) {
      comm::Request small =
          ep.isend_floats(1, 2, {1.0f, 2.0f}, TrafficClass::kControl);
      EXPECT_TRUE(small.done());
    } else {
      EXPECT_EQ(ep.recv_floats(0, 2, TrafficClass::kControl),
                (std::vector<float>{1.0f, 2.0f}));
    }
    ep.barrier();
  });
}

TEST(SocketTransport, PeerDisconnectSurfacesShutdownError) {
  // A peer tears its transport down while the survivor is blocked on it.
  // The survivor must unwind with ShutdownError naming that peer — not
  // hang, not crash, not die of SIGPIPE. This is the fabric's
  // deadlock-free shutdown contract; the process-level version (a dead
  // rank's exit closing its sockets) exercises the identical eof path.
  // `survivor` runs on rank 0; rank 1 vanishes once `armed` is set.
  const auto run = [](const std::function<void(comm::Endpoint&)>& survivor) {
    auto group = comm::make_local_group(TransportKind::kUds, 2);
    std::exception_ptr survivor_error;
    std::atomic<bool> armed{false};
    std::thread t0([&] {
      try {
        Fabric fabric(std::make_unique<comm::SocketTransport>(
                          0, group.endpoints, group.listen_fds[0]),
                      CostModel::pcie3_x16());
        survivor(fabric.endpoint(0));
        armed = true;
      } catch (...) {
        armed = true;
        survivor_error = std::current_exception();
      }
    });
    std::thread t1([&] {
      // Connect, then vanish without reading or sending: shutdown closes
      // the sockets (the path a failing rank's unwind takes).
      Fabric fabric(std::make_unique<comm::SocketTransport>(
                        1, group.endpoints, group.listen_fds[1]),
                    CostModel::pcie3_x16());
      fabric.shutdown(1);
    });
    t0.join();
    t1.join();
    comm::cleanup_local_group(group, /*fds_taken=*/true);
    return survivor_error;
  };
  const auto expect_names_peer = [](const std::exception_ptr& e) {
    ASSERT_TRUE(e != nullptr) << "survivor returned instead of unwinding";
    try {
      std::rethrow_exception(e);
    } catch (const comm::ShutdownError& err) {
      EXPECT_NE(std::string(err.what()).find("peer rank 1"),
                std::string::npos)
          << err.what();
    }
  };

  // Blocked on a message that will never come.
  expect_names_peer(run([](comm::Endpoint& ep) {
    (void)ep.recv_floats(1, 0, TrafficClass::kFeature);
  }));

  // Blocked draining a send: MiBs are still queued to the peer (it never
  // reads) when it closes.
  alarm(120);
  expect_names_peer(run([](comm::Endpoint& ep) {
    comm::Request big = ep.isend_floats(
        1, 0, std::vector<float>(std::size_t{4} << 20, 1.0f),
        TrafficClass::kFeature);
    EXPECT_FALSE(big.done()) << "16 MiB fit in the socket buffer";
    big.wait();
  }));
  alarm(0);
}

} // namespace
} // namespace bnsgcn
