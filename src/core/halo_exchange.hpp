#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "comm/fabric.hpp"
#include "common/stopwatch.hpp"
#include "core/boundary_sampler.hpp"
#include "core/halo_cache.hpp"
#include "nn/layer.hpp"
#include "tensor/matrix.hpp"

namespace bnsgcn::core {

/// How the boundary exchanges are scheduled against compute
/// (docs/ARCHITECTURE.md §4). Both modes execute the identical fp schedule
/// — per-peer folds applied in fixed peer order at the same points of the
/// split-phase protocol — so results are bit-exact across modes; the knob
/// only moves where the rank waits:
///  - kBlocking: wait for every peer right after posting (no overlap).
///  - kStream: poll the completion set (comm::RequestSet) between the
///    halo-independent compute chunks and fold each peer's slab the moment
///    it — and every earlier peer — has landed, so the compute and the
///    fold of peer k hide the transfers of peers k+1...
enum class OverlapMode : int { kBlocking = 0, kStream = 1 };

// ---- Pipelined (split-phase) exchange -------------------------------------
// One in-flight boundary exchange: sends are posted eagerly, receives into a
// completion set; the caller computes the halo-independent phase and folds
// the payloads afterwards, and FoldDriver completes both directions before
// the exchange counts as done. The fold always applies peers in ascending
// index order (deterministic reduction): blocking waits for everything right
// after posting, stream polls the set and applies each peer the moment it
// and every earlier peer have landed — the fold itself sits at the same
// point of the schedule with the same order in both modes, so both execute
// the identical fp instruction stream.
//
// This machinery — and the per-layer forward driver built on it
// (HaloExchanger::forward_layer) — is shared verbatim by training,
// evaluation (core/trainer.cpp) and the forward-only serving engine
// (core/inference.cpp), which is what makes served logits bit-identical to
// the training-forward oracle (docs/ARCHITECTURE.md §10).

struct PendingExchange {
  // One send per peer. On the mailbox each completes at posting; on a
  // socket, once its whole frame is written — which takes this rank's own
  // transport calls, so FoldDriver completes them before the
  // exchange counts as done (a send left queued would stall the peer
  // until this rank next entered the transport).
  comm::RequestSet sends;
  std::vector<PartId> peers;         // peer of recvs.at(k)
  comm::RequestSet recvs;
  double sim_s = 0.0;   // simulated wire time of the whole exchange
  double tail_s = 0.0;  // slowest single recv-peer message (sim)
  // Halo-cache state of this exchange: when `layer` names a cached
  // channel, cache_steps[k] is peer k's recv-side classification (fixed
  // at post time, so it is independent of arrival order — the
  // determinism anchor of the whole cache).
  int layer = -1;
  bool cached = false;
  std::vector<CacheStep> cache_steps;
  // Measured-timing capture (socket fabrics; also tracked on the mailbox
  // where it is simply unused). The Stopwatch starts when the exchange is
  // posted; the span is frozen once both directions are complete — every
  // receive landed and every send written — inside FoldDriver, whichever
  // mode waited for it.
  Stopwatch clock;
  double meas_span_s = 0.0;  // post -> both directions complete
  double wait_s = 0.0;       // portion of the span spent blocked in waits
};

// ---- Fold engine ----------------------------------------------------------
// Makes progress on the completion set and hands each peer's slab to the
// layer (or the scatter-add) once it AND every lower-indexed peer have
// landed. Buffer-then-apply-in-order is what keeps the reduction
// deterministic: out-of-order arrivals sit completed in their Request slot
// (the wire buffer — see comm::Request) until their turn, so the numeric
// fold order is identical to a wait_all, while in stream mode the fold
// *work* of early peers overlaps the transfers still in flight. Blocking
// mode waits for every peer — receives, then its own sends — in the
// constructor (right after posting); poll() is the nonblocking pass the
// caller runs between compute chunks (a no-op when blocking); drain()
// completes the remaining receives with wait_any progress, then the
// sends, so no exchange leaves FoldDriver with bytes still queued.
//
// Accounting follows the schedule, not the in-process mailboxes (whose
// eager delivery reflects thread-scheduling skew, not wire time): under the
// simulated wire, the fold of peer k runs while the transfers of peers
// k+1.. are still on the wire, so every stream fold except the last peer's
// widens the overlap window. window_s() reports that measured extra window
// — always 0 when blocking, whose wait precedes the first apply.

class FoldDriver {
 public:
  FoldDriver(PendingExchange& px, OverlapMode mode)
      : px_(px), stream_(mode == OverlapMode::kStream),
        arrived_(px.recvs.size(), stream_ ? 0 : 1) {
    if (stream_) return;
    Stopwatch w;
    px_.recvs.wait_all();
    px_.sends.wait_all();
    px_.wait_s += w.elapsed_s();
    freeze_span();
  }

  /// Nonblocking progress pass: mark what landed, apply every ready
  /// in-order peer through `apply(k, payload)`. No-op when blocking (every
  /// peer is applied at drain time).
  template <typename ApplyFn>
  void poll(ApplyFn&& apply, Accumulator& compute_acc) {
    if (!stream_ || next_ >= arrived_.size()) return;
    ready_.clear();
    (void)px_.recvs.poll(ready_);
    for (const std::size_t i : ready_) arrived_[i] = 1;
    (void)px_.sends.poll(ready_); // sends count only toward the span
    freeze_span();
    apply_ready(apply, compute_acc);
  }

  /// Block until every peer has been applied.
  template <typename ApplyFn>
  void drain(ApplyFn&& apply, Accumulator& compute_acc) {
    apply_ready(apply, compute_acc);
    while (next_ < arrived_.size()) {
      ready_.clear();
      Stopwatch w;
      (void)px_.recvs.wait_any(ready_);
      px_.wait_s += w.elapsed_s();
      for (const std::size_t i : ready_) arrived_[i] = 1;
      freeze_span();
      apply_ready(apply, compute_acc);
    }
    if (!px_.sends.all_done()) {
      Stopwatch w;
      px_.sends.wait_all();
      px_.wait_s += w.elapsed_s();
    }
    freeze_span();
  }

  /// Whether this schedule can hide wire time at all (stream).
  [[nodiscard]] bool overlaps() const { return stream_; }

  /// Stream window: fold seconds of every peer but the last (the folds
  /// that ran while at least one later transfer was still in flight).
  [[nodiscard]] double window_s() const { return window_s_; }

 private:
  /// Measured span ends when both directions are complete (every receive
  /// landed, every send written); record it the first time both sets are
  /// drained (later passes are no-ops).
  void freeze_span() {
    if (px_.meas_span_s == 0.0 && px_.recvs.all_done() &&
        px_.sends.all_done())
      px_.meas_span_s = px_.clock.elapsed_s();
  }

  template <typename ApplyFn>
  void apply_ready(ApplyFn& apply, Accumulator& compute_acc) {
    const std::size_t n = arrived_.size();
    while (next_ < n && arrived_[next_]) {
      comm::Wire msg = px_.recvs.at(next_).take_payload();
      Stopwatch sw;
      {
        ScopedTimer t(compute_acc);
        apply(next_, std::move(msg));
      }
      if (stream_ && next_ + 1 < n) window_s_ += sw.elapsed_s();
      ++next_;
    }
  }

  PendingExchange& px_;
  bool stream_;
  std::vector<char> arrived_; // landed, possibly not yet applied
  std::vector<std::size_t> ready_;
  std::size_t next_ = 0;      // first peer not yet applied
  double window_s_ = 0.0;
};

/// Per-exchange accounting summed over an epoch's exchanges, forward and
/// backward alike. Simulated fields come from the cost model (mailbox
/// fabric); measured fields from the exchange stopwatches (socket fabrics).
struct ExchangeTally {
  double sim_tail_s = 0.0;     // Σ slowest single peer message
  double sim_overlap_s = 0.0;  // Σ min(transfer, in-flight compute)
  double meas_span_s = 0.0;    // Σ post -> both directions complete
  double meas_overlap_s = 0.0; // Σ part of the span not blocked in a wait

  /// Count one drained exchange. `inflight` is the compute the caller ran
  /// while it was on the wire; the driver adds its own early-fold window.
  /// A blocking exchange hides nothing under the cost model.
  void add(const PendingExchange& px, const FoldDriver& fold,
           const Accumulator& inflight) {
    sim_tail_s += px.tail_s;
    if (fold.overlaps())
      sim_overlap_s +=
          std::min(px.sim_s, inflight.seconds() + fold.window_s());
    meas_span_s += px.meas_span_s;
    meas_overlap_s +=
        std::clamp(px.meas_span_s - px.wait_s, 0.0, px.meas_span_s);
  }
};

/// One rank's boundary-exchange engine: owns the post/fold pair of the
/// split-phase protocol, the per-layer forward driver built on it, and the
/// per-(layer, peer) halo-cache state (docs/ARCHITECTURE.md §9). Training,
/// evaluation and serving all run their forward through forward_layer —
/// one code path, one fp instruction stream; the backward half is
/// training-only (the trainer drives it) but its post/fold pair lives here
/// because it mirrors the same payload layout.
class HaloExchanger {
 public:
  struct Options {
    comm::CostModel cost;
    /// Halo cache (TrainerConfig::cache_mb semantics): per (peer, layer,
    /// direction) row budget in MiB; 0 disables. Layer 0 always caches
    /// when enabled, deeper layers only under a positive staleness bound.
    std::int64_t cache_mb = 0;
    int cache_staleness = 0;
    int num_layers = 0;
    std::int64_t feat_dim = 0;  // layer-0 row width
    std::int64_t hidden = 0;    // deeper-layer row width
    /// Schedule of every exchange (TrainerConfig::overlap).
    OverlapMode mode = OverlapMode::kBlocking;
    /// F1 chunk rows of forward_layer (TrainerConfig::inner_chunk_rows);
    /// 0 = one chunk covering every destination row.
    NodeId inner_chunk_rows = 0;
  };

  HaloExchanger(comm::Endpoint& ep, const Options& opts);

  /// Halo-cache epoch context: the directories age entries by epoch index,
  /// and the per-epoch hit/miss/bytes-saved counters reset here.
  void begin_epoch(int epoch);
  [[nodiscard]] std::int64_t cache_hits() const { return ep_cache_hits_; }
  [[nodiscard]] std::int64_t cache_misses() const { return ep_cache_misses_; }
  [[nodiscard]] std::int64_t bytes_saved() const { return ep_bytes_saved_; }

  /// Cached layers: layer 0 whenever the cache is on (its rows are
  /// epoch-invariant), deeper layers only under a positive staleness
  /// bound. Backward exchanges carry gradients — never cached.
  [[nodiscard]] bool cache_enabled(int layer) const {
    return layer >= 0 && static_cast<std::size_t>(layer) < cache_.size() &&
           !cache_[static_cast<std::size_t>(layer)].empty();
  }

  /// Post the backward exchange: send each owner its halo-gradient rows
  /// (scaled; slot s is row s of `dhalo`), irecv the contributions peers
  /// computed for our inner rows. The caller drains it through a
  /// FoldDriver with make_backward_fold.
  PendingExchange post_backward(const Matrix& dhalo, const EpochPlan& plan,
                                float scale, int tag);

  /// One layer's forward over its boundary exchange (Algorithm 1 lines
  /// 8-11), the only forward the partition-parallel engines run: post the
  /// exchange of `h_in`'s boundary rows, run the layer's halo-independent
  /// phase F1 in row chunks with a FoldDriver poll between chunks, drain
  /// the remaining peers in fixed order, and finish. When `build_inc` is
  /// set, `inc` is (re)built from plan.adj inside the in-flight window —
  /// pass it on the first layer of a pass; later layers reuse it (every
  /// layer of a pass aggregates over the same adjacency), and `inc` must
  /// outlive any phased backward of the pass. Compute, including fold
  /// work, is billed to `compute_acc`; the exchange lands in `tally`.
  struct LayerStep {
    int tag = 0;
    int cache_layer = -1;   // halo-cache channel; -1 bypasses the cache
    bool training = false;  // dropout on, backward caches kept
    bool build_inc = false;
  };
  [[nodiscard]] Matrix forward_layer(nn::Layer& layer, const Matrix& h_in,
                                     const EpochPlan& plan,
                                     nn::SourceIncidence& inc,
                                     std::span<const float> inv_deg,
                                     const LayerStep& step,
                                     Accumulator& compute_acc,
                                     ExchangeTally& tally);

  /// Backward fold: scatter-add the peer's gradient slab into the inner
  /// block, in fixed peer order (the accumulation order every mode shares
  /// — fp addition is not associative, so this is load-bearing). The
  /// backward direction is never cached, so the slab IS the wire payload.
  auto make_backward_fold(PendingExchange& px, const EpochPlan& plan,
                          Matrix& dinner) {
    return [this, &px, &plan, &dinner](std::size_t k, comm::Wire msg) {
      const std::int64_t d = dinner.cols();
      const auto& rows =
          plan.send_rows[static_cast<std::size_t>(px.peers[k])];
      BNSGCN_CHECK(msg.floats.size() ==
                   rows.size() * static_cast<std::size_t>(d));
      for (std::size_t t = 0; t < rows.size(); ++t) {
        float* dst = dinner.data() + static_cast<std::int64_t>(rows[t]) * d;
        const float* src = msg.floats.data() + t * static_cast<std::size_t>(d);
        for (std::int64_t c = 0; c < d; ++c) dst[c] += src[c];
      }
      ep_.release_floats(std::move(msg.floats));
    };
  }

 private:
  /// Post the forward exchange: isend this layer's sampled rows of
  /// h_inner (misses only on a cached channel), irecv the halo rows each
  /// owner will push to us. Per-peer byte totals are accumulated while
  /// posting — with the cache on, the message count is unchanged (every
  /// peer still gets one frame, possibly empty) but miss-only payloads
  /// shrink both the simulated exchange time and the straggler tail.
  /// `layer` is the halo-cache channel (-1 bypasses the cache —
  /// evaluation must not step the per-epoch directories).
  PendingExchange post_forward(const Matrix& h_inner, const EpochPlan& plan,
                               int tag, int layer);

  /// Forward fold: resolve the slab (cache-aware), scale it, and hand it
  /// to the layer's incremental protocol. Fold work is billed to the
  /// compute accumulator by the driver (it is compute the rank performs in
  /// every mode). Scaling happens on the assembled slab in the same
  /// element order as the uncached in-place scale, so the fp stream is
  /// unchanged by the cache.
  auto make_forward_fold(PendingExchange& px, const EpochPlan& plan,
                         nn::Layer& layer, float scale, std::int64_t d) {
    return [this, &px, &plan, &layer, scale, d](std::size_t k,
                                                comm::Wire msg) {
      const auto& slots =
          plan.recv_slots[static_cast<std::size_t>(px.peers[k])];
      const auto rows = slab_rows(px, plan, k, msg, d);
      if (scale != 1.0f)
        for (float& v : rows) v *= scale;
      layer.forward_halo_fold(plan.adj, slots, rows);
      ep_.release_floats(std::move(msg.floats));
    };
  }

  /// Simulated transfer time of one peer message of `bytes` payload bytes
  /// (one message: latency + bytes/bandwidth).
  [[nodiscard]] double msg_sim_s(std::int64_t bytes) const;

  /// max(tx, rx) wire occupancy of one exchange from its accumulated byte
  /// and message totals (same latency+bandwidth law as
  /// RankStats::sim_seconds; full duplex, so the directions overlap).
  [[nodiscard]] double duplex_sim_s(std::int64_t tx_bytes,
                                    std::int64_t tx_msgs,
                                    std::int64_t rx_bytes,
                                    std::int64_t rx_msgs) const;

  /// Staleness argument for a cached layer's directories: layer 0 never
  /// goes stale; deeper layers refresh after cache_staleness epochs.
  [[nodiscard]] int cache_max_age(int layer) const {
    return layer == 0 ? -1 : opt_.cache_staleness;
  }

  /// Resolve peer k's received message into this exchange's full row block
  /// (list order, unscaled): the wire payload itself on an uncached
  /// channel; on a cached one, hits materialize from the store and misses
  /// are consumed from the frame in order (kMissStore rows also refresh
  /// the store — raw wire bytes, so a later hit replays the identical
  /// values). Returns either msg.floats or the persistent fold scratch.
  std::span<float> slab_rows(PendingExchange& px, const EpochPlan& plan,
                             std::size_t k, comm::Wire& msg, std::int64_t d);

  comm::Endpoint& ep_;
  Options opt_;
  // Halo cache (docs/ARCHITECTURE.md §9). cache_[l] is empty when layer l
  // does not cache; otherwise one entry per peer. send_dir mirrors the
  // peer's recv_dir for the channel we send on; recv_dir classifies what
  // we receive, with `store` holding the raw (unscaled) wire rows of
  // hits, indexed by the directory's dense slot ids.
  struct LayerPeerCache {
    HaloCacheDir send_dir;
    HaloCacheDir recv_dir;
    std::vector<float> store;
  };
  std::vector<std::vector<LayerPeerCache>> cache_;
  std::vector<float> fold_scratch_; // cached-slab assembly, reused
  std::int64_t ep_cache_hits_ = 0;
  std::int64_t ep_cache_misses_ = 0;
  std::int64_t ep_bytes_saved_ = 0;
  int epoch_ = 0;
};

} // namespace bnsgcn::core
