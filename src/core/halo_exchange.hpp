#pragma once

#include <span>
#include <vector>

#include "comm/fabric.hpp"
#include "common/stopwatch.hpp"
#include "core/boundary_sampler.hpp"
#include "core/halo_cache.hpp"
#include "nn/layer.hpp"
#include "tensor/matrix.hpp"

namespace bnsgcn::core {

// ---- Pipelined (split-phase) exchange -------------------------------------
// One in-flight boundary exchange: sends are posted eagerly, receives into a
// completion set; the caller computes the halo-independent phase and folds
// the payloads afterwards. The fold always applies peers in ascending index
// order (deterministic reduction): blocking waits for everything right after
// posting, bulk waits at fold time, stream polls the set and applies each
// peer the moment it and every earlier peer have landed — the fold itself
// sits at the same point of the schedule with the same order in every mode,
// so all three execute the identical fp instruction stream.
//
// This machinery is shared verbatim by the trainer (core/trainer.cpp) and
// the forward-only serving engine (core/inference.cpp): the serving path
// reuses the exact post/fold code, which is what makes served logits
// bit-identical to the training-forward oracle (docs/ARCHITECTURE.md §10).

struct PendingExchange {
  std::vector<comm::Request> sends;  // complete on posting (eager)
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
  // posted; span is frozen at the last receive completion — right after
  // the wait in blocking mode, inside the fold driver otherwise.
  Stopwatch clock;
  double meas_span_s = 0.0;  // post -> last receive completion
  double wait_s = 0.0;       // portion of the span spent blocked in waits
};

// ---- Streaming fold engine ------------------------------------------------
// The heart of OverlapMode::kStream: make progress on the completion set
// and hand each peer's slab to the layer (or the scatter-add) the moment
// it AND every lower-indexed peer have landed. Buffer-then-apply-in-order
// is what keeps the reduction deterministic: out-of-order arrivals sit
// completed in their Request slot (the wire buffer — see comm::Request)
// until their turn, so the numeric fold order is identical to a bulk
// wait_all, while the fold *work* of early peers overlaps the transfers
// still in flight. poll() is the nonblocking pass the trainer runs
// between F1 chunks (folds interleave mid-F1); drain() completes the
// remainder with wait_any progress.
//
// Accounting follows the schedule, not the in-process mailboxes (whose
// eager delivery reflects thread-scheduling skew, not wire time — the
// same convention PR 2 used for the bulk window): under the simulated
// wire, the fold of peer k runs while the transfers of peers k+1.. are
// still on the wire, so every fold except the last peer's widens the
// overlap window. window_s() reports that measured extra window —
// always 0 for bulk/blocking, whose wait_all precedes the first apply.

class FoldDriver {
 public:
  FoldDriver(PendingExchange& px, bool stream)
      : px_(px), stream_(stream),
        arrived_(px.recvs.size(), stream ? 0 : 1) {}

  /// Nonblocking progress pass: mark what landed, apply every ready
  /// in-order peer through `apply(k, payload)`. No-op outside stream
  /// mode (bulk/blocking apply only at drain time).
  template <typename ApplyFn>
  void poll(ApplyFn&& apply, Accumulator& compute_acc) {
    if (!stream_ || next_ >= arrived_.size()) return;
    ready_.clear();
    (void)px_.recvs.poll(ready_);
    for (const std::size_t i : ready_) arrived_[i] = 1;
    freeze_span();
    apply_ready(apply, compute_acc);
  }

  /// Block until every peer has been applied.
  template <typename ApplyFn>
  void drain(ApplyFn&& apply, Accumulator& compute_acc) {
    if (!stream_) {
      Stopwatch w;
      px_.recvs.wait_all();
      px_.wait_s += w.elapsed_s();
      freeze_span();
    }
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
    freeze_span();
  }

  /// Stream window: fold seconds of every peer but the last (the folds
  /// that ran while at least one later transfer was still in flight).
  [[nodiscard]] double window_s() const { return window_s_; }

 private:
  /// Measured span ends at the last receive completion; record it the
  /// first time the set drains empty (later passes are no-ops).
  void freeze_span() {
    if (px_.meas_span_s == 0.0 && px_.recvs.all_done())
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

/// One rank's boundary-exchange engine: owns the post/fold pair of the
/// split-phase protocol, the blocking assembled forms built on it, and the
/// per-(layer, peer) halo-cache state (docs/ARCHITECTURE.md §9). Extracted
/// from the trainer's RankWorker so the forward half is shared — verbatim,
/// same fp instruction stream — with the serving engine; the backward half
/// is training-only but lives here because it is the mirror of the same
/// payload layout.
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

  /// Post the backward exchange: send each owner its halo-gradient rows
  /// (scaled; slot s lives at row halo_row0 + s of `dsrc`), irecv the
  /// contributions peers computed for our inner rows.
  PendingExchange post_backward(const Matrix& dsrc, NodeId halo_row0,
                                const EpochPlan& plan, float scale, int tag);

  /// Complete the forward exchange: place each peer's rows into its
  /// compact halo slots of `dst` starting at row `halo_row0` (0 for a
  /// bare halo block, n_inner for an assembled [inner; halo] matrix),
  /// applying the 1/p scale. The fold buffer is distinct from the wire
  /// buffers — see comm::Request.
  void fold_forward(PendingExchange& px, const EpochPlan& plan, float scale,
                    Matrix& dst, NodeId halo_row0);

  /// Complete the backward exchange: scatter-add remote contributions into
  /// the inner-gradient block (same per-peer order as every other path).
  void fold_backward(PendingExchange& px, const EpochPlan& plan,
                     Matrix& dinner);

  /// Gather + send this layer's rows, receive the (scaled) halo block and
  /// return the assembled source-feature matrix [inner; halo]. Blocking
  /// form of the exchange, expressed through the same post/fold pair as
  /// the pipeline so the payload layout exists exactly once.
  Matrix exchange_forward(const Matrix& h_inner, NodeId n_inner,
                          const EpochPlan& plan, float scale, int tag,
                          int layer);

  /// Send halo-feature gradients back to their owners; returns the inner
  /// gradient block with remote contributions scatter-added. Blocking form
  /// of the backward exchange, same post/fold pair as the pipeline.
  Matrix exchange_backward(const Matrix& dfeats, NodeId n_inner,
                           const EpochPlan& plan, float scale, int tag);

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
