#include "core/inference.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/boundary_sampler.hpp"
#include "core/halo_exchange.hpp"

namespace bnsgcn::core {

namespace {

using comm::TrafficClass;

/// Per-rank serving state and loop: the forward-only mirror of the
/// trainer's RankWorker. One instance per rank — a thread on the mailbox
/// fabric, a whole OS process on a socket fabric.
class ServeWorker {
 public:
  ServeWorker(const Dataset& ds, const TrainerConfig& cfg,
              const WeightSnapshot& weights, const LocalGraph& lg,
              const std::vector<PartId>& owner, comm::Endpoint& ep)
      : ds_(ds), cfg_(cfg), lg_(lg), owner_(owner), ep_(ep) {
    common::set_ops_threads(
        cfg_.threads_oversubscribe
            ? cfg_.threads
            : common::clamp_rank_threads(cfg_.threads, ep_.nranks()));
    x_local_ = slice_rows(ds.features, lg_.inner_global);

    layers_ = build_model(cfg_, ds.feat_dim(), ds.num_classes, ep_.rank());
    // Load the snapshot: parameters travel flattened in params() order —
    // the same order the allreduce and Adam traverse, so the stack built
    // here holds bit-for-bit the trained weights.
    std::vector<Matrix*> params;
    for (auto& l : layers_)
      for (Matrix* p : l->params()) params.push_back(p);
    BNSGCN_CHECK_MSG(weights.params.size() == params.size(),
                     "weight snapshot does not match the configured stack: " +
                         std::to_string(weights.params.size()) + " tensors vs " +
                         std::to_string(params.size()));
    for (std::size_t i = 0; i < params.size(); ++i) {
      BNSGCN_CHECK_MSG(weights.params[i].rows() == params[i]->rows() &&
                           weights.params[i].cols() == params[i]->cols(),
                       "weight snapshot tensor " + std::to_string(i) +
                           " has mismatched shape");
      *params[i] = weights.params[i];
    }
    // Inference mode: maskless activations (identical values), backward
    // caches and gradient buffers freed.
    for (auto& l : layers_) l->set_inference(true);
    use_phased_ = std::all_of(
        layers_.begin(), layers_.end(),
        [](const auto& l) { return l->supports_phased(); });

    // Serving always exchanges the full boundary set (the unsampled plan —
    // queries are answered over the exact graph).
    BoundarySampler::Options so;
    so.seed = cfg_.seed;
    sampler_.emplace(lg_, so);
    full_plan_ = sampler_->full_plan();

    // The halo cache is a training-only knob: the table build is the only
    // exchange serving runs, and a single forward has nothing to hit.
    hx_.emplace(ep_, HaloExchanger::Options{.cost = cfg_.cost,
                                            .num_layers = cfg_.num_layers,
                                            .feat_dim = ds.feat_dim(),
                                            .hidden = cfg_.hidden});
  }

  [[nodiscard]] ServeResult run(const ServeOptions& opts) {
    BNSGCN_CHECK(opts.batch_size >= 1 && opts.num_batches >= 0);
    ServeResult result;
    result.num_classes = ds_.num_classes;
    result.timing = ep_.timing();
    record_logits_ = opts.record_logits;

    // Load: the snapshot's one full-graph forward materializes this rank's
    // n_inner × num_classes logits table, which answers every batch below.
    // The clock runs from a synchronized start until every rank holds its
    // table; the bytes are this rank's forward traffic alone.
    ep_.barrier();
    // Test-only fault injection (ServeOptions::fail_rank): die just before
    // the build's exchange, leaving peers blocked mid-exchange — the
    // fabric's shutdown path must unwind them with ShutdownError.
    if (opts.fail_rank == ep_.rank())
      throw std::runtime_error("injected serve failure: rank " +
                               std::to_string(ep_.rank()));
    comm::RankStats before = ep_.stats();
    Stopwatch load_clock;
    const Matrix table = forward_full_graph();
    const comm::RankStats load_delta = diff(ep_.stats(), before);
    ep_.barrier();
    result.load = sum_over_ranks(load_clock.elapsed_s(), load_delta);

    Stopwatch wall;
    // Every rank draws the identical flat query stream (same seed, same
    // generator), so owners and rank 0 agree on the queries without any
    // extra wire traffic — and the stream is independent of batching.
    Rng query_rng(opts.seed ^ 0x5E47EFACEULL);
    const auto n_nodes = static_cast<std::uint64_t>(ds_.num_nodes());

    for (int b = 0; b < opts.num_batches; ++b) {
      std::vector<NodeId> queries(static_cast<std::size_t>(opts.batch_size));
      for (auto& q : queries)
        q = static_cast<NodeId>(query_rng.next_below(n_nodes));

      // Latency is measured from a synchronized start: the barrier is the
      // request batch's arrival edge, and rank 0's clock stops once the
      // batch's predictions are assembled.
      ep_.barrier();
      before = ep_.stats();
      Stopwatch latency;
      gather_batch(queries, table, result);
      const double latency_s = latency.elapsed_s();
      const ServeBatchStats stats =
          sum_over_ranks(latency_s, diff(ep_.stats(), before));
      if (ep_.rank() == 0) result.batches.push_back(stats);
    }
    result.wall_time_s = wall.elapsed_s();
    return result;
  }

 private:
  int next_tag() { return tag_seq_++; }

  static comm::RankStats diff(const comm::RankStats& now,
                              const comm::RankStats& before) {
    comm::RankStats d;
    for (int c = 0; c < static_cast<int>(TrafficClass::kCount); ++c) {
      d.tx_bytes[c] = now.tx_bytes[c] - before.tx_bytes[c];
      d.rx_bytes[c] = now.rx_bytes[c] - before.rx_bytes[c];
      d.tx_msgs[c] = now.tx_msgs[c] - before.tx_msgs[c];
      d.rx_msgs[c] = now.rx_msgs[c] - before.rx_msgs[c];
    }
    return d;
  }

  /// Fold every rank's traffic `delta` into one stats row on rank 0 (other
  /// ranks get latency and bytes of zero). The allgather runs after the
  /// latency clock stopped, so the bookkeeping never pollutes the
  /// measurement; the collective also keeps ranks in lockstep, so the
  /// per-batch traffic deltas are unambiguous.
  ServeBatchStats sum_over_ranks(double latency_s,
                                 const comm::RankStats& delta) {
    const std::vector<double> local = {
        delta.sim_seconds(TrafficClass::kFeature, cfg_.cost),
        static_cast<double>(
            delta.rx_bytes[static_cast<int>(TrafficClass::kFeature)]),
        static_cast<double>(
            delta.rx_bytes[static_cast<int>(TrafficClass::kControl)])};
    const auto slots = ep_.allgather_doubles(local);
    ServeBatchStats stats;
    if (ep_.rank() != 0) return stats;
    stats.latency_s = latency_s;
    double feature_rx = 0.0, control_rx = 0.0;
    for (const auto& s : slots) {
      stats.comm_s = std::max(stats.comm_s, s[0]);
      feature_rx += s[1];
      control_rx += s[2];
    }
    stats.feature_bytes = static_cast<std::int64_t>(feature_rx);
    stats.control_bytes = static_cast<std::int64_t>(control_rx);
    return stats;
  }

  /// One full-graph forward over the inner block — the trainer's phased
  /// schedule verbatim (post → halo-independent chunks with interleaved
  /// polls → in-order drain → finish), minus the breakdown plumbing. The
  /// shared HaloExchanger/FoldDriver path is what makes the table
  /// bit-identical to a training-path forward of the same weights.
  [[nodiscard]] Matrix forward_full_graph() {
    const EpochPlan& plan = full_plan_;
    const OverlapMode mode = cfg_.overlap;
    const bool stream = mode == OverlapMode::kStream;
    const int L = cfg_.num_layers;
    Accumulator compute_acc; // FoldDriver bookkeeping; unused further
    nn::HaloIncidence halo_inc;
    if (use_phased_) halo_inc.build(plan.adj, plan.adj.n_dst);
    Matrix h = x_local_;
    for (int l = 0; l < L; ++l) {
      const int tag = next_tag();
      auto& layer = *layers_[static_cast<std::size_t>(l)];
      if (use_phased_) {
        PendingExchange px = hx_->post_forward(h, plan, tag, l);
        if (mode == OverlapMode::kBlocking) px.recvs.wait_all();
        layer.forward_inner_begin(plan.adj, h, /*training=*/false);
        layer.forward_halo_begin(plan.adj, halo_inc);
        FoldDriver fold(px, stream);
        auto apply =
            hx_->make_forward_fold(px, plan, layer, /*scale=*/1.0f, h.cols());
        const NodeId n_dst = plan.adj.n_dst;
        const NodeId step =
            cfg_.inner_chunk_rows > 0 ? cfg_.inner_chunk_rows : n_dst;
        for (NodeId r0 = 0; r0 < n_dst; r0 += step) {
          const NodeId r1 = std::min<NodeId>(r0 + step, n_dst);
          layer.forward_inner_chunk(plan.adj, r0, r1);
          fold.poll(apply, compute_acc);
        }
        fold.drain(apply, compute_acc);
        h = layer.forward_halo_finish(plan.adj, lg_.inv_full_degree);
      } else {
        Matrix feats = hx_->exchange_forward(h, lg_.n_inner(), plan,
                                             /*scale=*/1.0f, tag, l);
        h = layer.forward(plan.adj, feats, lg_.inv_full_degree,
                          /*training=*/false);
      }
    }
    return h;
  }

  /// Complete `req`, polling it for up to kSpinBeforeBlock_s before
  /// blocking. A serve round trip is microseconds of work on each side, so a
  /// blocking wait's wake-up would dominate it. Yielding between polls keeps
  /// a host with more ranks than cores from starving the rank waited on.
  static void spin_then_wait(comm::Request& req) {
    constexpr double kSpinBeforeBlock_s = 100e-6;
    const Stopwatch spin;
    while (!req.test()) {
      if (spin.elapsed_s() > kSpinBeforeBlock_s) {
        req.wait();
        return;
      }
      std::this_thread::yield();
    }
  }

  /// This rank's rows of the logits table for the queries it owns, in
  /// query order.
  [[nodiscard]] std::vector<float> owned_rows(
      const std::vector<NodeId>& queries, const Matrix& table) const {
    const auto c = static_cast<std::ptrdiff_t>(table.cols());
    std::vector<float> rows;
    for (const NodeId q : queries) {
      if (owner_[static_cast<std::size_t>(q)] != ep_.rank()) continue;
      const auto it = std::lower_bound(lg_.inner_global.begin(),
                                       lg_.inner_global.end(), q);
      BNSGCN_CHECK(it != lg_.inner_global.end() && *it == q);
      const float* src =
          table.data() + std::distance(lg_.inner_global.begin(), it) * c;
      rows.insert(rows.end(), src, src + c);
    }
    return rows;
  }

  /// Route the batch's rows of the logits table to rank 0 and assemble them
  /// in query order. Every rank knows the full query list (shared stream)
  /// and every node's owner (the shared partitioning). Rank 0 dispatches
  /// the batch to each peer owning part of it with an empty kControl
  /// message — the request hop, so no owner answers before rank 0's clock
  /// starts — and each such owner replies with its rows in query order. A
  /// rank owning none of the batch exchanges nothing. Rank 0 receives the
  /// peers in ascending rank order — the same fixed-order convention as
  /// every other cross-rank path — and places each peer's rows at the
  /// positions it owns.
  void gather_batch(const std::vector<NodeId>& queries, const Matrix& table,
                    ServeResult& result) {
    const auto c = static_cast<std::size_t>(table.cols());
    std::vector<std::size_t> expected(static_cast<std::size_t>(ep_.nranks()));
    for (const NodeId q : queries)
      ++expected[static_cast<std::size_t>(owner_[static_cast<std::size_t>(q)])];

    const int tag = next_tag();
    if (ep_.rank() != 0) {
      if (expected[static_cast<std::size_t>(ep_.rank())] == 0) return;
      comm::Request dispatch = ep_.irecv_ids(0, tag, TrafficClass::kControl);
      spin_then_wait(dispatch);
      ep_.send_floats(0, tag, owned_rows(queries, table),
                      TrafficClass::kControl);
      return;
    }

    for (PartId p = 1; p < ep_.nranks(); ++p)
      if (expected[static_cast<std::size_t>(p)] > 0)
        ep_.send_ids(p, tag, {}, TrafficClass::kControl);
    std::vector<std::vector<float>> rows(expected.size());
    rows[0] = owned_rows(queries, table);
    for (PartId p = 1; p < ep_.nranks(); ++p) {
      const auto pi = static_cast<std::size_t>(p);
      if (expected[pi] == 0) continue;
      comm::Request reply = ep_.irecv_floats(p, tag, TrafficClass::kControl);
      spin_then_wait(reply);
      rows[pi] = reply.take_floats();
      BNSGCN_CHECK_MSG(rows[pi].size() == expected[pi] * c,
                       "serve gather: rank " + std::to_string(p) + " sent " +
                           std::to_string(rows[pi].size() / c) + " of " +
                           std::to_string(expected[pi]) + " rows");
    }

    // Assemble in query order: each peer's rows arrive in its query order.
    std::vector<std::size_t> cursor(expected.size());
    result.queries.insert(result.queries.end(), queries.begin(),
                          queries.end());
    for (const NodeId q : queries) {
      const auto p =
          static_cast<std::size_t>(owner_[static_cast<std::size_t>(q)]);
      const float* row = rows[p].data() + cursor[p]++ * c;
      // First-max argmax.
      result.predictions.push_back(static_cast<int>(
          std::distance(row, std::max_element(row, row + c))));
      if (record_logits_) result.logits.insert(result.logits.end(), row, row + c);
    }
  }

  const Dataset& ds_;
  const TrainerConfig& cfg_;
  const LocalGraph& lg_;
  const std::vector<PartId>& owner_;  // global node id -> owning rank
  comm::Endpoint& ep_;

  Matrix x_local_;
  std::vector<std::unique_ptr<nn::Layer>> layers_;
  std::optional<BoundarySampler> sampler_;
  EpochPlan full_plan_;
  std::optional<HaloExchanger> hx_;
  bool use_phased_ = false;
  bool record_logits_ = false;
  int tag_seq_ = 0;
};

} // namespace

InferenceEngine::InferenceEngine(const Dataset& ds, const Partitioning& part,
                                 TrainerConfig cfg,
                                 const WeightSnapshot& weights)
    : ds_(ds), cfg_(std::move(cfg)), part_(part), weights_(weights) {
  BNSGCN_CHECK(cfg_.num_layers >= 1);
  BNSGCN_CHECK_MSG(!weights_.empty(),
                   "api::serve needs a trained weight snapshot "
                   "(TrainerConfig::capture_weights)");
  local_graphs_ = build_local_graphs(ds.graph, part_);
}

ServeResult InferenceEngine::serve_rank(comm::Fabric& fabric, PartId rank,
                                        const ServeOptions& opts) {
  BNSGCN_CHECK(rank >= 0 && rank < part_.nparts &&
               fabric.nranks() == part_.nparts);
  ServeWorker worker(ds_, cfg_, weights_,
                     local_graphs_[static_cast<std::size_t>(rank)],
                     part_.owner, fabric.endpoint(rank));
  return worker.run(opts);
}

ServeResult InferenceEngine::serve(const ServeOptions& opts) {
  const PartId m = part_.nparts;
  comm::Fabric fabric(m, cfg_.cost);
  ServeResult result;

  // lint: allow(raw-thread) — rank runtime, one OS thread per simulated
  // rank, mirroring BnsTrainer::train(); kernel-level parallelism inside
  // each rank still goes through the pool.
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(m));
  threads.reserve(static_cast<std::size_t>(m));
  for (PartId r = 0; r < m; ++r) {
    threads.emplace_back([&, r] {
      try {
        ServeResult local = serve_rank(fabric, r, opts);
        if (r == 0) result = std::move(local);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        // Tear the fabric down so peers blocked on this rank unwind with
        // ShutdownError instead of hanging mid-request-stream.
        fabric.shutdown(r);
      }
    });
  }
  for (auto& t : threads) t.join();
  // Rethrow the root cause: a ShutdownError is collateral of some other
  // rank's failure, so prefer any non-shutdown exception.
  std::exception_ptr first, root;
  for (const auto& e : errors) {
    if (!e) continue;
    if (!first) first = e;
    if (!root) {
      try {
        std::rethrow_exception(e);
      } catch (const comm::ShutdownError&) {
      } catch (...) {
        root = e;
      }
    }
  }
  if (root) std::rethrow_exception(root);
  if (first) std::rethrow_exception(first);
  return result;
}

} // namespace bnsgcn::core
