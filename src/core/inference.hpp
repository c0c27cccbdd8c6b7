#pragma once

#include <vector>

#include "comm/fabric.hpp"
#include "core/local_graph.hpp"
#include "core/trainer.hpp"
#include "graph/dataset.hpp"

namespace bnsgcn::core {

/// One serve run's request generator + loop parameters (api::ServeConfig is
/// the config-file spelling). Queries are global node ids drawn from a
/// single persistent stream seeded with `seed`: batch b serves queries
/// [b*batch_size, (b+1)*batch_size) of that flat stream, so two runs with
/// the same seed and the same total query count serve the identical queries
/// in the identical order regardless of how they are batched — the anchor
/// of the cross-batch-size determinism tests. Batches are answered from
/// the logits table built once per serve call, so a batch's cost is owner
/// lookups plus the gather to rank 0, not a forward.
struct ServeOptions {
  int batch_size = 32;
  int num_batches = 8;
  std::uint64_t seed = 1;
  /// Keep the per-query logits rows in the result (the determinism tests'
  /// bitwise oracle). Off by default: predictions are always kept and are
  /// what a real client consumes.
  bool record_logits = false;
  /// Test-only: the named rank throws just before the table build's
  /// exchange, exercising the serve-path shutdown (peers blocked
  /// mid-exchange surface comm::ShutdownError instead of hanging). -1
  /// disables. Not serialized.
  int fail_rank = -1;
};

/// Accounting for one request batch, or for the table build (`load`).
/// latency_s is measured wall time on rank 0 from the entry barrier to the
/// assembled predictions (for `load`: to every rank holding its table);
/// comm_s is the exchange wire time under the cost model (max over ranks),
/// and the byte counters sum over ranks — same conventions as
/// EpochBreakdown, so serve and train artifacts compare directly.
struct ServeBatchStats {
  double latency_s = 0.0;
  double comm_s = 0.0;
  std::int64_t feature_bytes = 0;
  std::int64_t control_bytes = 0;
};

/// Rank 0's view of a completed serve run (other ranks participated in the
/// collectives but hold empty curves, exactly like TrainResult).
struct ServeResult {
  std::vector<NodeId> queries;     // global ids, flat across batches
  std::vector<int> predictions;    // argmax class per query
  std::vector<float> logits;       // queries × num_classes, row-major;
                                   // empty unless ServeOptions::record_logits
  ServeBatchStats load;            // the one full-graph forward (table build)
  std::vector<ServeBatchStats> batches;
  int num_classes = 0;
  double wall_time_s = 0.0;        // the request loop, excluding `load`
  comm::TimingSource timing = comm::TimingSource::kSimulated;
};

/// Forward-only serving over the partitioned graph (docs/ARCHITECTURE.md
/// §10): load a WeightSnapshot captured by training, put every layer in
/// inference mode (backward buffers freed), run the exact split-phase
/// forward the trainer runs — the same HaloExchanger::forward_layer, same
/// fold order — once over the full plan, and answer every query batch from
/// that owner-resident logits table. Served logits are therefore
/// bit-identical to a training-path forward of the same weights, across
/// transports, overlap modes and batch sizes.
///
/// Reuses TrainerConfig for the model/comm knobs (num_layers, hidden,
/// model, overlap, inner_chunk_rows, threads, cost); training-only fields
/// (lr, epochs, dropout, sampling, cache_mb, cache_staleness) are ignored —
/// serving always exchanges the full boundary set, once.
class InferenceEngine {
 public:
  /// `weights` must hold the stack's parameters flattened in params()
  /// order (what TrainerConfig::capture_weights produces); shapes are
  /// checked on load. ds/part/weights are borrowed for the engine's
  /// lifetime.
  InferenceEngine(const Dataset& ds, const Partitioning& part,
                  TrainerConfig cfg, const WeightSnapshot& weights);

  /// In-process serve: mailbox fabric, one thread per partition, same
  /// deadlock-free failure handling as BnsTrainer::train().
  [[nodiscard]] ServeResult serve(const ServeOptions& opts);

  /// One rank of the serve loop against an externally constructed fabric —
  /// the multi-process runtime's entry point (api::serve over sockets).
  [[nodiscard]] ServeResult serve_rank(comm::Fabric& fabric, PartId rank,
                                       const ServeOptions& opts);

  [[nodiscard]] const std::vector<LocalGraph>& local_graphs() const {
    return local_graphs_;
  }

 private:
  const Dataset& ds_;
  TrainerConfig cfg_;
  Partitioning part_;
  const WeightSnapshot& weights_;
  std::vector<LocalGraph> local_graphs_;
};

} // namespace bnsgcn::core
