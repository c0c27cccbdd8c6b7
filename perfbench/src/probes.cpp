// Per-layer probes: each span wraps one call into a module's public
// function, fed with the workload's own inputs (its partition, rank 0's
// local graph and sampled plan, its per-peer halo sizes). Spans are
// recorded from here, outside the library; spans inside it are future work.

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>

#include "api/multiprocess.hpp"
#include "comm/fabric.hpp"
#include "core/boundary_sampler.hpp"
#include "core/epoch_planner.hpp"
#include "core/halo_cache.hpp"
#include "core/local_graph.hpp"
#include "nn/adam.hpp"
#include "nn/sage_layer.hpp"
#include "partition/stats.hpp"
#include "shared_log.hpp"
#include "tensor/ops.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bnsgcn;
using json::Value;

namespace {

constexpr int kKernelReps = 9;
constexpr int kCommReps = 15;
constexpr int kBuildReps = 3;
constexpr int kCacheEpochs = 10;
constexpr std::int64_t kCacheMb = 4;

Matrix random_matrix(std::int64_t rows, std::int64_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (float& x : m.flat()) x = rng.next_float() - 0.5f;
  return m;
}

/// Rank 0's plan for one epoch at the probe's rate: the real sampler, with
/// its index negotiation over an in-process fabric (one thread per rank).
core::EpochPlan rank0_plan(const std::vector<core::LocalGraph>& lgs,
                           float rate, std::uint64_t seed) {
  if (rate >= 1.0f) {
    return core::BoundarySampler(lgs[0], core::BoundarySampler::Options{})
        .full_plan();
  }
  const auto n = static_cast<PartId>(lgs.size());
  comm::Fabric fabric(n);
  std::vector<core::EpochPlan> plans(lgs.size());
  std::vector<std::thread> threads;
  for (PartId r = 0; r < n; ++r) {
    threads.emplace_back([&, r] {
      core::BoundarySampler::Options so;
      so.rate = rate;
      so.seed = Rng(seed).split(static_cast<std::uint64_t>(r)).next_u64();
      core::BoundarySampler sampler(lgs[static_cast<std::size_t>(r)], so);
      plans[static_cast<std::size_t>(r)] =
          sampler.sample_epoch(fabric.endpoint(r), /*tag=*/1);
    });
  }
  for (auto& t : threads) t.join();
  return std::move(plans[0]);
}

std::int64_t param_floats(const core::TrainerConfig& tcfg, const Dataset& ds) {
  std::int64_t n = 0;
  for (auto& l : core::build_model(tcfg, ds.feat_dim(), ds.num_classes, 0))
    for (Matrix* p : l->params()) n += p->size();
  return n;
}

void kernel_probes(const core::LocalGraph& lg, const core::EpochPlan& plan,
                   const Dataset& ds, const core::TrainerConfig& tcfg,
                   Rng& rng) {
  const std::int64_t f = ds.feat_dim();
  const std::int64_t h = tcfg.hidden;
  const std::int64_t n_dst = plan.adj.n_dst;
  const std::int64_t n_src = plan.adj.n_src;
  const std::span<const float> inv_deg(lg.inv_full_degree);

  // Layer 0's SAGE transform: [agg | self] (n × 2f) · W (2f × h), and the
  // weight gradient Uᵀ·G of the backward pass.
  const Matrix u = random_matrix(n_dst, 2 * f, rng);
  const Matrix w = random_matrix(2 * f, h, rng);
  const Matrix g = random_matrix(n_dst, h, rng);
  Matrix c(n_dst, h), dw(2 * f, h);
  const double gemm_flops = 2.0 * static_cast<double>(n_dst * 2 * f * h);
  for (int i = 0; i < kKernelReps; ++i) {
    Span s("tensor.gemm_nn", gemm_flops);
    ops::gemm_nn(u, w, c);
  }
  for (int i = 0; i < kKernelReps; ++i) {
    Span s("tensor.gemm_tn", gemm_flops);
    ops::gemm_tn(u, g, dw);
  }

  // Mean aggregation over the plan's adjacency: every edge reads one
  // source row, every destination writes one row (computed bytes).
  const Matrix src = random_matrix(n_src, f, rng);
  const Matrix dout = random_matrix(n_dst, f, rng);
  Matrix agg(n_dst, f), dsrc(n_src, f);
  const double agg_bytes =
      static_cast<double>((plan.adj.num_edges() + n_dst) * f) * sizeof(float);
  for (int i = 0; i < kKernelReps; ++i) {
    Span s("nn.mean_aggregate", agg_bytes);
    nn::mean_aggregate(plan.adj, src, inv_deg, agg);
  }
  for (int i = 0; i < kKernelReps; ++i) {
    dsrc.fill(0.0f);
    Span s("nn.mean_aggregate_backward", agg_bytes);
    nn::mean_aggregate_backward(plan.adj, dout, inv_deg, dsrc);
  }

  // A whole layer-0 SAGE layer, forward then backward.
  Rng init(tcfg.seed);
  nn::SageLayer layer(f, h, {.relu = true, .dropout = tcfg.dropout}, init);
  layer.set_dropout_rng(Rng(tcfg.seed + 1));
  for (int i = 0; i < kKernelReps; ++i) {
    {
      Span s("nn.sage.forward");
      (void)layer.forward(plan.adj, src, inv_deg, /*training=*/true);
    }
    Span s("nn.sage.backward");
    (void)layer.backward(plan.adj, g, inv_deg);
  }

  // One optimizer step over the full model's parameters.
  auto model = core::build_model(tcfg, f, ds.num_classes, 0);
  std::vector<Matrix*> params, grads;
  for (auto& l : model) {
    for (Matrix* p : l->params()) params.push_back(p);
    for (Matrix* q : l->grads()) {
      for (float& x : q->flat()) x = rng.next_float() - 0.5f;
      grads.push_back(q);
    }
  }
  nn::Adam adam(params, grads, nn::Adam::Options{.lr = tcfg.lr});
  for (int i = 0; i < kKernelReps; ++i) {
    Span s("nn.adam.step");
    adam.step();
  }
}

/// Sampler draws on rank 0's local graph, plus the kept share of its halo.
double sampler_probe(const core::LocalGraph& lg, float rate, Rng& rng) {
  const core::BnsPlanner planner({.rate = rate, .unbiased_scaling = true});
  double kept = 0.0;
  for (int i = 0; i < kKernelReps; ++i) {
    core::EpochDraw d;
    {
      Span s("core.sampler.draw");
      d = planner.draw(lg, rng);
    }
    kept += static_cast<double>(std::count(d.halo_kept.begin(),
                                           d.halo_kept.end(), 1));
  }
  return lg.n_halo() > 0 ? kept / kKernelReps / static_cast<double>(lg.n_halo())
                         : 0.0;
}

/// Rank 0's receive-side layer-0 halo cache (4 MiB per peer) over
/// consecutive epochs of the workload's request pattern.
void cache_probe(const core::LocalGraph& lg, float rate, std::int64_t feat_dim,
                 Rng& rng, Value& counters) {
  const core::BnsPlanner planner({.rate = rate, .unbiased_scaling = true});
  const auto cap = static_cast<NodeId>(kCacheMb * (1 << 20) /
                                       (feat_dim * static_cast<std::int64_t>(sizeof(float))));
  std::vector<core::HaloCacheDir> dirs(lg.recv_halo.size(), core::HaloCacheDir(cap));
  std::int64_t hits = 0, misses = 0;
  for (int epoch = 0; epoch < kCacheEpochs; ++epoch) {
    const core::EpochDraw d = planner.draw(lg, rng);
    for (std::size_t peer = 0; peer < lg.recv_halo.size(); ++peer) {
      std::vector<NodeId> pos;
      const auto& halo = lg.recv_halo[peer];
      for (std::size_t i = 0; i < halo.size(); ++i)
        if (d.halo_kept[static_cast<std::size_t>(halo[i])] != 0)
          pos.push_back(static_cast<NodeId>(i));
      if (pos.empty()) continue;
      const core::CacheStep st = dirs[peer].step(pos, epoch, /*max_age=*/-1);
      hits += st.hits;
      misses += st.misses;
    }
  }
  counters.set("core.halo_cache.hit_rows", hits);
  counters.set("core.halo_cache.miss_rows", misses);
  counters.set("core.halo_cache.hit_rate",
               hits + misses > 0 ? static_cast<double>(hits) /
                                       static_cast<double>(hits + misses)
                                 : 0.0);
}

/// Socket probes inside run_ranks_piped: rank 0's span around one
/// layer-0 halo exchange at the workload's rate (isend/irecv/wait_all to
/// every peer), then an allreduce of the model's gradient size and a
/// barrier.
void comm_probes(const std::vector<core::LocalGraph>& lgs, float rate,
                 std::int64_t feat_dim, std::int64_t grad_floats) {
  const auto n = static_cast<PartId>(lgs.size());
  const auto rows_sent = [&](PartId from, PartId to) {
    const auto& set = lgs[static_cast<std::size_t>(from)]
                          .send_sets[static_cast<std::size_t>(to)];
    return static_cast<std::int64_t>(
        std::llround(rate * static_cast<double>(set.size())));
  };
  double rx_bytes0 = 0.0;
  for (PartId j = 1; j < n; ++j)
    rx_bytes0 += static_cast<double>(rows_sent(j, 0) * feat_dim) * sizeof(float);

  (void)api::run_ranks_piped(
      comm::TransportKind::kUds, n, comm::CostModel::scaled_pcie3(),
      [&](comm::Fabric& fabric, PartId r) {
        set_span_rank(r);
        comm::Endpoint& ep = fabric.endpoint(r);
        const bool rec = r == 0;
        for (int i = 0; i < kCommReps; ++i) {
          ep.barrier();
          std::optional<Span> s;
          if (rec) s.emplace("comm.halo_exchange", rx_bytes0);
          std::vector<comm::Request> reqs;
          for (PartId j = 0; j < n; ++j) {
            if (j == r) continue;
            reqs.push_back(ep.irecv_floats(j, 100 + i, comm::TrafficClass::kFeature));
            std::vector<float> payload(
                static_cast<std::size_t>(rows_sent(r, j) * feat_dim), 1.0f);
            reqs.push_back(ep.isend_floats(j, 100 + i, std::move(payload),
                                           comm::TrafficClass::kFeature));
          }
          comm::wait_all(reqs);
        }
        std::vector<float> grads(static_cast<std::size_t>(grad_floats), 1.0f);
        for (int i = 0; i < kCommReps; ++i) {
          ep.barrier();
          std::optional<Span> s;
          if (rec) s.emplace("comm.allreduce",
                             static_cast<double>(grad_floats) * sizeof(float));
          ep.allreduce_sum(grads);
        }
        for (int i = 0; i < kCommReps; ++i) {
          std::optional<Span> s;
          if (rec) s.emplace("comm.barrier");
          ep.barrier();
        }
        return r == 0 ? std::string("{}") : std::string();
      });
}

} // namespace

Value run_probes(const WorkloadSpec& w, const Setup& setup, std::uint64_t seed) {
  Value counters = Value::object();
  const Dataset& ds = setup.ds;
  const core::TrainerConfig tcfg = train_config(w, seed, 1).trainer;
  // Serving runs the full exchange; the rate only shapes its training.
  const float exchange_rate = w.serve ? 1.0f : w.sample_rate;
  Rng rng(seed ^ 0x9206E5ULL);

  const PartitionStats ps = compute_stats(ds.graph, setup.part);
  counters.set("partition.boundary_ratio_max", ps.max_ratio());
  counters.set("partition.edge_cut", static_cast<std::int64_t>(ps.edge_cut));

  std::vector<core::LocalGraph> lgs;
  for (int i = 0; i < kBuildReps; ++i) {
    Span s("core.local_graph.build");
    lgs = core::build_local_graphs(ds.graph, setup.part);
  }
  counters.set("core.local_graph.halo_rows",
               static_cast<std::int64_t>(lgs[0].n_halo()));

  for (int i = 0; i < kBuildReps; ++i) {
    Span s("api.fork_bootstrap");
    (void)api::run_ranks_piped(
        comm::TransportKind::kUds, static_cast<PartId>(lgs.size()),
        comm::CostModel::scaled_pcie3(),
        [](comm::Fabric&, PartId r) {
          return r == 0 ? std::string("{}") : std::string();
        });
  }

  const core::EpochPlan plan = rank0_plan(lgs, exchange_rate, seed);
  kernel_probes(lgs[0], plan, ds, tcfg, rng);
  counters.set("core.sampler.kept_halo_frac",
               sampler_probe(lgs[0], w.sample_rate, rng));
  cache_probe(lgs[0], exchange_rate, ds.feat_dim(), rng, counters);
  comm_probes(lgs, exchange_rate, ds.feat_dim(), param_floats(tcfg, ds));
  return counters;
}

} // namespace perfbench
