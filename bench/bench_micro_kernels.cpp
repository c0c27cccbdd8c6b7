// Micro-benchmarks (google-benchmark) for the kernels the trainer spends
// its time in: GEMM, mean aggregation, boundary sampling/compaction, and
// the METIS-like partitioner. GEMM rows report GFLOP/s and %peak_muladd,
// aggregation and activation-epilogue rows GB/s of computed bytes; the run
// context names the dispatched ISA (kernel_isa) and the peak.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/thread_pool.hpp"
#include "core/boundary_sampler.hpp"
#include "core/epoch_planner.hpp"
#include "core/local_graph.hpp"
#include "graph/generators.hpp"
#include "nn/layer.hpp"
#include "partition/metis_like.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace bnsgcn;

// GEMM throughput as GFLOP/s and as a share of one lane's nominal peak for
// the dispatched clone. The panel never contracts to FMA (-ffp-contract=off
// keeps the scalar kernels' bits), so its peak is one vector multiply plus
// one vector add per cycle: SIMD width × 2 flops × nominal clock.
double nominal_ghz() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu MHz", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos)
      return std::strtod(line.c_str() + colon + 1, nullptr) / 1000.0;
  }
  return 0.0; // unknown: the %peak counter is left out
}

double lane_peak_gflops() {
  static const double peak = [] {
    const std::string isa = ops::kernel_isa();
    const int width = isa == "avx512f" ? 16 : isa == "avx2" ? 8 : 4;
    return width * 2.0 * nominal_ghz();
  }();
  return peak;
}

/// Sets GFLOP/s and %peak_muladd (against `lanes` lanes' peak; lanes
/// beyond the core count add no peak).
void set_gemm_counters(benchmark::State& state, double flops_per_iter,
                       int lanes = 1) {
  using benchmark::Counter;
  const double gflop =
      flops_per_iter * static_cast<double>(state.iterations()) * 1e-9;
  state.counters["GFLOP/s"] = Counter(gflop, Counter::kIsRate);
  const int cores = std::min(lanes, common::ThreadPool::hardware_budget());
  if (lane_peak_gflops() > 0.0)
    state.counters["%peak_muladd"] = Counter(
        100.0 * gflop / (lane_peak_gflops() * cores), Counter::kIsRate);
}

// The three GEMMs at the SAGE layer shapes: args are (n rows, d), with
// d = 64 a hidden layer and d = 256 the layer-0 input width.
//   gemm_nn: forward transform  (n × d) · (d × 64)
//   gemm_tn: weight gradient    (n × d)ᵀ · (n × 64)
//   gemm_nt: input gradient     (n × 64) · (d × 64)ᵀ
void BM_GemmNN(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  const auto d = static_cast<std::int64_t>(state.range(1));
  Rng rng(1);
  Matrix a(n, d), b(d, 64), c(n, 64);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    ops::gemm_nn(a, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gemm_counters(state, 2.0 * static_cast<double>(n * d * 64));
}
BENCHMARK(BM_GemmNN)
    ->ArgsProduct({{1024, 8192}, {64, 256}})
    ->ArgNames({"n", "d"});

void BM_GemmTN(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  const auto d = static_cast<std::int64_t>(state.range(1));
  Rng rng(1);
  Matrix a(n, d), b(n, 64), c(d, 64);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    ops::gemm_tn(a, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gemm_counters(state, 2.0 * static_cast<double>(n * d * 64));
}
BENCHMARK(BM_GemmTN)
    ->ArgsProduct({{1024, 8192}, {64, 256}})
    ->ArgNames({"n", "d"});

void BM_GemmNT(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  const auto d = static_cast<std::int64_t>(state.range(1));
  Rng rng(1);
  Matrix a(n, 64), b(d, 64), c(n, d);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    ops::gemm_nt(a, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gemm_counters(state, 2.0 * static_cast<double>(n * d * 64));
}
BENCHMARK(BM_GemmNT)
    ->ArgsProduct({{1024, 8192}, {64, 256}})
    ->ArgNames({"n", "d"});

// The thread-pool sweep: the same kernels at K ∈ {1,2,4,8} lanes, timed on
// the wall clock (the pool's helpers do not bill the calling thread's CPU
// time). Outputs stay bit-identical across the whole sweep (the determinism
// contract in common/thread_pool.hpp), which test_ops pins.
void BM_GemmNNThreads(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  const auto k = static_cast<int>(state.range(1));
  common::set_ops_threads(k);
  Rng rng(1);
  Matrix a(n, 64), b(64, 64), c(n, 64);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    ops::gemm_nn(a, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  common::set_ops_threads(1);
  set_gemm_counters(state, 2.0 * static_cast<double>(n * 64 * 64), k);
}
BENCHMARK(BM_GemmNNThreads)
    ->ArgsProduct({{1024, 8192}, {1, 2, 4, 8}})
    ->ArgNames({"n", "threads"})
    ->UseRealTime();

void BM_GemmTNThreads(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  const auto k = static_cast<int>(state.range(1));
  common::set_ops_threads(k);
  Rng rng(1);
  Matrix a(n, 256), b(n, 64), c(256, 64);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    ops::gemm_tn(a, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  common::set_ops_threads(1);
  set_gemm_counters(state, 2.0 * static_cast<double>(n * 256 * 64), k);
}
BENCHMARK(BM_GemmTNThreads)
    ->ArgsProduct({{8192}, {1, 2, 4, 8}})
    ->ArgNames({"n", "threads"})
    ->UseRealTime();

// The chunked-stream F1 transform, two ways: the old staged path (copy each
// row chunk to a scratch block, full gemm_nn on the block, copy the result
// into place) vs the row-range kernel writing the output rows directly.
// Same FLOPs; the delta is pure staging-copy overhead.
void BM_GemmChunkedStaged(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  const std::int64_t chunk = 128;
  Rng rng(1);
  Matrix a(n, 64), b(64, 64), c(n, 64);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    for (std::int64_t r0 = 0; r0 < n; r0 += chunk) {
      const std::int64_t r1 = std::min(n, r0 + chunk);
      Matrix block(r1 - r0, 64), tmp(r1 - r0, 64);
      std::copy(a.data() + r0 * 64, a.data() + r1 * 64, block.data());
      ops::gemm_nn(block, b, tmp);
      std::copy(tmp.data(), tmp.data() + tmp.size(), c.data() + r0 * 64);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gemm_counters(state, 2.0 * static_cast<double>(n * 64 * 64));
}
BENCHMARK(BM_GemmChunkedStaged)->Arg(1024)->Arg(8192);

void BM_GemmChunkedRows(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  const std::int64_t chunk = 128;
  Rng rng(1);
  Matrix a(n, 64), b(64, 64), c(n, 64);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    for (std::int64_t r0 = 0; r0 < n; r0 += chunk) {
      ops::gemm_nn_rows(a, b, c, r0, std::min(n, r0 + chunk));
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  set_gemm_counters(state, 2.0 * static_cast<double>(n * 64 * 64));
}
BENCHMARK(BM_GemmChunkedRows)->Arg(1024)->Arg(8192);

// Mean aggregation over an R-MAT graph (n nodes, 16n edges), the forward
// gather and the backward (which builds its source incidence per call, as
// the fused layer backward does), at d = 64 and 128. GB/s counts computed
// bytes, (arcs + n_dst) · d · 4: every arc reads one source row and every
// destination writes one row — the definition perfbench's
// nn.mean_aggregate_gbps uses.
template <bool kBackward>
void run_mean_aggregate(benchmark::State& state, NodeId n, std::int64_t d,
                        int threads) {
  common::set_ops_threads(threads);
  Rng rng(2);
  const Csr g = gen::rmat(n, static_cast<EdgeId>(n) * 16, rng);
  nn::BipartiteCsr adj;
  adj.n_dst = g.n;
  adj.n_src = g.n;
  adj.offsets = g.offsets;
  adj.nbrs = g.nbrs;
  std::vector<float> inv(static_cast<std::size_t>(g.n), 0.0f);
  for (NodeId v = 0; v < g.n; ++v)
    if (g.degree(v) > 0) inv[static_cast<std::size_t>(v)] = 1.0f / g.degree(v);
  Matrix in(g.n, d), out(g.n, d);
  in.randomize_gaussian(rng, 1.0f);
  for (auto _ : state) {
    if constexpr (kBackward) {
      nn::mean_aggregate_backward(adj, in, inv, out);
    } else {
      nn::mean_aggregate(adj, in, inv, out);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  common::set_ops_threads(1);
  const double bytes = static_cast<double>((g.num_arcs() + g.n) * d) *
                       sizeof(float) * static_cast<double>(state.iterations());
  state.counters["GB/s"] =
      benchmark::Counter(bytes * 1e-9, benchmark::Counter::kIsRate);
}

void BM_MeanAggregate(benchmark::State& state) {
  run_mean_aggregate<false>(state, static_cast<NodeId>(state.range(0)),
                            state.range(1), 1);
}
BENCHMARK(BM_MeanAggregate)
    ->ArgsProduct({{4096, 32768}, {64, 128}})
    ->ArgNames({"n", "d"});

void BM_MeanAggregateThreads(benchmark::State& state) {
  run_mean_aggregate<false>(state, static_cast<NodeId>(state.range(0)),
                            state.range(1),
                            static_cast<int>(state.range(2)));
}
BENCHMARK(BM_MeanAggregateThreads)
    ->ArgsProduct({{32768}, {64, 128}, {1, 2, 4, 8}})
    ->ArgNames({"n", "d", "threads"})
    ->UseRealTime();

void BM_MeanAggregateBackward(benchmark::State& state) {
  run_mean_aggregate<true>(state, static_cast<NodeId>(state.range(0)),
                           state.range(1), 1);
}
BENCHMARK(BM_MeanAggregateBackward)
    ->ArgsProduct({{4096, 32768}, {64, 128}})
    ->ArgNames({"n", "d"});

void BM_MeanAggregateBackwardThreads(benchmark::State& state) {
  run_mean_aggregate<true>(state, static_cast<NodeId>(state.range(0)),
                           state.range(1),
                           static_cast<int>(state.range(2)));
}
BENCHMARK(BM_MeanAggregateBackwardThreads)
    ->ArgsProduct({{32768}, {64, 128}, {1, 2, 4, 8}})
    ->ArgNames({"n", "d", "threads"})
    ->UseRealTime();

// The fused activation epilogue at a hidden layer's output shape (n × d):
// ReLU, then inverted dropout at p = 0.3 with the flag record, as a
// training forward runs it; and its backward. Each iteration restores the
// input outside the timed region. GB/s counts computed bytes, 9 per
// element either way: one float read and written, plus the flag byte
// written (forward) or read (backward).
template <bool kBackward>
void run_activation(benchmark::State& state, std::int64_t n, std::int64_t d) {
  Rng rng(3);
  Matrix src(n, d);
  src.randomize_gaussian(rng, 1.0f);
  Rng drop(4);
  ops::ActivationRecord rec;
  Matrix x = src;
  ops::activation_forward(x, nullptr, /*relu=*/true, 0.3f, drop, &rec);
  for (auto _ : state) {
    state.PauseTiming();
    x = src;
    state.ResumeTiming();
    if constexpr (kBackward) {
      ops::activation_backward(x, rec);
    } else {
      ops::activation_forward(x, nullptr, /*relu=*/true, 0.3f, drop, &rec);
    }
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  const double bytes = static_cast<double>(n * d) * 9.0 *
                       static_cast<double>(state.iterations());
  state.counters["GB/s"] =
      benchmark::Counter(bytes * 1e-9, benchmark::Counter::kIsRate);
}

void BM_ActivationForward(benchmark::State& state) {
  run_activation<false>(state, state.range(0), state.range(1));
}
BENCHMARK(BM_ActivationForward)->Args({32768, 64})->ArgNames({"n", "d"});

void BM_ActivationBackward(benchmark::State& state) {
  run_activation<true>(state, state.range(0), state.range(1));
}
BENCHMARK(BM_ActivationBackward)->Args({32768, 64})->ArgNames({"n", "d"});

void BM_EpochPlannerDraw(benchmark::State& state) {
  // Strategy-only cost of one epoch's random draw (no compaction, no
  // negotiation) for the BNS planner.
  Rng rng(5);
  const Csr g = gen::rmat(16384, 200000, rng);
  const auto part = random_partition(g.n, 2, rng);
  const auto lgs = core::build_local_graphs(g, part);
  const core::BnsPlanner planner({.rate = 0.1f, .unbiased_scaling = true});
  Rng draw_rng(6);
  for (auto _ : state) {
    auto draw = planner.draw(lgs[0], draw_rng);
    benchmark::DoNotOptimize(draw.halo_kept.data());
  }
}
BENCHMARK(BM_EpochPlannerDraw);

void BM_BoundarySamplerCompaction(benchmark::State& state) {
  Rng rng(3);
  const Csr g = gen::rmat(16384, 200000, rng);
  const auto part = random_partition(g.n, 2, rng);
  const auto lgs = core::build_local_graphs(g, part);
  core::BoundarySampler sampler(
      lgs[0], {.variant = core::SamplingVariant::kBns, .rate = 0.1f});
  // Compaction only (the negotiation needs a fabric); empty_plan exercises
  // the same CSR-rebuild path at the maximum drop rate.
  for (auto _ : state) {
    auto plan = sampler.empty_plan();
    benchmark::DoNotOptimize(plan.adj.nbrs.data());
  }
}
BENCHMARK(BM_BoundarySamplerCompaction);

void BM_MetisLike(benchmark::State& state) {
  Rng rng(4);
  gen::PlantedPartitionParams pp;
  pp.n = static_cast<NodeId>(state.range(0));
  pp.m = static_cast<EdgeId>(pp.n) * 12;
  pp.communities = 8;
  const auto planted = gen::planted_partition(pp, rng);
  for (auto _ : state) {
    auto part = metis_like(planted.graph, 8);
    benchmark::DoNotOptimize(part.owner.data());
  }
}
BENCHMARK(BM_MetisLike)->Arg(8192)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Provenance: which GEMM clone ran, and the peak the %peak_muladd
  // counters divide by. Results are bit-identical on every clone.
  benchmark::AddCustomContext("kernel_isa", ops::kernel_isa());
  benchmark::AddCustomContext(
      "lane_peak_gflops_muladd",
      std::to_string(lane_peak_gflops()) +
          " (SIMD width x 2 flops x nominal clock " +
          std::to_string(nominal_ghz()) + " GHz)");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
