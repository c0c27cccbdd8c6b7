#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/aggregate_panel.hpp"
#include "nn/gat_layer.hpp"
#include "nn/sage_layer.hpp"
#include "tensor/ops.hpp"

namespace bnsgcn {
namespace {

using nn::BipartiteCsr;

/// 3 destination nodes, 5 source rows (3 inner + 2 halo).
BipartiteCsr small_adj() {
  BipartiteCsr adj;
  adj.n_dst = 3;
  adj.n_src = 5;
  adj.offsets = {0, 2, 4, 6};
  adj.nbrs = {1, 3, 0, 4, 1, 2};
  adj.validate();
  return adj;
}

std::vector<float> full_inv_deg(const BipartiteCsr& adj) {
  std::vector<float> inv(static_cast<std::size_t>(adj.n_dst));
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const auto d = adj.degree(v);
    inv[static_cast<std::size_t>(v)] = d > 0 ? 1.0f / static_cast<float>(d) : 0.0f;
  }
  return inv;
}

TEST(BipartiteCsr, ValidateCatchesBadNeighbors) {
  BipartiteCsr adj;
  adj.n_dst = 1;
  adj.n_src = 2;
  adj.offsets = {0, 1};
  adj.nbrs = {5}; // out of range
  EXPECT_THROW(adj.validate(), CheckError);
}

TEST(MeanAggregate, HandComputed) {
  const auto adj = small_adj();
  Matrix src(5, 2);
  for (NodeId u = 0; u < 5; ++u) {
    src.at(u, 0) = static_cast<float>(u);
    src.at(u, 1) = static_cast<float>(10 * u);
  }
  Matrix out;
  const auto inv = full_inv_deg(adj);
  nn::mean_aggregate(adj, src, inv, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 2.0f);   // (1+3)/2
  EXPECT_FLOAT_EQ(out.at(1, 0), 2.0f);   // (0+4)/2
  EXPECT_FLOAT_EQ(out.at(2, 1), 15.0f);  // (10+20)/2
}

TEST(MeanAggregate, ZeroDegreeRowsStayZero) {
  BipartiteCsr adj;
  adj.n_dst = 2;
  adj.n_src = 2;
  adj.offsets = {0, 0, 1};
  adj.nbrs = {0};
  Matrix src(2, 3, 5.0f);
  Matrix out;
  std::vector<float> inv{0.0f, 1.0f};
  nn::mean_aggregate(adj, src, inv, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 5.0f);
}

TEST(MeanAggregate, BackwardMatchesForwardLinearity) {
  // Aggregation is linear: FD check via directional derivative.
  const auto adj = small_adj();
  const auto inv = full_inv_deg(adj);
  Rng rng(1);
  Matrix src(5, 4), dir(5, 4), dout(3, 4);
  src.randomize_gaussian(rng, 1.0f);
  dir.randomize_gaussian(rng, 1.0f);
  dout.randomize_gaussian(rng, 1.0f);

  Matrix out0;
  nn::mean_aggregate(adj, src, inv, out0);
  Matrix src_eps = src;
  ops::axpy(1e-3f, dir, src_eps);
  Matrix out1;
  nn::mean_aggregate(adj, src_eps, inv, out1);

  double fd = 0.0;
  for (std::int64_t i = 0; i < out0.size(); ++i)
    fd += (out1.data()[i] - out0.data()[i]) / 1e-3 * dout.data()[i];

  Matrix dsrc(5, 4);
  nn::mean_aggregate_backward(adj, dout, inv, dsrc);
  double analytic = 0.0;
  for (std::int64_t i = 0; i < dsrc.size(); ++i)
    analytic += static_cast<double>(dsrc.data()[i]) * dir.data()[i];
  EXPECT_NEAR(fd, analytic, 1e-2 * std::abs(analytic) + 1e-3);
}

/// Finite-difference gradient check of a layer: perturbs every entry of
/// every parameter and of the input features, comparing against the
/// analytic backward. Activation must be smooth at the sampled point, so
/// ReLU is disabled for the checked layers.
void check_layer_gradients(nn::Layer& layer, const BipartiteCsr& adj,
                           std::span<const float> inv_deg, Matrix feats,
                           float tol) {
  Rng rng(99);
  Matrix r(adj.n_dst, layer.d_out());
  r.randomize_gaussian(rng, 1.0f);

  const auto loss = [&](const Matrix& f) -> double {
    Matrix out =
        layer.forward(adj, f, inv_deg, /*training=*/false);
    double acc = 0.0;
    for (std::int64_t i = 0; i < out.size(); ++i)
      acc += static_cast<double>(out.data()[i]) * r.data()[i];
    return acc;
  };

  // Analytic gradients.
  (void)loss(feats); // populate caches
  layer.zero_grads();
  const Matrix dfeats = layer.backward(adj, r, inv_deg);

  constexpr float kEps = 1e-2f;
  // Check input gradient on a sample of entries.
  for (std::int64_t i = 0; i < feats.size(); i += 3) {
    const float saved = feats.data()[i];
    feats.data()[i] = saved + kEps;
    const double up = loss(feats);
    feats.data()[i] = saved - kEps;
    const double down = loss(feats);
    feats.data()[i] = saved;
    const double fd = (up - down) / (2.0 * kEps);
    EXPECT_NEAR(dfeats.data()[i], fd,
                tol * std::max(1.0, std::abs(fd)))
        << "dfeats entry " << i;
  }
  // Check parameter gradients on a sample of entries.
  auto params = layer.params();
  auto grads = layer.grads();
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Matrix& p = *params[pi];
    const Matrix& g = *grads[pi];
    for (std::int64_t i = 0; i < p.size(); i += 5) {
      const float saved = p.data()[i];
      p.data()[i] = saved + kEps;
      const double up = loss(feats);
      p.data()[i] = saved - kEps;
      const double down = loss(feats);
      p.data()[i] = saved;
      const double fd = (up - down) / (2.0 * kEps);
      EXPECT_NEAR(g.data()[i], fd, tol * std::max(1.0, std::abs(fd)))
          << "param " << pi << " entry " << i;
    }
  }
}

TEST(SageLayer, GradientsMatchFiniteDifference) {
  const auto adj = small_adj();
  const auto inv = full_inv_deg(adj);
  Rng rng(7);
  nn::SageLayer layer(4, 3, {.relu = false, .dropout = 0.0f}, rng);
  Matrix feats(5, 4);
  feats.randomize_gaussian(rng, 1.0f);
  check_layer_gradients(layer, adj, inv, std::move(feats), 2e-2f);
}

TEST(SageLayer, ReluClampsNegative) {
  const auto adj = small_adj();
  const auto inv = full_inv_deg(adj);
  Rng rng(8);
  nn::SageLayer layer(2, 4, {.relu = true, .dropout = 0.0f}, rng);
  Matrix feats(5, 2);
  feats.randomize_gaussian(rng, 1.0f);
  const Matrix out = layer.forward(adj, feats, inv, false);
  for (const float v : out.flat()) EXPECT_GE(v, 0.0f);
}

TEST(SageLayer, DropoutOnlyInTraining) {
  const auto adj = small_adj();
  const auto inv = full_inv_deg(adj);
  Rng rng(9);
  nn::SageLayer layer(2, 4, {.relu = false, .dropout = 0.5f}, rng);
  Matrix feats(5, 2);
  feats.randomize_gaussian(rng, 1.0f);
  const Matrix eval1 = layer.forward(adj, feats, inv, false);
  const Matrix eval2 = layer.forward(adj, feats, inv, false);
  EXPECT_LT(ops::max_abs_diff(eval1, eval2), 1e-7f); // eval is deterministic
  const Matrix train1 = layer.forward(adj, feats, inv, true);
  EXPECT_GT(ops::max_abs_diff(eval1, train1), 1e-4f); // dropout applied
}

TEST(SageLayer, ParamsShapes) {
  Rng rng(10);
  nn::SageLayer layer(8, 16, {}, rng);
  const auto params = layer.params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0]->rows(), 16); // concat doubles the input dim
  EXPECT_EQ(params[0]->cols(), 16);
  EXPECT_EQ(params[1]->rows(), 1);
  EXPECT_EQ(layer.num_params(), 16 * 16 + 16);
}

TEST(GatLayer, GradientsMatchFiniteDifference) {
  const auto adj = small_adj();
  const auto inv = full_inv_deg(adj);
  Rng rng(11);
  nn::GatLayer layer(3, 4,
                     {.heads = 1, .relu = false, .dropout = 0.0f}, rng);
  Matrix feats(5, 3);
  feats.randomize_gaussian(rng, 0.8f);
  check_layer_gradients(layer, adj, inv, std::move(feats), 4e-2f);
}

TEST(GatLayer, MultiHeadGradients) {
  const auto adj = small_adj();
  const auto inv = full_inv_deg(adj);
  Rng rng(12);
  nn::GatLayer layer(3, 6,
                     {.heads = 2, .relu = false, .dropout = 0.0f}, rng);
  Matrix feats(5, 3);
  feats.randomize_gaussian(rng, 0.8f);
  check_layer_gradients(layer, adj, inv, std::move(feats), 4e-2f);
}

TEST(GatLayer, AttentionIsNormalized) {
  // With identical source rows, attention output equals W·h regardless of
  // neighborhood size (softmax weights sum to 1).
  const auto adj = small_adj();
  const auto inv = full_inv_deg(adj);
  Rng rng(13);
  nn::GatLayer layer(2, 2, {.heads = 1, .relu = false}, rng);
  Matrix feats(5, 2);
  for (NodeId u = 0; u < 5; ++u) {
    feats.at(u, 0) = 1.0f;
    feats.at(u, 1) = -0.5f;
  }
  const Matrix out = layer.forward(adj, feats, inv, false);
  // All destinations see identical inputs → identical outputs.
  for (std::int64_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(out.at(0, c), out.at(1, c), 1e-5f);
    EXPECT_NEAR(out.at(1, c), out.at(2, c), 1e-5f);
  }
}

TEST(GatLayer, RejectsIndivisibleHeads) {
  Rng rng(14);
  EXPECT_THROW(nn::GatLayer(3, 5, {.heads = 2}, rng), CheckError);
}

TEST(FlattenGrads, RoundTrip) {
  Rng rng(15);
  std::vector<std::unique_ptr<nn::Layer>> layers;
  layers.push_back(
      std::make_unique<nn::SageLayer>(4, 3, nn::SageLayer::Options{}, rng));
  layers.push_back(
      std::make_unique<nn::SageLayer>(3, 2, nn::SageLayer::Options{}, rng));
  // Fill gradients with recognizable values.
  float fill = 1.0f;
  for (auto& l : layers)
    for (Matrix* g : l->grads()) {
      g->fill(fill);
      fill += 1.0f;
    }
  auto flat = nn::flatten_grads(layers);
  const std::size_t expect_size = static_cast<std::size_t>(
      (8 * 3 + 3) + (6 * 2 + 2));
  ASSERT_EQ(flat.size(), expect_size);
  // Scale and write back.
  for (auto& v : flat) v *= 2.0f;
  nn::apply_flat_grads(flat, layers);
  EXPECT_FLOAT_EQ(layers[0]->grads()[0]->at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(layers[1]->grads()[1]->at(0, 0), 8.0f);
}

// ---------------------------------------------------------------------------
// Bit-exact oracle for the aggregation panel (nn/aggregate_panel.hpp). The
// ref_* functions are the scalar gather and scatter loops the panel
// replaced, kept serial: they define the bits. The shipped kernels (the
// clone this host dispatches to) and the panel instantiated under each
// target_clones target must match them byte for byte — with zero-degree
// destinations, repeated neighbours, sources no arc reads, zero inv_deg on
// rows that have arcs, weighted and unweighted adjacencies, widths that
// leave partial panels and scalar tails, and operands salted with ±0,
// subnormals and ±inf, at 1 and 4 threads.
// ---------------------------------------------------------------------------

void ref_mean_aggregate(const BipartiteCsr& adj, const Matrix& src,
                        std::span<const float> inv_deg, Matrix& out) {
  const std::int64_t d = src.cols();
  out.resize(adj.n_dst, d);
  const bool weighted = !adj.edge_scale.empty();
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    float* o = out.data() + static_cast<std::int64_t>(v) * d;
    const float w = inv_deg[static_cast<std::size_t>(v)];
    if (w == 0.0f) continue;
    for (auto e = adj.offsets[static_cast<std::size_t>(v)];
         e < adj.offsets[static_cast<std::size_t>(v) + 1]; ++e) {
      const auto ue = static_cast<std::size_t>(e);
      const float es = weighted ? adj.edge_scale[ue] : 1.0f;
      const float* s = src.data() + static_cast<std::int64_t>(adj.nbrs[ue]) * d;
      for (std::int64_t c = 0; c < d; ++c) o[c] += es * s[c];
    }
    for (std::int64_t c = 0; c < d; ++c) o[c] *= w;
  }
}

void ref_inner_rows(const BipartiteCsr& adj, const Matrix& inner_src,
                    NodeId row0, NodeId row1, Matrix& out) {
  const auto n_lo = static_cast<NodeId>(inner_src.rows());
  const std::int64_t d = inner_src.cols();
  const bool weighted = !adj.edge_scale.empty();
  for (NodeId v = row0; v < row1; ++v) {
    float* o = out.data() + static_cast<std::int64_t>(v) * d;
    for (auto e = adj.offsets[static_cast<std::size_t>(v)];
         e < adj.offsets[static_cast<std::size_t>(v) + 1]; ++e) {
      const auto ue = static_cast<std::size_t>(e);
      const NodeId u = adj.nbrs[ue];
      if (u >= n_lo) continue;
      const float es = weighted ? adj.edge_scale[ue] : 1.0f;
      const float* s = inner_src.data() + static_cast<std::int64_t>(u) * d;
      for (std::int64_t c = 0; c < d; ++c) o[c] += es * s[c];
    }
  }
}

/// The destination-major scatter over sources [lo, hi), landing source u
/// on row u - lo of dsrc: mean_aggregate_backward with lo = 0, hi = n_src,
/// and its inner and halo halves.
void ref_scatter(const BipartiteCsr& adj, const Matrix& dout,
                 std::span<const float> inv_deg, NodeId lo, NodeId hi,
                 Matrix& dsrc) {
  const std::int64_t d = dout.cols();
  const bool weighted = !adj.edge_scale.empty();
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const float w = inv_deg[static_cast<std::size_t>(v)];
    if (w == 0.0f) continue;
    const float* g = dout.data() + static_cast<std::int64_t>(v) * d;
    for (auto e = adj.offsets[static_cast<std::size_t>(v)];
         e < adj.offsets[static_cast<std::size_t>(v) + 1]; ++e) {
      const auto ue = static_cast<std::size_t>(e);
      const NodeId u = adj.nbrs[ue];
      if (u < lo || u >= hi) continue;
      const float wu = weighted ? w * adj.edge_scale[ue] : w;
      float* t = dsrc.data() + static_cast<std::int64_t>(u - lo) * d;
      for (std::int64_t c = 0; c < d; ++c) t[c] += wu * g[c];
    }
  }
}

/// One peer's fold straight off the adjacency: slot by slot, then the
/// destinations reading that slot in (destination, edge) order.
void ref_fold(const BipartiteCsr& adj, NodeId n_lo,
              std::span<const NodeId> slots, const Matrix& rows,
              Matrix& out) {
  const std::int64_t d = rows.cols();
  const bool weighted = !adj.edge_scale.empty();
  for (std::size_t t = 0; t < slots.size(); ++t) {
    const float* row = rows.data() + static_cast<std::int64_t>(t) * d;
    for (NodeId v = 0; v < adj.n_dst; ++v) {
      for (auto e = adj.offsets[static_cast<std::size_t>(v)];
           e < adj.offsets[static_cast<std::size_t>(v) + 1]; ++e) {
        const auto ue = static_cast<std::size_t>(e);
        if (adj.nbrs[ue] != n_lo + slots[t]) continue;
        const float es = weighted ? adj.edge_scale[ue] : 1.0f;
        float* o = out.data() + static_cast<std::int64_t>(v) * d;
        for (std::int64_t c = 0; c < d; ++c) o[c] += es * row[c];
      }
    }
  }
}

void ref_finish(std::span<const float> inv_deg, Matrix& out) {
  const std::int64_t d = out.cols();
  for (std::int64_t v = 0; v < out.rows(); ++v) {
    float* o = out.data() + v * d;
    const float w = inv_deg[static_cast<std::size_t>(v)];
    for (std::int64_t c = 0; c < d; ++c) o[c] = w == 0.0f ? 0.0f : o[c] * w;
  }
}

// The panel compiled for each target_clones target, test-side:
// always_inline pulls the one shared body into each target function.
__attribute__((target("avx512f"))) void agg_avx512f(
    const nn::detail::AggSpec& s, std::int64_t r0, std::int64_t r1) {
  nn::detail::run(s, r0, r1);
}
__attribute__((target("avx2"))) void agg_avx2(const nn::detail::AggSpec& s,
                                              std::int64_t r0,
                                              std::int64_t r1) {
  nn::detail::run(s, r0, r1);
}
void agg_default(const nn::detail::AggSpec& s, std::int64_t r0,
                 std::int64_t r1) {
  nn::detail::run(s, r0, r1);
}

struct AggTarget {
  const char* name;
  nn::detail::AggPanelFn panel;
};

/// The clones this host can execute (the default clone always runs).
std::vector<AggTarget> runnable_agg_targets() {
  __builtin_cpu_init();
  std::vector<AggTarget> out;
  if (__builtin_cpu_supports("avx512f"))
    out.push_back({"avx512f", &agg_avx512f});
  if (__builtin_cpu_supports("avx2")) out.push_back({"avx2", &agg_avx2});
  out.push_back({"default", &agg_default});
  return out;
}

constexpr std::int64_t kAggDims[] = {1, 15, 16, 17, 41, 64, 65, 128, 130};
constexpr NodeId kAggDst = 70; // two row blocks, the second partial
constexpr NodeId kAggSrc = 100; // n_lo = kAggDst inner sources, 30 halo

/// Gaussian values salted with +0, -0, subnormals and (rarely) ±inf.
Matrix agg_salted(std::int64_t rows, std::int64_t cols, Rng& rng) {
  Matrix m(rows, cols);
  m.randomize_gaussian(rng, 1.0f);
  const float inf = std::numeric_limits<float>::infinity();
  for (std::int64_t i = 0; i < m.size(); ++i) {
    const float u = rng.next_float();
    float& v = m.data()[i];
    if (u < 0.15f) {
      v = 0.0f;
    } else if (u < 0.25f) {
      v = -0.0f;
    } else if (u < 0.30f) {
      v *= 1e-39f; // subnormal
    } else if (u < 0.302f) {
      v = inf;
    } else if (u < 0.304f) {
      v = -inf;
    }
  }
  return m;
}

/// Every 7th destination has no arcs; about a fifth of the arcs repeat the
/// previous neighbour; sources ≡ 3 (mod 5) are never read (empty incidence
/// rows, inner and halo). Weighted scales include 0 and negatives, which
/// the kernels must multiply rather than skip.
BipartiteCsr oracle_adj(Rng& rng, bool weighted) {
  BipartiteCsr adj;
  adj.n_dst = kAggDst;
  adj.n_src = kAggSrc;
  adj.offsets.push_back(0);
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const int deg = v % 7 == 0 ? 0 : static_cast<int>(rng.next_u64() % 12);
    for (int e = 0; e < deg; ++e) {
      NodeId u = static_cast<NodeId>(rng.next_u64() % kAggSrc);
      if (u % 5 == 3) u = (u + 1) % kAggSrc;
      if (e > 0 && rng.next_float() < 0.2f) u = adj.nbrs.back();
      adj.nbrs.push_back(u);
    }
    adj.offsets.push_back(static_cast<EdgeId>(adj.nbrs.size()));
  }
  if (weighted) {
    for (std::size_t e = 0; e < adj.nbrs.size(); ++e) {
      const float u = rng.next_float();
      adj.edge_scale.push_back(u < 0.1f ? 0.0f : u < 0.2f ? -1.25f
                                                          : 0.5f + u);
    }
  }
  adj.validate();
  return adj;
}

/// 1/degree, except every 9th destination gets 0 even when it has arcs
/// (the kernels skip by inv_deg, not by degree).
std::vector<float> oracle_inv_deg(const BipartiteCsr& adj) {
  std::vector<float> inv = full_inv_deg(adj);
  for (std::size_t v = 4; v < inv.size(); v += 9) inv[v] = 0.0f;
  return inv;
}

::testing::AssertionResult same_bytes(const Matrix& got, const Matrix& want) {
  if (got.size() == want.size() &&
      std::memcmp(got.data(), want.data(),
                  static_cast<std::size_t>(got.size()) * sizeof(float)) == 0)
    return ::testing::AssertionSuccess();
  for (std::int64_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (std::bit_cast<std::uint32_t>(got.data()[i]) !=
        std::bit_cast<std::uint32_t>(want.data()[i]))
      return ::testing::AssertionFailure()
             << "first difference at flat index " << i << ": got "
             << got.data()[i] << ", want " << want.data()[i];
  }
  return ::testing::AssertionFailure() << "sizes differ";
}

/// Runs `kernel(panel, out)` for the shipped dispatcher (panel == nullptr)
/// and for every runnable clone, at 1 and 4 threads, each on a fresh copy
/// of out0, and compares against `want`.
template <typename Kernel>
void expect_agg_bits(const Matrix& out0, const Matrix& want,
                     const std::string& what, Kernel&& kernel) {
  static const std::vector<AggTarget> targets = runnable_agg_targets();
  for (const int threads : {1, 4}) {
    common::set_ops_threads(threads);
    Matrix got = out0;
    kernel(nullptr, got);
    EXPECT_TRUE(same_bytes(got, want))
        << what << ", shipped, " << threads << " threads";
    for (const AggTarget& t : targets) {
      Matrix got_t = out0;
      kernel(t.panel, got_t);
      EXPECT_TRUE(same_bytes(got_t, want))
          << what << ", " << t.name << " clone, " << threads << " threads";
    }
  }
  common::set_ops_threads(1);
}

/// Visits (weighted, d) over both adjacency kinds and every oracle width.
template <typename Body>
void for_agg_shapes(Body&& body) {
  for (const bool weighted : {false, true}) {
    Rng rng(weighted ? 41 : 40);
    const BipartiteCsr adj = oracle_adj(rng, weighted);
    const std::vector<float> inv = oracle_inv_deg(adj);
    for (const std::int64_t d : kAggDims) {
      body(adj, inv, d, rng,
           std::string(weighted ? "weighted" : "unweighted") +
               " d=" + std::to_string(d));
    }
  }
}

TEST(AggregateOracle, ForwardBitExactOnEveryTarget) {
  for_agg_shapes([](const BipartiteCsr& adj, const std::vector<float>& inv,
                    std::int64_t d, Rng& rng, const std::string& what) {
    const Matrix src = agg_salted(adj.n_src, d, rng);
    Matrix want;
    ref_mean_aggregate(adj, src, inv, want);
    // The kernel resizes (and zeroes) out itself: start from a wrong shape.
    expect_agg_bits(Matrix(3, 2), want, "mean_aggregate " + what,
                    [&](nn::detail::AggPanelFn panel, Matrix& out) {
                      if (panel == nullptr) {
                        nn::mean_aggregate(adj, src, inv, out);
                      } else {
                        nn::detail::mean_aggregate_with(panel, adj, src, inv,
                                                        out);
                      }
                    });
  });
}

TEST(AggregateOracle, InnerRowsChunkedBitExactOnEveryTarget) {
  // Chunks as the trainer drives them: single rows, a chunk crossing the
  // row-block boundary, the tail. Accumulates into salted values.
  const std::pair<NodeId, NodeId> chunks[] = {
      {0, 1}, {1, 7}, {7, 66}, {66, 67}, {67, kAggDst}};
  for_agg_shapes([&](const BipartiteCsr& adj, const std::vector<float>&,
                     std::int64_t d, Rng& rng, const std::string& what) {
    const Matrix inner = agg_salted(adj.n_dst, d, rng);
    const Matrix out0 = agg_salted(adj.n_dst, d, rng);
    Matrix want = out0;
    for (const auto& [r0, r1] : chunks) ref_inner_rows(adj, inner, r0, r1, want);
    expect_agg_bits(out0, want, "mean_aggregate_inner_rows " + what,
                    [&](nn::detail::AggPanelFn panel, Matrix& out) {
                      for (const auto& [r0, r1] : chunks) {
                        if (panel == nullptr) {
                          nn::mean_aggregate_inner_rows(adj, inner, r0, r1,
                                                        out);
                        } else {
                          nn::detail::mean_aggregate_inner_rows_with(
                              panel, adj, inner, r0, r1, out);
                        }
                      }
                    });
  });
}

TEST(AggregateOracle, FoldAndFinishBitExactOnEveryTarget) {
  // The whole split-phase forward: inner rows (per target), two peers'
  // folds in order into the halo buffer, the combine, the finish.
  for_agg_shapes([](const BipartiteCsr& adj, const std::vector<float>& inv,
                    std::int64_t d, Rng& rng, const std::string& what) {
    nn::SourceIncidence inc;
    inc.build(adj, adj.n_dst);
    const Matrix inner = agg_salted(adj.n_dst, d, rng);
    const std::vector<NodeId> peer_a = {3, 0, 17, 8, 29};
    const std::vector<NodeId> peer_b = {1, 2, 28, 13, 4, 21};
    const Matrix slab_a = agg_salted(static_cast<NodeId>(peer_a.size()), d, rng);
    const Matrix slab_b = agg_salted(static_cast<NodeId>(peer_b.size()), d, rng);
    const auto combine = [&](Matrix& z, const Matrix& halo) {
      for (std::int64_t i = 0; i < z.size(); ++i) z.data()[i] += halo.data()[i];
    };
    Matrix want(adj.n_dst, d), want_halo(adj.n_dst, d);
    ref_inner_rows(adj, inner, 0, adj.n_dst, want);
    ref_fold(adj, adj.n_dst, peer_a, slab_a, want_halo);
    ref_fold(adj, adj.n_dst, peer_b, slab_b, want_halo);
    combine(want, want_halo);
    ref_finish(inv, want);
    const auto span_of = [](const Matrix& m) {
      return std::span<const float>(m.data(), static_cast<std::size_t>(m.size()));
    };
    expect_agg_bits(
        Matrix(adj.n_dst, d), want, "inner + fold + finish " + what,
        [&](nn::detail::AggPanelFn panel, Matrix& z) {
          if (panel == nullptr) {
            nn::mean_aggregate_inner_rows(adj, inner, 0, adj.n_dst, z);
          } else {
            nn::detail::mean_aggregate_inner_rows_with(panel, adj, inner, 0,
                                                       adj.n_dst, z);
          }
          Matrix halo(adj.n_dst, d);
          nn::mean_aggregate_halo_fold(inc, peer_a, span_of(slab_a), d, halo);
          nn::mean_aggregate_halo_fold(inc, peer_b, span_of(slab_b), d, halo);
          combine(z, halo);
          nn::mean_aggregate_finish(inv, z);
        });
  });
}

TEST(AggregateOracle, BackwardBitExactOnEveryTarget) {
  for_agg_shapes([](const BipartiteCsr& adj, const std::vector<float>& inv,
                    std::int64_t d, Rng& rng, const std::string& what) {
    nn::SourceIncidence inc;
    inc.build(adj, adj.n_dst);
    const NodeId n_lo = adj.n_dst;
    const Matrix dout = agg_salted(adj.n_dst, d, rng);
    // Fused: every source row, accumulated into salted values.
    const Matrix dsrc0 = agg_salted(adj.n_src, d, rng);
    Matrix want = dsrc0;
    ref_scatter(adj, dout, inv, 0, adj.n_src, want);
    expect_agg_bits(dsrc0, want, "mean_aggregate_backward " + what,
                    [&](nn::detail::AggPanelFn panel, Matrix& dsrc) {
                      if (panel == nullptr) {
                        nn::mean_aggregate_backward(adj, dout, inv, dsrc);
                      } else {
                        nn::detail::mean_aggregate_backward_with(
                            panel, adj, dout, inv, dsrc);
                      }
                    });
    // The inner and halo halves over the epoch's incidence.
    const Matrix dinner0 = agg_salted(n_lo, d, rng);
    want = dinner0;
    ref_scatter(adj, dout, inv, 0, n_lo, want);
    expect_agg_bits(dinner0, want, "mean_aggregate_backward_inner " + what,
                    [&](nn::detail::AggPanelFn panel, Matrix& dinner) {
                      if (panel == nullptr) {
                        nn::mean_aggregate_backward_inner(inc, dout, inv,
                                                          dinner);
                      } else {
                        nn::detail::mean_aggregate_backward_inner_with(
                            panel, inc, dout, inv, dinner);
                      }
                    });
    const Matrix dhalo0 = agg_salted(adj.n_src - n_lo, d, rng);
    want = dhalo0;
    ref_scatter(adj, dout, inv, n_lo, adj.n_src, want);
    expect_agg_bits(dhalo0, want, "mean_aggregate_backward_halo " + what,
                    [&](nn::detail::AggPanelFn panel, Matrix& dhalo) {
                      if (panel == nullptr) {
                        nn::mean_aggregate_backward_halo(inc, dout, inv,
                                                         dhalo);
                      } else {
                        nn::detail::mean_aggregate_backward_halo_with(
                            panel, inc, dout, inv, dhalo);
                      }
                    });
  });
}

TEST(AggregateOracle, SourceIncidenceIsTheTransposeInScatterOrder) {
  Rng rng(42);
  const BipartiteCsr adj = oracle_adj(rng, /*weighted=*/true);
  nn::SourceIncidence inc;
  inc.build(adj, 60);
  EXPECT_EQ(inc.n_lo, 60);
  EXPECT_EQ(inc.n_halo(), kAggSrc - 60);
  ASSERT_EQ(inc.offsets.size(), static_cast<std::size_t>(kAggSrc) + 1);
  // Walking the adjacency destination-major yields each source's entries
  // in incidence order.
  std::vector<EdgeId> cursor(inc.offsets.begin(), inc.offsets.end() - 1);
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    for (auto e = adj.offsets[static_cast<std::size_t>(v)];
         e < adj.offsets[static_cast<std::size_t>(v) + 1]; ++e) {
      const auto u = static_cast<std::size_t>(adj.nbrs[static_cast<std::size_t>(e)]);
      const auto at = static_cast<std::size_t>(cursor[u]++);
      EXPECT_EQ(inc.dsts[at], v);
      EXPECT_EQ(inc.scales[at], adj.edge_scale[static_cast<std::size_t>(e)]);
    }
  }
  for (std::size_t u = 0; u < cursor.size(); ++u) {
    EXPECT_EQ(cursor[u], inc.offsets[u + 1]) << "source " << u;
    if (u % 5 == 3) {
      EXPECT_EQ(inc.offsets[u], inc.offsets[u + 1]) << "source " << u;
    }
  }
  // Unweighted adjacencies store no scales.
  nn::SourceIncidence plain;
  plain.build(oracle_adj(rng, /*weighted=*/false), 60);
  EXPECT_TRUE(plain.scales.empty());
}


// ---------------------------------------------------------------------------
// SAGE layer oracle: the layer keeps z and the self block apart and runs
// every GEMM against a row half of W (or dW) in place, with the fused
// activation epilogue. The reference below is the concat/split layout it
// replaced — u = [z | self] assembled, the stacked GEMMs, dU split after —
// with the bias, ReLU and dropout passes and their mask multiplies.
// ---------------------------------------------------------------------------

Matrix ref_concat(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), a.cols() + b.cols());
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    float* o = out.data() + r * out.cols();
    std::copy(a.row(r).begin(), a.row(r).end(), o);
    std::copy(b.row(r).begin(), b.row(r).end(), o + a.cols());
  }
  return out;
}

void ref_split(const Matrix& u, std::int64_t a_cols, Matrix& a, Matrix& b) {
  a.resize(u.rows(), a_cols);
  b.resize(u.rows(), u.cols() - a_cols);
  for (std::int64_t r = 0; r < u.rows(); ++r) {
    const float* o = u.data() + r * u.cols();
    std::copy(o, o + a_cols, a.data() + r * a_cols);
    std::copy(o + a_cols, o + u.cols(), b.data() + r * b.cols());
  }
}

Matrix ref_rows(const Matrix& m, std::int64_t r0, std::int64_t r1) {
  Matrix out(r1 - r0, m.cols());
  std::copy(m.data() + r0 * m.cols(), m.data() + r1 * m.cols(), out.data());
  return out;
}

/// ReLU then inverted dropout, as separate passes with float masks; the
/// backward multiplies by the dropout mask, then the ReLU mask.
struct RefActivation {
  RefActivation(bool relu_on, float rate) : relu(relu_on), p(rate) {}

  bool relu;
  float p;
  Matrix relu_mask, drop_mask;

  void forward(Matrix& x, Rng& rng) {
    if (relu) {
      relu_mask.resize(x.rows(), x.cols());
      for (std::int64_t i = 0; i < x.size(); ++i) {
        const float v = x.data()[i];
        relu_mask.data()[i] = v > 0.0f ? 1.0f : 0.0f;
        x.data()[i] = std::max(0.0f, v);
      }
    }
    if (p > 0.0f) {
      drop_mask.resize(x.rows(), x.cols());
      const float keep_scale = 1.0f / (1.0f - p);
      for (std::int64_t i = 0; i < x.size(); ++i) {
        const bool drop = rng.next_float() < p;
        x.data()[i] = drop ? 0.0f : x.data()[i] * keep_scale;
        drop_mask.data()[i] = drop ? 0.0f : keep_scale;
      }
    }
  }
  void backward(Matrix& g) const {
    if (p > 0.0f)
      for (std::int64_t i = 0; i < g.size(); ++i)
        g.data()[i] *= drop_mask.data()[i];
    if (relu)
      for (std::int64_t i = 0; i < g.size(); ++i)
        g.data()[i] *= relu_mask.data()[i];
  }
};

struct SageCase {
  std::int64_t d_in, d_out;
  bool relu;
  float p;
};
constexpr SageCase kSageCases[] = {
    {17, 16, true, 0.3f}, {64, 65, true, 0.5f}, {33, 64, false, 0.0f},
    {65, 17, true, 0.0f}, {16, 41, false, 0.1f}};

/// A layer whose weights, bias and (accumulating) gradients are all salted,
/// so special values reach every GEMM.
struct SageFixture {
  nn::SageLayer layer;
  Matrix w, b, dw0, db0;

  SageFixture(const SageCase& c, Rng& rng)
      : layer(c.d_in, c.d_out, {.relu = c.relu, .dropout = c.p}, rng) {
    w = agg_salted(2 * c.d_in, c.d_out, rng);
    b = agg_salted(1, c.d_out, rng);
    dw0 = agg_salted(2 * c.d_in, c.d_out, rng);
    db0 = agg_salted(1, c.d_out, rng);
    reset();
  }
  void reset() {
    *layer.params()[0] = w;
    *layer.params()[1] = b;
    *layer.grads()[0] = dw0;
    *layer.grads()[1] = db0;
    layer.set_dropout_rng(Rng(77));
  }
};

std::string sage_case_name(const SageCase& c, int threads) {
  return "d_in=" + std::to_string(c.d_in) + " d_out=" +
         std::to_string(c.d_out) + " relu=" + std::to_string(c.relu) +
         " p=" + std::to_string(c.p) + ", " + std::to_string(threads) +
         " threads";
}

TEST(SageOracle, FusedForwardBackwardMatchesConcatSplitReference) {
  for (const bool weighted : {false, true}) {
    Rng rng(weighted ? 61 : 60);
    const BipartiteCsr adj = oracle_adj(rng, weighted);
    const std::vector<float> inv = oracle_inv_deg(adj);
    for (const SageCase& c : kSageCases) {
      SageFixture fx(c, rng);
      const Matrix feats = agg_salted(adj.n_src, c.d_in, rng);
      const Matrix dout = agg_salted(adj.n_dst, c.d_out, rng);

      // Reference, at one thread.
      common::set_ops_threads(1);
      Matrix z;
      nn::mean_aggregate(adj, feats, inv, z);
      const Matrix u = ref_concat(z, ref_rows(feats, 0, adj.n_dst));
      Matrix want(adj.n_dst, c.d_out);
      ops::gemm_nn(u, fx.w, want);
      ops::add_row_bias_rows(want, fx.b, 0, adj.n_dst);
      RefActivation act(c.relu, c.p);
      Rng ref_rng(77);
      act.forward(want, ref_rng);
      Matrix g = dout;
      act.backward(g);
      Matrix want_dw = fx.dw0, want_db = fx.db0;
      ops::gemm_tn(u, g, want_dw, 1.0f, 1.0f);
      ops::col_sum(g, want_db);
      Matrix du(adj.n_dst, 2 * c.d_in), dz, dself;
      ops::gemm_nt(g, fx.w, du);
      ref_split(du, c.d_in, dz, dself);
      Matrix want_dfeats(adj.n_src, c.d_in);
      for (std::int64_t i = 0; i < dself.size(); ++i)
        want_dfeats.data()[i] += dself.data()[i];
      nn::mean_aggregate_backward(adj, dz, inv, want_dfeats);

      for (const int threads : {1, 4}) {
        SCOPED_TRACE(sage_case_name(c, threads) +
                     (weighted ? " weighted" : " unweighted"));
        common::set_ops_threads(threads);
        fx.reset();
        const Matrix out = fx.layer.forward(adj, feats, inv, true);
        EXPECT_TRUE(same_bytes(out, want)) << "forward";
        const Matrix dfeats = fx.layer.backward(adj, dout, inv);
        EXPECT_TRUE(same_bytes(dfeats, want_dfeats)) << "dfeats";
        EXPECT_TRUE(same_bytes(*fx.layer.grads()[0], want_dw)) << "dW";
        EXPECT_TRUE(same_bytes(*fx.layer.grads()[1], want_db)) << "db";

        // The parameter-only backward gives the same dW/db.
        fx.reset();
        (void)fx.layer.forward(adj, feats, inv, true);
        fx.layer.backward_params_only(adj, dout, inv);
        EXPECT_TRUE(same_bytes(*fx.layer.grads()[0], want_dw))
            << "dW, params only";
        EXPECT_TRUE(same_bytes(*fx.layer.grads()[1], want_db))
            << "db, params only";
      }
      common::set_ops_threads(1);
    }
  }
}

TEST(SageOracle, PhasedForwardBackwardMatchesConcatSplitReference) {
  for (const bool weighted : {false, true}) {
    Rng rng(weighted ? 63 : 62);
    const BipartiteCsr adj = oracle_adj(rng, weighted);
    const std::vector<float> inv = oracle_inv_deg(adj);
    nn::SourceIncidence inc;
    inc.build(adj, adj.n_dst);
    const NodeId n_halo = adj.n_src - adj.n_dst;
    // Two "peers": halo slots split in two slabs, folded in order.
    std::vector<NodeId> slots(static_cast<std::size_t>(n_halo));
    for (NodeId s = 0; s < n_halo; ++s) slots[static_cast<std::size_t>(s)] = s;
    const std::size_t half = slots.size() / 2;
    for (const SageCase& c : kSageCases) {
      SageFixture fx(c, rng);
      const Matrix feats = agg_salted(adj.n_src, c.d_in, rng);
      const Matrix inner = ref_rows(feats, 0, adj.n_dst);
      const std::span<const float> halo_rows(
          feats.data() + adj.n_dst * c.d_in,
          static_cast<std::size_t>(n_halo * c.d_in));
      const auto slab = [&](std::size_t s0, std::size_t s1) {
        return halo_rows.subspan(s0 * static_cast<std::size_t>(c.d_in),
                                 (s1 - s0) * static_cast<std::size_t>(c.d_in));
      };
      const std::span<const NodeId> all_slots(slots);
      const Matrix dout = agg_salted(adj.n_dst, c.d_out, rng);

      // Reference, at one thread: the phased layer as the concat/split
      // layout ran it (self half and bias first, the z half at finish).
      common::set_ops_threads(1);
      Matrix z(adj.n_dst, c.d_in), z_halo(adj.n_dst, c.d_in);
      nn::mean_aggregate_inner_rows(adj, inner, 0, adj.n_dst, z);
      Matrix want(adj.n_dst, c.d_out);
      ops::gemm_nn_rows(inner, ref_rows(fx.w, c.d_in, 2 * c.d_in), want, 0,
                        adj.n_dst);
      ops::add_row_bias_rows(want, fx.b, 0, adj.n_dst);
      nn::mean_aggregate_halo_fold(inc, all_slots.first(half), slab(0, half),
                                   c.d_in, z_halo);
      nn::mean_aggregate_halo_fold(inc, all_slots.subspan(half),
                                   slab(half, slots.size()), c.d_in, z_halo);
      for (std::int64_t i = 0; i < z.size(); ++i)
        z.data()[i] += z_halo.data()[i];
      nn::mean_aggregate_finish(inv, z);
      ops::gemm_nn(z, ref_rows(fx.w, 0, c.d_in), want, 1.0f, 1.0f);
      const Matrix u = ref_concat(z, inner);
      RefActivation act(c.relu, c.p);
      Rng ref_rng(77);
      act.forward(want, ref_rng);
      Matrix g = dout;
      act.backward(g);
      Matrix du(adj.n_dst, 2 * c.d_in), dz, dself;
      ops::gemm_nt(g, fx.w, du);
      ref_split(du, c.d_in, dz, dself);
      Matrix want_dhalo(n_halo, c.d_in);
      nn::mean_aggregate_backward_halo(inc, dz, inv, want_dhalo);
      Matrix want_dinner = dself;
      nn::mean_aggregate_backward_inner(inc, dz, inv, want_dinner);
      Matrix want_dw = fx.dw0, want_db = fx.db0;
      ops::gemm_tn(u, g, want_dw, 1.0f, 1.0f);
      ops::col_sum(g, want_db);

      for (const int threads : {1, 4}) {
        SCOPED_TRACE(sage_case_name(c, threads) +
                     (weighted ? " weighted" : " unweighted"));
        common::set_ops_threads(threads);
        fx.reset();
        nn::Layer& layer = fx.layer;
        // Chunks and folds interleave, as under the stream schedule.
        layer.forward_inner_begin(adj, inner, true);
        layer.forward_halo_begin(adj, inc);
        layer.forward_inner_chunk(adj, 0, 23);
        layer.forward_halo_fold(adj, all_slots.first(half), slab(0, half));
        layer.forward_inner_chunk(adj, 23, 24);
        layer.forward_inner_chunk(adj, 24, adj.n_dst);
        layer.forward_halo_fold(adj, all_slots.subspan(half),
                                slab(half, slots.size()));
        const Matrix out = layer.forward_halo_finish(adj, inv);
        EXPECT_TRUE(same_bytes(out, want)) << "forward";
        const Matrix dhalo = layer.backward_halo(adj, dout, inv);
        EXPECT_TRUE(same_bytes(dhalo, want_dhalo)) << "dhalo";
        const Matrix dinner = layer.backward_inner(adj, inv);
        EXPECT_TRUE(same_bytes(dinner, want_dinner)) << "dinner";
        layer.backward_params(adj);
        EXPECT_TRUE(same_bytes(*layer.grads()[0], want_dw)) << "dW";
        EXPECT_TRUE(same_bytes(*layer.grads()[1], want_db)) << "db";
      }
      common::set_ops_threads(1);
    }
  }
}

} // namespace
} // namespace bnsgcn
