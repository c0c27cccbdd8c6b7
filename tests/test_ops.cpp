#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/layer.hpp"
#include "tensor/gemm_panel.hpp"
#include "tensor/ops.hpp"

namespace bnsgcn {
namespace {

TEST(Ops, GemmNnSmall) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c(2, 2);
  ops::gemm_nn(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0f);
}

TEST(Ops, GemmNnAlphaBeta) {
  Matrix a{{1, 0}, {0, 1}};
  Matrix b{{2, 3}, {4, 5}};
  Matrix c{{1, 1}, {1, 1}};
  ops::gemm_nn(a, b, c, 2.0f, 1.0f);
  EXPECT_FLOAT_EQ(c.at(0, 0), 5.0f);  // 1 + 2*2
  EXPECT_FLOAT_EQ(c.at(1, 1), 11.0f); // 1 + 2*5
}

TEST(Ops, GemmNnRowsBitIdenticalToFullGemmForAnyChunking) {
  // The chunked-stream F1 relies on gemm_nn_rows producing the exact bits
  // of the fused gemm_nn for every row split (the k-accumulation order is
  // independent of row blocking). Check several chunkings, including ones
  // that straddle the 64-row m-block boundary.
  Rng rng(3);
  Matrix a(150, 33);
  Matrix b(33, 17);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  Matrix full(150, 17);
  ops::gemm_nn(a, b, full);
  for (const std::int64_t chunk : {1, 7, 64, 100, 150}) {
    Matrix c(150, 17);
    for (std::int64_t r0 = 0; r0 < 150; r0 += chunk)
      ops::gemm_nn_rows(a, b, c, r0, std::min<std::int64_t>(150, r0 + chunk));
    for (std::int64_t i = 0; i < full.size(); ++i)
      ASSERT_EQ(c.data()[i], full.data()[i]) << "chunk " << chunk;
  }
}

TEST(Ops, GemmNnRowsTouchesOnlyTheAddressedRange) {
  // Rows outside [r0, r1) must be untouched (the chunked forward writes
  // the inner prefix of a larger output), and beta applies to the range
  // only.
  Rng rng(4);
  Matrix a(10, 5), b(5, 4);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  Matrix c(10, 4);
  for (std::int64_t i = 0; i < c.size(); ++i) c.data()[i] = 9.0f;
  ops::gemm_nn_rows(a, b, c, 2, 5);
  Matrix full(10, 4);
  ops::gemm_nn(a, b, full);
  for (std::int64_t i = 0; i < 10; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      if (i >= 2 && i < 5) {
        EXPECT_EQ(c.at(i, j), full.at(i, j));
      } else {
        EXPECT_EQ(c.at(i, j), 9.0f) << "row " << i << " clobbered";
      }
    }
  }
  EXPECT_THROW(ops::gemm_nn_rows(a, b, c, 5, 2), CheckError);
  EXPECT_THROW(ops::gemm_nn_rows(a, b, c, 0, 11), CheckError);
}

TEST(Ops, AddRowBiasRowsMatchesFullOnRange) {
  Matrix x{{1, 2}, {3, 4}, {5, 6}};
  Matrix bias{{10, 20}};
  ops::add_row_bias_rows(x, bias, 1, 2);
  EXPECT_FLOAT_EQ(x.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(x.at(1, 0), 13.0f);
  EXPECT_FLOAT_EQ(x.at(1, 1), 24.0f);
  EXPECT_FLOAT_EQ(x.at(2, 1), 6.0f);
}

TEST(Ops, GemmTnMatchesExplicitTranspose) {
  Rng rng(1);
  Matrix a(7, 3);
  Matrix b(7, 5);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  Matrix c(3, 5);
  ops::gemm_tn(a, b, c);
  // reference: c[k][n] = sum_i a[i][k] * b[i][n]
  for (std::int64_t k = 0; k < 3; ++k) {
    for (std::int64_t n = 0; n < 5; ++n) {
      float ref = 0.0f;
      for (std::int64_t i = 0; i < 7; ++i) ref += a.at(i, k) * b.at(i, n);
      EXPECT_NEAR(c.at(k, n), ref, 1e-4f);
    }
  }
}

TEST(Ops, GemmNtMatchesExplicitTranspose) {
  Rng rng(2);
  Matrix a(4, 6);
  Matrix b(3, 6);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  Matrix c(4, 3);
  ops::gemm_nt(a, b, c);
  for (std::int64_t i = 0; i < 4; ++i) {
    for (std::int64_t j = 0; j < 3; ++j) {
      float ref = 0.0f;
      for (std::int64_t t = 0; t < 6; ++t) ref += a.at(i, t) * b.at(j, t);
      EXPECT_NEAR(c.at(i, j), ref, 1e-4f);
    }
  }
}

TEST(Ops, GemmShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 2), c(2, 2);
  EXPECT_THROW(ops::gemm_nn(a, b, c), CheckError);
}

TEST(Ops, GemmAssociativityWithIdentity) {
  Rng rng(3);
  Matrix a(5, 5);
  a.randomize_gaussian(rng, 1.0f);
  Matrix eye(5, 5);
  for (int i = 0; i < 5; ++i) eye.at(i, i) = 1.0f;
  Matrix c(5, 5);
  ops::gemm_nn(a, eye, c);
  EXPECT_LT(ops::max_abs_diff(a, c), 1e-6f);
}

TEST(Ops, AddAndAxpy) {
  Matrix a{{1, 2}};
  Matrix b{{3, 4}};
  ops::add_inplace(a, b);
  EXPECT_FLOAT_EQ(a.at(0, 1), 6.0f);
  ops::axpy(0.5f, b, a);
  EXPECT_FLOAT_EQ(a.at(0, 0), 5.5f);
}

TEST(Ops, AddRowBias) {
  Matrix x{{1, 1}, {2, 2}};
  Matrix b{{10, 20}};
  ops::add_row_bias_rows(x, b, 0, x.rows());
  EXPECT_FLOAT_EQ(x.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(x.at(1, 1), 22.0f);
}

TEST(Ops, ColSum) {
  Matrix g{{1, 2}, {3, 4}, {5, 6}};
  Matrix out(1, 2);
  ops::col_sum(g, out);
  EXPECT_FLOAT_EQ(out.at(0, 0), 9.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 12.0f);
}

TEST(Ops, ActivationReluForwardBackward) {
  Matrix x{{-1, 2}, {3, -4}};
  Rng rng(1);
  ops::ActivationRecord rec;
  ops::activation_forward(x, nullptr, /*relu=*/true, 0.0f, rng, &rec);
  EXPECT_FLOAT_EQ(x.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(x.at(0, 1), 2.0f);
  Matrix g{{5, 5}, {5, 5}};
  ops::activation_backward(g, rec);
  EXPECT_FLOAT_EQ(g.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(g.at(0, 1), 5.0f);
  EXPECT_FLOAT_EQ(g.at(1, 0), 5.0f);
  EXPECT_FLOAT_EQ(g.at(1, 1), 0.0f);
}

TEST(Ops, ActivationAddsTheBiasFirst) {
  Matrix x{{1, -3}, {-2, 2}};
  Matrix b{{1, 2}};
  Rng rng(1);
  ops::activation_forward(x, &b, /*relu=*/true, 0.0f, rng, nullptr);
  EXPECT_FLOAT_EQ(x.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(x.at(0, 1), 0.0f); // -3 + 2 < 0
  EXPECT_FLOAT_EQ(x.at(1, 0), 0.0f); // -2 + 1 < 0
  EXPECT_FLOAT_EQ(x.at(1, 1), 4.0f);
}

TEST(Ops, LeakyRelu) {
  Matrix x{{-2, 4}};
  Matrix mask;
  ops::leaky_relu_forward(x, mask, 0.1f);
  EXPECT_NEAR(x.at(0, 0), -0.2f, 1e-6f);
  EXPECT_FLOAT_EQ(x.at(0, 1), 4.0f);
  Matrix g{{1, 1}};
  ops::leaky_relu_backward(g, mask);
  EXPECT_NEAR(g.at(0, 0), 0.1f, 1e-6f);
  EXPECT_FLOAT_EQ(g.at(0, 1), 1.0f);
}

TEST(Ops, DropoutZeroRateIsIdentityAndDrawsNothing) {
  Matrix x{{1, -2, 3}};
  Rng rng(1), untouched(1);
  ops::ActivationRecord rec;
  ops::activation_forward(x, nullptr, /*relu=*/false, 0.0f, rng, &rec);
  EXPECT_FLOAT_EQ(x.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(x.at(0, 1), -2.0f);
  EXPECT_TRUE(rec.flags.empty());
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
  Matrix g{{4, 5, 6}};
  ops::activation_backward(g, rec);
  EXPECT_FLOAT_EQ(g.at(0, 1), 5.0f);
}

TEST(Ops, DropoutIsUnbiased) {
  // E[dropout(x)] == x with inverted scaling.
  Rng rng(2);
  constexpr int kTrials = 20000;
  double sum = 0.0;
  for (int i = 0; i < kTrials; ++i) {
    Matrix x{{1.0f}};
    ops::ActivationRecord rec;
    ops::activation_forward(x, nullptr, /*relu=*/false, 0.4f, rng, &rec);
    sum += x.at(0, 0);
  }
  EXPECT_NEAR(sum / kTrials, 1.0, 0.02);
}

TEST(Ops, SoftmaxRows) {
  Matrix x{{0, 0}, {1000, 1000}}; // second row tests overflow safety
  ops::softmax_rows(x);
  EXPECT_NEAR(x.at(0, 0), 0.5f, 1e-6f);
  EXPECT_NEAR(x.at(1, 0), 0.5f, 1e-6f);
}

TEST(Ops, GatherRows) {
  Matrix src{{1, 1}, {2, 2}, {3, 3}};
  std::vector<NodeId> idx{2, 0};
  Matrix out;
  ops::gather_rows(src, idx, out);
  EXPECT_EQ(out.rows(), 2);
  EXPECT_FLOAT_EQ(out.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 1.0f);
}

TEST(Ops, ScatterAddRows) {
  Matrix src{{1, 1}, {2, 2}};
  Matrix dst(3, 2);
  std::vector<NodeId> idx{1, 1};
  ops::scatter_add_rows(src, idx, dst);
  EXPECT_FLOAT_EQ(dst.at(1, 0), 3.0f);
  EXPECT_FLOAT_EQ(dst.at(0, 0), 0.0f);
}

TEST(Ops, GatherScatterRoundTrip) {
  Rng rng(4);
  Matrix src(10, 5);
  src.randomize_gaussian(rng, 1.0f);
  std::vector<NodeId> idx{0, 3, 7, 9};
  Matrix picked;
  ops::gather_rows(src, idx, picked);
  Matrix back(10, 5);
  ops::scatter_add_rows(picked, idx, back);
  for (const NodeId i : idx)
    for (std::int64_t c = 0; c < 5; ++c)
      EXPECT_FLOAT_EQ(back.at(i, c), src.at(i, c));
}

TEST(Ops, FrobeniusNorm) {
  Matrix a{{3, 4}};
  EXPECT_NEAR(ops::frobenius_norm_sq(a), 25.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Threads-axis parity matrix: every pooled kernel must be bit-identical to
// its K=1 scalar path for every thread count. The shapes are deliberately
// ragged — row/column counts that leave a tail block smaller than the
// 64-wide parallel grain — so the block decomposition's edge cases are in
// play, and K=7 exceeds this machine's cores, so lanes genuinely interleave.
// Comparison is through bit_cast: even a -0.0f vs +0.0f drift fails.
// ---------------------------------------------------------------------------

constexpr int kParityThreads[] = {1, 2, 3, 7};

void expect_bits_equal(const Matrix& got, const Matrix& want, int threads,
                       const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::int64_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got.data()[i]),
              std::bit_cast<std::uint32_t>(want.data()[i]))
        << what << " diverges at flat index " << i << " with " << threads
        << " threads";
  }
}

/// Runs `fill` at K=1 and at each K in kParityThreads, comparing outputs
/// bitwise. `fill` must write its result into the passed matrix.
template <typename Fill>
void check_threads_parity(const char* what, Fill&& fill) {
  Matrix ref;
  common::set_ops_threads(1);
  fill(ref);
  for (const int k : kParityThreads) {
    Matrix got;
    common::set_ops_threads(k);
    fill(got);
    common::set_ops_threads(1);
    expect_bits_equal(got, ref, k, what);
  }
}

TEST(OpsThreadsParity, GemmNn) {
  Rng rng(11);
  Matrix a(201, 33), b(33, 17);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  // A few exact zeros so the av==0 skip is exercised under threading.
  a.data()[5] = 0.0f;
  a.data()[700] = -0.0f;
  check_threads_parity("gemm_nn", [&](Matrix& c) {
    c.resize(201, 17);
    ops::gemm_nn(a, b, c);
  });
  check_threads_parity("gemm_nn alpha/beta", [&](Matrix& c) {
    c.resize(201, 17);
    c.fill(0.5f);
    ops::gemm_nn(a, b, c, 0.7f, 2.0f);
  });
}

TEST(OpsThreadsParity, GemmNnRowsRangeSemantics) {
  // Under threading, gemm_nn_rows must still write rows [r0, r1) only and
  // produce the bits of the fused full-shape call on that range.
  Rng rng(12);
  Matrix a(180, 29), b(29, 13);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  Matrix full(180, 13);
  common::set_ops_threads(1);
  ops::gemm_nn(a, b, full);
  for (const int k : kParityThreads) {
    common::set_ops_threads(k);
    Matrix c(180, 13);
    for (std::int64_t i = 0; i < c.size(); ++i) c.data()[i] = 9.0f;
    ops::gemm_nn_rows(a, b, c, 30, 170);
    common::set_ops_threads(1);
    for (std::int64_t i = 0; i < 180; ++i) {
      for (std::int64_t j = 0; j < 13; ++j) {
        if (i >= 30 && i < 170) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(c.at(i, j)),
                    std::bit_cast<std::uint32_t>(full.at(i, j)))
              << "row " << i << " threads " << k;
        } else {
          ASSERT_EQ(c.at(i, j), 9.0f)
              << "row " << i << " clobbered with " << k << " threads";
        }
      }
    }
  }
}

TEST(OpsThreadsParity, GemmNnRowsChunkingTimesThreads) {
  // The chunked-stream F1 calls gemm_nn_rows with chunks as small as one
  // row; chunking and threading must compose bit-exactly.
  Rng rng(13);
  Matrix a(150, 33), b(33, 17);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  Matrix full(150, 17);
  common::set_ops_threads(1);
  ops::gemm_nn(a, b, full);
  for (const int k : kParityThreads) {
    for (const std::int64_t chunk : {1, 7, 64, 150}) {
      common::set_ops_threads(k);
      Matrix c(150, 17);
      for (std::int64_t r0 = 0; r0 < 150; r0 += chunk)
        ops::gemm_nn_rows(a, b, c, r0, std::min<std::int64_t>(150, r0 + chunk));
      common::set_ops_threads(1);
      expect_bits_equal(c, full, k, "gemm_nn_rows chunked");
    }
  }
}

TEST(OpsThreadsParity, GemmTn) {
  // k=150 splits the kk axis into 64+64+22; the i loop stays outermost in
  // every lane so each element's ascending-i accumulation (including the
  // av==0 skips) is the scalar kernel's.
  Rng rng(14);
  Matrix a(90, 150), b(90, 40);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  a.data()[40] = 0.0f;
  check_threads_parity("gemm_tn", [&](Matrix& c) {
    c.resize(150, 40);
    ops::gemm_tn(a, b, c);
  });
  check_threads_parity("gemm_tn beta=1 accumulate", [&](Matrix& c) {
    c.resize(150, 40);
    c.fill(0.25f);
    ops::gemm_tn(a, b, c, 1.0f, 1.0f);
  });
}

TEST(OpsThreadsParity, GemmNt) {
  Rng rng(15);
  Matrix a(201, 23), b(31, 23);
  a.randomize_gaussian(rng, 1.0f);
  b.randomize_gaussian(rng, 1.0f);
  check_threads_parity("gemm_nt", [&](Matrix& c) {
    c.resize(201, 31);
    ops::gemm_nt(a, b, c, 0.9f, 0.0f);
  });
}

TEST(OpsThreadsParity, GatherAndScatter) {
  Rng rng(16);
  Matrix src(50, 100);
  src.randomize_gaussian(rng, 1.0f);
  std::vector<NodeId> idx;
  for (int i = 0; i < 333; ++i)
    idx.push_back(static_cast<NodeId>((i * 17 + 3) % 50)); // repeats
  check_threads_parity("gather_rows", [&](Matrix& out) {
    ops::gather_rows(src, idx, out);
  });
  Matrix rows(static_cast<std::int64_t>(idx.size()), 100);
  rows.randomize_gaussian(rng, 1.0f);
  check_threads_parity("scatter_add_rows", [&](Matrix& dst) {
    dst.resize(50, 100);
    dst.fill(0.125f);
    ops::scatter_add_rows(rows, idx, dst);
  });
}

// Random bipartite graph with a ragged feature width and optional edge
// scales — the aggregate kernels' parity fixture.
nn::BipartiteCsr random_adj(Rng& rng, NodeId n_dst, NodeId n_src,
                            bool weighted) {
  nn::BipartiteCsr adj;
  adj.n_dst = n_dst;
  adj.n_src = n_src;
  adj.offsets.push_back(0);
  for (NodeId v = 0; v < n_dst; ++v) {
    const int deg = static_cast<int>(rng.next_u64() % 9); // some zero-degree
    for (int e = 0; e < deg; ++e)
      adj.nbrs.push_back(static_cast<NodeId>(rng.next_u64() %
                                             static_cast<std::uint64_t>(n_src)));
    adj.offsets.push_back(static_cast<EdgeId>(adj.nbrs.size()));
  }
  if (weighted) {
    for (std::size_t e = 0; e < adj.nbrs.size(); ++e)
      adj.edge_scale.push_back(0.5f + rng.next_float());
  }
  adj.validate();
  return adj;
}

std::vector<float> inv_degrees(const nn::BipartiteCsr& adj) {
  std::vector<float> inv(static_cast<std::size_t>(adj.n_dst), 0.0f);
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const auto deg = adj.offsets[static_cast<std::size_t>(v) + 1] -
                     adj.offsets[static_cast<std::size_t>(v)];
    if (deg > 0) inv[static_cast<std::size_t>(v)] = 1.0f / static_cast<float>(deg);
  }
  return inv;
}

TEST(OpsThreadsParity, MeanAggregateFamily) {
  for (const bool weighted : {false, true}) {
    Rng rng(weighted ? 18 : 17);
    const NodeId n_dst = 170, n_src = 140, n_lo = 110;
    const std::int64_t d = 100; // column tail of 36 under the 64 grain
    const auto adj = random_adj(rng, n_dst, n_src, weighted);
    const auto inv = inv_degrees(adj);
    Matrix src(n_src, d), inner(n_lo, d), dout(n_dst, d);
    src.randomize_gaussian(rng, 1.0f);
    inner.randomize_gaussian(rng, 1.0f);
    dout.randomize_gaussian(rng, 1.0f);

    check_threads_parity("mean_aggregate", [&](Matrix& out) {
      nn::mean_aggregate(adj, src, inv, out);
    });
    check_threads_parity("mean_aggregate_inner_rows", [&](Matrix& out) {
      out.resize(n_dst, d);
      out.zero();
      nn::mean_aggregate_inner_rows(adj, inner, 20, 160, out);
    });
    check_threads_parity("mean_aggregate_backward", [&](Matrix& dsrc) {
      dsrc.resize(n_src, d);
      dsrc.zero();
      nn::mean_aggregate_backward(adj, dout, inv, dsrc);
    });
    nn::SourceIncidence inc;
    inc.build(adj, n_lo);
    check_threads_parity("mean_aggregate_backward_halo", [&](Matrix& dhalo) {
      dhalo.resize(n_src - n_lo, d);
      dhalo.zero();
      nn::mean_aggregate_backward_halo(inc, dout, inv, dhalo);
    });
    check_threads_parity("mean_aggregate_backward_inner", [&](Matrix& di) {
      di.resize(n_lo, d);
      di.zero();
      nn::mean_aggregate_backward_inner(inc, dout, inv, di);
    });

    std::vector<NodeId> slots;
    for (NodeId s = 0; s < inc.n_halo(); s += 2) slots.push_back(s);
    Matrix halo_rows(static_cast<std::int64_t>(slots.size()), d);
    halo_rows.randomize_gaussian(rng, 1.0f);
    const std::span<const float> rows_span(
        halo_rows.data(), static_cast<std::size_t>(halo_rows.size()));
    check_threads_parity("mean_aggregate_halo_fold", [&](Matrix& out) {
      out.resize(n_dst, d);
      out.fill(0.0625f);
      nn::mean_aggregate_halo_fold(inc, slots, rows_span, d, out);
    });
    check_threads_parity("mean_aggregate_finish", [&](Matrix& out) {
      out.resize(n_dst, d);
      out.fill(3.0f);
      nn::mean_aggregate_finish(inv, out);
    });
  }
}


// ---------------------------------------------------------------------------
// Bit-exact oracle for the SIMD GEMM panel. The ref_* functions are the
// scalar loops the panel replaced, kept verbatim: they define the bits.
// The shipped kernels (whatever clone this host dispatches to) and the
// panel instantiated under each target_clones target must match them
// byte for byte — on ragged shapes that leave partial tiles, partial
// column panels and a partial step pass, on operands salted with ±0,
// subnormals and ±inf, at 1 and 4 threads.
// ---------------------------------------------------------------------------

void ref_gemm_nn_rows(const Matrix& a, const Matrix& b, Matrix& c,
                      std::int64_t r0, std::int64_t r1, float alpha,
                      float beta) {
  constexpr std::int64_t kBlockM = 64;
  constexpr std::int64_t kBlockK = 256;
  const std::int64_t k = a.cols(), n = b.cols();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (std::int64_t i0 = r0; i0 < r1; i0 += kBlockM) {
    const std::int64_t i1 = std::min(i0 + kBlockM, r1);
    if (beta == 0.0f) {
      std::fill(pc + i0 * n, pc + i1 * n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::int64_t t = i0 * n; t < i1 * n; ++t) pc[t] *= beta;
    }
    for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
      const std::int64_t k1 = std::min(k0 + kBlockK, k);
      for (std::int64_t i = i0; i < i1; ++i) {
        float* crow = pc + i * n;
        for (std::int64_t kk = k0; kk < k1; ++kk) {
          const float av = alpha * pa[i * k + kk];
          if (av == 0.0f) continue;
          const float* brow = pb + kk * n;
          for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

void ref_gemm_tn(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
                 float beta) {
  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  if (beta == 0.0f) {
    std::fill(pc, pc + k * n, 0.0f);
  } else if (beta != 1.0f) {
    for (std::int64_t t = 0; t < k * n; ++t) pc[t] *= beta;
  }
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    const float* brow = pb + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = alpha * arow[kk];
      if (av == 0.0f) continue;
      float* crow = pc + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void ref_gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
                 float beta) {
  const std::int64_t m = a.rows(), n = a.cols(), k = b.rows();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  if (beta == 0.0f) {
    std::fill(pc, pc + m * k, 0.0f);
  } else if (beta != 1.0f) {
    for (std::int64_t t = 0; t < m * k; ++t) pc[t] *= beta;
  }
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * n;
    float* crow = pc + i * k;
    for (std::int64_t j = 0; j < k; ++j) {
      const float* brow = pb + j * n;
      float acc = 0.0f;
      for (std::int64_t t = 0; t < n; ++t) acc += arow[t] * brow[t];
      crow[j] += alpha * acc;
    }
  }
}

// The panel compiled for each target_clones target, test-side: always_inline
// pulls the one shared body into each target function.
__attribute__((target("avx512f"))) void panel_avx512f(
    const ops::detail::Spec& s, std::int64_t r0, std::int64_t r1) {
  ops::detail::run(s, r0, r1);
}
__attribute__((target("avx2"))) void panel_avx2(const ops::detail::Spec& s,
                                                std::int64_t r0,
                                                std::int64_t r1) {
  ops::detail::run(s, r0, r1);
}
void panel_default(const ops::detail::Spec& s, std::int64_t r0,
                   std::int64_t r1) {
  ops::detail::run(s, r0, r1);
}

struct PanelTarget {
  const char* name;
  ops::detail::PanelFn panel;
};

/// The clones this host can execute (the default clone always runs).
std::vector<PanelTarget> runnable_targets() {
  __builtin_cpu_init();
  std::vector<PanelTarget> out;
  if (__builtin_cpu_supports("avx512f"))
    out.push_back({"avx512f", &panel_avx512f});
  if (__builtin_cpu_supports("avx2")) out.push_back({"avx2", &panel_avx2});
  out.push_back({"default", &panel_default});
  return out;
}

constexpr std::int64_t kOracleDims[] = {1, 3, 15, 16, 17, 41, 64, 65, 130, 257};
constexpr float kOracleAlphas[] = {1.0f, 0.5f, -2.0f};
constexpr float kOracleBetas[] = {0.0f, 1.0f, 0.25f};
constexpr int kOracleThreads[] = {1, 4};

/// Gaussian values salted with +0, -0, subnormals and (rarely) ±inf.
Matrix salted(std::int64_t rows, std::int64_t cols, Rng& rng) {
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

/// memcmp of the whole buffer (so rows a range call must not touch are
/// checked too); reports the first differing element.
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

/// Runs `kernel(panel, c)` for the shipped dispatcher (panel == nullptr)
/// and for every runnable clone, at each oracle thread count, each on a
/// fresh copy of c0, and compares against `want`.
template <typename Kernel>
void expect_oracle_bits(const Matrix& c0, const Matrix& want,
                        const std::string& what, Kernel&& kernel) {
  static const std::vector<PanelTarget> targets = runnable_targets();
  for (const int threads : kOracleThreads) {
    common::set_ops_threads(threads);
    Matrix got = c0;
    kernel(nullptr, got);
    EXPECT_TRUE(same_bytes(got, want))
        << what << ", shipped (" << ops::kernel_isa() << "), " << threads
        << " threads";
    for (const PanelTarget& t : targets) {
      Matrix got_t = c0;
      kernel(t.panel, got_t);
      EXPECT_TRUE(same_bytes(got_t, want))
          << what << ", " << t.name << " clone, " << threads << " threads";
    }
  }
  common::set_ops_threads(1);
}

/// Visits every (outer, inner) pair of oracle dims, cycling through the
/// nine (alpha, beta) pairs so each is used on ~11 shapes.
template <typename Body>
void for_oracle_shapes(Body&& body) {
  int s = 0;
  for (const std::int64_t p : kOracleDims) {
    for (const std::int64_t q : kOracleDims) {
      body(p, q, kOracleAlphas[s % 3], kOracleBetas[(s / 3) % 3]);
      ++s;
    }
  }
}

std::string shape_name(const char* kernel, std::int64_t p, std::int64_t q,
                       float alpha, float beta) {
  std::ostringstream os;
  os << kernel << " p=" << p << " q=" << q << " alpha=" << alpha
     << " beta=" << beta;
  return os.str();
}

TEST(OpsOracle, KernelIsaNamesTheBestRunnableTarget) {
  EXPECT_STREQ(ops::kernel_isa(), runnable_targets().front().name);
}

TEST(OpsOracle, GemmNnRowsBitExactOnEveryTarget) {
  // A (67 × k) · B (k × n): 67 rows span two kBlockM blocks and end in a
  // 3-row tile; k = 257 crosses a step pass. Ranges include single rows
  // and ones starting mid-tile.
  constexpr std::int64_t m = 67;
  Rng rng(21);
  for_oracle_shapes([&](std::int64_t k, std::int64_t n, float alpha,
                        float beta) {
    const Matrix a = salted(m, k, rng);
    const Matrix b = salted(k, n, rng);
    const Matrix c0 = salted(m, n, rng);
    const std::pair<std::int64_t, std::int64_t> ranges[] = {
        {0, m}, {m - 1, m}, {5, 6}, {3, 66}};
    for (const auto& [r0, r1] : ranges) {
      Matrix want = c0;
      ref_gemm_nn_rows(a, b, want, r0, r1, alpha, beta);
      std::ostringstream what;
      what << shape_name("gemm_nn_rows", k, n, alpha, beta) << " rows ["
           << r0 << ", " << r1 << ")";
      expect_oracle_bits(c0, want, what.str(),
                         [&](ops::detail::PanelFn panel, Matrix& c) {
                           if (panel == nullptr) {
                             ops::gemm_nn_rows(a, b, c, r0, r1, alpha, beta);
                           } else {
                             ops::detail::gemm_nn_rows_with(
                                 panel, a, b, c, r0, r1, alpha, beta);
                           }
                         });
    }
  });
}

TEST(OpsOracle, GemmTnBitExactOnEveryTarget) {
  // Aᵀ (k × 259) · B (259 × n): 259 steps cross the 256-step pass.
  constexpr std::int64_t m = 259;
  Rng rng(22);
  for_oracle_shapes([&](std::int64_t k, std::int64_t n, float alpha,
                        float beta) {
    const Matrix a = salted(m, k, rng);
    const Matrix b = salted(m, n, rng);
    const Matrix c0 = salted(k, n, rng);
    Matrix want = c0;
    ref_gemm_tn(a, b, want, alpha, beta);
    expect_oracle_bits(c0, want, shape_name("gemm_tn", k, n, alpha, beta),
                       [&](ops::detail::PanelFn panel, Matrix& c) {
                         if (panel == nullptr) {
                           ops::gemm_tn(a, b, c, alpha, beta);
                         } else {
                           ops::detail::gemm_tn_with(panel, a, b, c, alpha,
                                                     beta);
                         }
                       });
  });
}

TEST(OpsOracle, GemmNtBitExactOnEveryTarget) {
  // A (67 × n) · Bᵀ (n × k): no zero skip, so ±0 and inf·0 in A and B must
  // reach the dot products exactly as in the scalar loop.
  constexpr std::int64_t m = 67;
  Rng rng(23);
  for_oracle_shapes([&](std::int64_t n, std::int64_t k, float alpha,
                        float beta) {
    const Matrix a = salted(m, n, rng);
    const Matrix b = salted(k, n, rng);
    const Matrix c0 = salted(m, k, rng);
    Matrix want = c0;
    ref_gemm_nt(a, b, want, alpha, beta);
    expect_oracle_bits(c0, want, shape_name("gemm_nt", n, k, alpha, beta),
                       [&](ops::detail::PanelFn panel, Matrix& c) {
                         if (panel == nullptr) {
                           ops::gemm_nt(a, b, c, alpha, beta);
                         } else {
                           ops::detail::gemm_nt_with(panel, a, b, c, alpha,
                                                     beta);
                         }
                       });
  });
}


/// A view of columns [c0, c0 + cols) of every row of `m` — a block whose
/// stride exceeds its width, the general case of the GEMMs' views.
ConstRowBlock col_window(const Matrix& m, std::int64_t c0, std::int64_t cols) {
  return {m.data() + c0, m.rows(), cols, m.cols()};
}
RowBlock col_window(Matrix& m, std::int64_t c0, std::int64_t cols) {
  return {m.data() + c0, m.rows(), cols, m.cols()};
}

/// The window's elements as a compact matrix.
Matrix compact(ConstRowBlock v) {
  Matrix out(v.rows, v.cols);
  for (std::int64_t r = 0; r < v.rows; ++r)
    std::copy(v.data + r * v.stride, v.data + r * v.stride + v.cols,
              out.data() + r * v.cols);
  return out;
}

TEST(OpsOracle, GemmViewsMatchCompactOperandsOnEveryTarget) {
  // Every operand is a column window of a wider buffer (stride > cols), and
  // the output window's neighbours must come back untouched: the views
  // give the bits of the Matrix form on compact copies.
  Rng rng(24);
  constexpr std::int64_t m = 67, pad = 5, off = 2;
  for_oracle_shapes([&](std::int64_t k, std::int64_t n, float alpha,
                        float beta) {
    const Matrix a_buf = salted(m, k + pad, rng);
    const Matrix b_buf = salted(k, n + pad, rng);
    const Matrix bt_buf = salted(n, k + pad, rng); // gemm_nt's B (n × k)
    const Matrix g_buf = salted(m, n + pad, rng);  // gemm_tn's B (m × n)
    const ConstRowBlock a = col_window(a_buf, off, k);
    const Matrix a_c = compact(a);
    {
      Matrix c0 = salted(m, n + pad, rng);
      Matrix want = c0;
      Matrix want_c = compact(col_window(c0, off, n));
      ops::gemm_nn_rows(a_c, compact(col_window(b_buf, off, n)), want_c, 3,
                        66, alpha, beta);
      for (std::int64_t r = 0; r < m; ++r)
        std::copy(want_c.data() + r * n, want_c.data() + (r + 1) * n,
                  want.data() + r * (n + pad) + off);
      expect_oracle_bits(c0, want, shape_name("gemm_nn_rows view", k, n,
                                              alpha, beta),
                         [&](ops::detail::PanelFn panel, Matrix& c) {
                           const RowBlock cv = col_window(c, off, n);
                           const ConstRowBlock bv = col_window(b_buf, off, n);
                           if (panel == nullptr) {
                             ops::gemm_nn_rows(a, bv, cv, 3, 66, alpha, beta);
                           } else {
                             ops::detail::gemm_nn_rows_with(panel, a, bv, cv,
                                                            3, 66, alpha,
                                                            beta);
                           }
                         });
    }
    {
      Matrix c0 = salted(k, n + pad, rng);
      Matrix want = c0;
      Matrix want_c = compact(col_window(c0, off, n));
      ops::gemm_tn(a_c, compact(col_window(g_buf, off, n)), want_c, alpha,
                   beta);
      for (std::int64_t r = 0; r < k; ++r)
        std::copy(want_c.data() + r * n, want_c.data() + (r + 1) * n,
                  want.data() + r * (n + pad) + off);
      expect_oracle_bits(c0, want, shape_name("gemm_tn view", k, n, alpha,
                                              beta),
                         [&](ops::detail::PanelFn panel, Matrix& c) {
                           const RowBlock cv = col_window(c, off, n);
                           const ConstRowBlock gv = col_window(g_buf, off, n);
                           if (panel == nullptr) {
                             ops::gemm_tn(a, gv, cv, alpha, beta);
                           } else {
                             ops::detail::gemm_tn_with(panel, a, gv, cv, alpha,
                                                       beta);
                           }
                         });
    }
    {
      // C (m × n) = A (m × k) · Bᵀ with B (n × k).
      Matrix c0 = salted(m, n + pad, rng);
      Matrix want = c0;
      Matrix want_c = compact(col_window(c0, off, n));
      ops::gemm_nt(a_c, compact(col_window(bt_buf, off, k)), want_c, alpha,
                   beta);
      for (std::int64_t r = 0; r < m; ++r)
        std::copy(want_c.data() + r * n, want_c.data() + (r + 1) * n,
                  want.data() + r * (n + pad) + off);
      expect_oracle_bits(c0, want, shape_name("gemm_nt view", k, n, alpha,
                                              beta),
                         [&](ops::detail::PanelFn panel, Matrix& c) {
                           const RowBlock cv = col_window(c, off, n);
                           const ConstRowBlock bv = col_window(bt_buf, off, k);
                           if (panel == nullptr) {
                             ops::gemm_nt(a, bv, cv, alpha, beta);
                           } else {
                             ops::detail::gemm_nt_with(panel, a, bv, cv, alpha,
                                                       beta);
                           }
                         });
    }
  });
}

TEST(OpsOracle, StackedGemmEqualsItsRowHalves) {
  // What SageLayer relies on: over u = [z | s] and W = [W_z; W_s], the
  // stacked gemm_nn equals W_z's call then W_s's; dW = uᵀg equals one
  // gemm_tn per row half of dW; and dU = g·Wᵀ equals one gemm_nt per row
  // half of W. Bit for bit, at 1 and 4 threads.
  Rng rng(25);
  constexpr std::int64_t m = 131, d = 65, h = 17;
  const Matrix z = salted(m, d, rng), s = salted(m, d, rng);
  const Matrix w = salted(2 * d, h, rng), g = salted(m, h, rng);
  Matrix u(m, 2 * d);
  for (std::int64_t r = 0; r < m; ++r) {
    std::copy(z.data() + r * d, z.data() + (r + 1) * d, u.data() + r * 2 * d);
    std::copy(s.data() + r * d, s.data() + (r + 1) * d,
              u.data() + r * 2 * d + d);
  }
  for (const int threads : kOracleThreads) {
    common::set_ops_threads(threads);
    Matrix want(m, h), got(m, h);
    ops::gemm_nn(u, w, want);
    ops::gemm_nn_rows(z, row_block(w, 0, d), got, 0, m, 1.0f, 1.0f);
    ops::gemm_nn_rows(s, row_block(w, d, 2 * d), got, 0, m, 1.0f, 1.0f);
    EXPECT_TRUE(same_bytes(got, want)) << "forward, " << threads << " threads";

    Matrix dw_want = salted(2 * d, h, rng);
    Matrix dw_got = dw_want;
    ops::gemm_tn(u, g, dw_want, 1.0f, 1.0f);
    ops::gemm_tn(z, g, row_block(dw_got, 0, d), 1.0f, 1.0f);
    ops::gemm_tn(s, g, row_block(dw_got, d, 2 * d), 1.0f, 1.0f);
    EXPECT_TRUE(same_bytes(dw_got, dw_want)) << "dW, " << threads
                                             << " threads";

    Matrix du(m, 2 * d);
    ops::gemm_nt(g, w, du);
    Matrix dz(m, d), ds(m, d);
    ops::gemm_nt(g, row_block(w, 0, d), dz, 1.0f, 1.0f);
    ops::gemm_nt(g, row_block(w, d, 2 * d), ds, 1.0f, 1.0f);
    Matrix du_got(m, 2 * d);
    for (std::int64_t r = 0; r < m; ++r) {
      std::copy(dz.data() + r * d, dz.data() + (r + 1) * d,
                du_got.data() + r * 2 * d);
      std::copy(ds.data() + r * d, ds.data() + (r + 1) * d,
                du_got.data() + r * 2 * d + d);
    }
    EXPECT_TRUE(same_bytes(du_got, du)) << "dU, " << threads << " threads";
  }
  common::set_ops_threads(1);
}

// ---------------------------------------------------------------------------
// Activation epilogue oracle: the bias, ReLU and inverted-dropout passes
// (and their mask-multiply backward) that ops::activation_forward /
// activation_backward replaced, kept here as the reference.
// ---------------------------------------------------------------------------

void two_pass_add_row_bias(Matrix& x, const Matrix& bias) {
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    float* row = x.data() + r * x.cols();
    for (std::int64_t c = 0; c < x.cols(); ++c) row[c] += bias.data()[c];
  }
}

void two_pass_relu_forward(Matrix& x, Matrix& mask) {
  mask.resize(x.rows(), x.cols());
  for (std::int64_t i = 0; i < x.size(); ++i) {
    const float v = x.data()[i];
    mask.data()[i] = v > 0.0f ? 1.0f : 0.0f;
    x.data()[i] = std::max(0.0f, v);
  }
}

void two_pass_dropout_forward(Matrix& x, Matrix& mask, float p, Rng& rng) {
  mask.resize(x.rows(), x.cols());
  if (p == 0.0f) {
    mask.fill(1.0f);
    return;
  }
  const float keep_scale = 1.0f / (1.0f - p);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    if (rng.next_float() < p) {
      x.data()[i] = 0.0f;
      mask.data()[i] = 0.0f;
    } else {
      x.data()[i] *= keep_scale;
      mask.data()[i] = keep_scale;
    }
  }
}

void two_pass_mask_backward(Matrix& g, const Matrix& mask) {
  for (std::int64_t i = 0; i < g.size(); ++i) g.data()[i] *= mask.data()[i];
}

/// salted() plus ±FLT_MAX (so bias adds overflow) and, unless
/// `with_nan` is false, NaN of both signs.
Matrix salted_nonfinite(std::int64_t rows, std::int64_t cols, Rng& rng,
                        bool with_nan = true) {
  Matrix m = salted(rows, cols, rng);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float big = std::numeric_limits<float>::max();
  const float specials[] = {big, -big, nan, -nan};
  const std::size_t n_specials = with_nan ? 4 : 2;
  for (std::int64_t i = 0; i < m.size(); ++i)
    if (rng.next_float() < 0.04f)
      m.data()[i] = specials[rng.next_below(n_specials)];
  return m;
}

TEST(OpsOracle, ActivationEpilogueMatchesTwoPassLoops) {
  const float rates[] = {0.0f, 0.1f, 0.3f, 0.5f};
  const std::pair<std::int64_t, std::int64_t> shapes[] = {
      {1, 1}, {3, 7}, {7, 37}, {33, 64}, {67, 65}};
  Rng data(41);
  std::uint64_t seed = 100;
  ops::ActivationRecord rec; // reused across calls, as a layer reuses it
  for (const auto& [rows, cols] : shapes) {
    for (const float p : rates) {
      for (const bool relu : {false, true}) {
        for (const bool with_bias : {false, true}) {
          std::ostringstream what;
          what << rows << "x" << cols << " p=" << p << " relu=" << relu
               << " bias=" << with_bias;
          SCOPED_TRACE(what.str());
          const Matrix x0 = salted_nonfinite(rows, cols, data);
          // No NaN in the bias: IEEE 754 leaves which payload NaN + NaN
          // returns to the implementation, and the compiler may commute an
          // add's operands, so that one case has no fixed bits to compare.
          // NaN + finite, NaN + inf and inf + -inf are all covered.
          const Matrix bias =
              salted_nonfinite(1, cols, data, /*with_nan=*/false);
          const Matrix g0 = salted_nonfinite(rows, cols, data);
          ++seed;

          Matrix want = x0, relu_mask, drop_mask;
          Rng want_rng(seed);
          if (with_bias) two_pass_add_row_bias(want, bias);
          if (relu) two_pass_relu_forward(want, relu_mask);
          two_pass_dropout_forward(want, drop_mask, p, want_rng);
          Matrix want_g = g0;
          two_pass_mask_backward(want_g, drop_mask);
          if (relu) two_pass_mask_backward(want_g, relu_mask);

          Matrix got = x0;
          Rng got_rng(seed);
          ops::activation_forward(got, with_bias ? &bias : nullptr, relu, p,
                                  got_rng, &rec);
          EXPECT_TRUE(same_bytes(got, want)) << "forward";
          Matrix got_g = g0;
          ops::activation_backward(got_g, rec);
          EXPECT_TRUE(same_bytes(got_g, want_g)) << "backward";

          // Forward-only (no record): the same outputs and the same draws.
          Matrix bare = x0;
          Rng bare_rng(seed);
          ops::activation_forward(bare, with_bias ? &bias : nullptr, relu, p,
                                  bare_rng, nullptr);
          EXPECT_TRUE(same_bytes(bare, want)) << "forward without a record";

          // The generator ends where the per-element loop left it.
          for (int i = 0; i < 4; ++i) {
            const std::uint64_t next = want_rng.next_u64();
            EXPECT_EQ(got_rng.next_u64(), next) << "rng state";
            EXPECT_EQ(bare_rng.next_u64(), next) << "rng state, no record";
          }
        }
      }
    }
  }
}

TEST(OpsOracle, DropoutIntegerThresholdMatchesTheFloatCompare) {
  // next_float() < p compared as integers: draws whose 24-bit value sits
  // exactly at, just below and just above p * 2^24 must split as the float
  // compare does. Rates with an exact and an inexact p * 2^24.
  for (const float p : {0.5f, 0.25f, 0.1f, 0.3f, 1.0f / 3.0f}) {
    Rng a(7), b(7);
    Matrix x(64, 257, 1.0f), mask;
    Matrix y = x;
    two_pass_dropout_forward(x, mask, p, a);
    ops::ActivationRecord rec;
    ops::activation_forward(y, nullptr, /*relu=*/false, p, b, &rec);
    EXPECT_TRUE(same_bytes(y, x)) << "p=" << p;
  }
  const double thr = std::ceil(static_cast<double>(0.1f) * 0x1.0p24);
  for (const double u : {thr - 1.0, thr, thr + 1.0}) {
    const float f = static_cast<float>(u) * 0x1.0p-24f;
    EXPECT_EQ(f < 0.1f, u < thr) << "u=" << u;
  }
}

} // namespace
} // namespace bnsgcn
