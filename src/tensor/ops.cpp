#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/thread_pool.hpp"
#include "tensor/gemm_panel.hpp"

namespace bnsgcn::ops {

namespace {

// Row grain of the row-split kernels: also the parallel_for block, and
// every output element's accumulation runs to completion inside one block
// (common/thread_pool.hpp, determinism contract), so neither the thread
// count nor this value changes bits.
constexpr std::int64_t kBlockM = 64;

// Column grain for the scatter-shaped kernels (scatter_add_rows here, the
// halo folds in nn/layer.cpp): destination rows repeat, so those kernels
// split the feature axis instead — each lane walks the full entry list but
// owns a disjoint column range, keeping the per-element entry order intact.
constexpr std::int64_t kBlockCols = 64;

// The shipped panel: one source, one clone per ISA, picked at load time by
// the CPU. The clones produce identical bits (tensor/gemm_panel.hpp).
__attribute__((target_clones("avx512f", "avx2", "default"))) void
dispatched_panel(const detail::Spec& s, std::int64_t r0, std::int64_t r1) {
  detail::run(s, r0, r1);
}

// Function multiversioning over the same targets, so the name reports the
// clone the loader picked for dispatched_panel.
__attribute__((target("default"))) const char* dispatched_isa() {
  return "default";
}
__attribute__((target("avx2"))) const char* dispatched_isa() { return "avx2"; }
__attribute__((target("avx512f"))) const char* dispatched_isa() {
  return "avx512f";
}

// beta * C over rows [r0, r1) of a row-major C with ldc columns.
void scale_rows(float* pc, std::int64_t ldc, std::int64_t r0, std::int64_t r1,
                float beta) {
  if (beta == 0.0f) {
    std::fill(pc + r0 * ldc, pc + r1 * ldc, 0.0f);
  } else if (beta != 1.0f) {
    for (std::int64_t t = r0 * ldc; t < r1 * ldc; ++t) pc[t] *= beta;
  }
}

// The last, partial kCols panel of a row-major B (steps × n), zero-padded
// to kCols columns; empty when n is a multiple of kCols.
std::vector<float> pack_tail(const float* pb, std::int64_t steps,
                             std::int64_t n) {
  const std::int64_t j0 = n - n % detail::kCols;
  std::vector<float> tail;
  if (j0 == n) return tail;
  tail.assign(static_cast<std::size_t>(steps * detail::kCols), 0.0f);
  for (std::int64_t t = 0; t < steps; ++t)
    std::copy(pb + t * n + j0, pb + t * n + n, tail.data() + t * detail::kCols);
  return tail;
}

} // namespace

const char* kernel_isa() { return dispatched_isa(); }

void gemm_nn(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta) {
  BNSGCN_CHECK(c.rows() == a.rows());
  gemm_nn_rows(a, b, c, 0, a.rows(), alpha, beta);
}

void gemm_nn_rows(const Matrix& a, const Matrix& b, Matrix& c,
                  std::int64_t r0, std::int64_t r1, float alpha, float beta) {
  detail::gemm_nn_rows_with(dispatched_panel, a, b, c, r0, r1, alpha, beta);
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta) {
  detail::gemm_tn_with(dispatched_panel, a, b, c, alpha, beta);
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta) {
  detail::gemm_nt_with(dispatched_panel, a, b, c, alpha, beta);
}

void detail::gemm_nn_rows_with(PanelFn panel, const Matrix& a,
                               const Matrix& b, Matrix& c, std::int64_t r0,
                               std::int64_t r1, float alpha, float beta) {
  const std::int64_t k = a.cols(), n = b.cols();
  BNSGCN_CHECK(b.rows() == k);
  BNSGCN_CHECK(c.cols() == n);
  BNSGCN_CHECK(0 <= r0 && r0 <= r1 && r1 <= a.rows() && r1 <= c.rows());
  // Row i of C: C[i,j] += (alpha*A[i,kk]) * B[kk,j], ascending kk, zero
  // multipliers skipped. That order is per row, so any [r0, r1) slicing
  // gives bit-identical rows to the full call, and the kBlockM row blocks
  // (anchored at r0) are thread-safe lanes owning disjoint rows of C.
  const std::vector<float> tail = pack_tail(b.data(), k, n);
  const Spec s{.a = a.data(), .a_row = k, .a_step = 1, .b = b.data(),
               .ldb = n, .b_tail = tail.data(), .ld_tail = kCols,
               .c = c.data(), .ldc = n, .n = n, .steps = k, .alpha = alpha,
               .dot = false};
  common::for_blocks(r1 - r0, kBlockM, [&](std::int64_t b0, std::int64_t b1) {
    scale_rows(c.data(), n, r0 + b0, r0 + b1, beta);
    panel(s, r0 + b0, r0 + b1);
  });
}

void detail::gemm_tn_with(PanelFn panel, const Matrix& a, const Matrix& b,
                          Matrix& c, float alpha, float beta) {
  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  BNSGCN_CHECK(b.rows() == m);
  BNSGCN_CHECK(c.rows() == k && c.cols() == n);
  // C[kk,j] += (alpha*A[i,kk]) * B[i,j]: row kk of C takes its multipliers
  // down column kk of A, ascending i, zero multipliers skipped. Lanes split
  // the kk axis (disjoint rows of C); the i order is per element, so the
  // result is bit-identical for any lane count.
  const std::vector<float> tail = pack_tail(b.data(), m, n);
  const Spec s{.a = a.data(), .a_row = 1, .a_step = k, .b = b.data(),
               .ldb = n, .b_tail = tail.data(), .ld_tail = kCols,
               .c = c.data(), .ldc = n, .n = n, .steps = m, .alpha = alpha,
               .dot = false};
  common::for_blocks(k, kBlockM, [&](std::int64_t kk0, std::int64_t kk1) {
    scale_rows(c.data(), n, kk0, kk1, beta);
    panel(s, kk0, kk1);
  });
}

void detail::gemm_nt_with(PanelFn panel, const Matrix& a, const Matrix& b,
                          Matrix& c, float alpha, float beta) {
  const std::int64_t m = a.rows(), n = a.cols(), k = b.rows();
  BNSGCN_CHECK(b.cols() == n);
  BNSGCN_CHECK(c.rows() == m && c.cols() == k);
  // C[i,j] += alpha * dot(A.row(i), B.row(j)), each dot from 0.0f in
  // ascending t with no skip. B (the small weight matrix) is transposed
  // once, zero-padded to whole kCols panels, so the dots of one C row run
  // as vectors along j. Rows of C are independent: the row split is
  // bit-stable.
  const std::int64_t ldt = (k + kCols - 1) / kCols * kCols;
  std::vector<float> bt(static_cast<std::size_t>(n * ldt), 0.0f);
  const float* pb = b.data();
  for (std::int64_t j = 0; j < k; ++j)
    for (std::int64_t t = 0; t < n; ++t) bt[t * ldt + j] = pb[j * n + t];
  const Spec s{.a = a.data(), .a_row = n, .a_step = 1, .b = bt.data(),
               .ldb = ldt, .b_tail = bt.data() + (k - k % kCols),
               .ld_tail = ldt, .c = c.data(), .ldc = k, .n = k, .steps = n,
               .alpha = alpha, .dot = true};
  common::for_blocks(m, kBlockM, [&](std::int64_t i0, std::int64_t i1) {
    scale_rows(c.data(), k, i0, i1, beta);
    panel(s, i0, i1);
  });
}

void add_inplace(Matrix& y, const Matrix& x) {
  BNSGCN_CHECK(y.rows() == x.rows() && y.cols() == x.cols());
  float* py = y.data();
  const float* px = x.data();
  const std::int64_t n = y.size();
  // lint: allow(float-accum) — element-wise y[i] += x[i]; no cross-element
  // reduction, order-independent by construction.
  for (std::int64_t i = 0; i < n; ++i) py[i] += px[i];
}

void axpy(float a, const Matrix& x, Matrix& y) {
  BNSGCN_CHECK(y.size() == x.size());
  float* py = y.data();
  const float* px = x.data();
  const std::int64_t n = y.size();
  // lint: allow(float-accum) — element-wise y[i] += a*x[i]; order-independent.
  for (std::int64_t i = 0; i < n; ++i) py[i] += a * px[i];
}

void scale_inplace(Matrix& y, float s) {
  float* py = y.data();
  const std::int64_t n = y.size();
  for (std::int64_t i = 0; i < n; ++i) py[i] *= s;
}

void add_row_bias(Matrix& x, const Matrix& bias) {
  add_row_bias_rows(x, bias, 0, x.rows());
}

void add_row_bias_rows(Matrix& x, const Matrix& bias, std::int64_t r0,
                       std::int64_t r1) {
  BNSGCN_CHECK(bias.rows() == 1 && bias.cols() == x.cols());
  BNSGCN_CHECK(0 <= r0 && r0 <= r1 && r1 <= x.rows());
  const float* pb = bias.data();
  for (std::int64_t r = r0; r < r1; ++r) {
    float* row = x.data() + r * x.cols();
    // lint: allow(float-accum) — element-wise bias add; order-independent.
    for (std::int64_t c = 0; c < x.cols(); ++c) row[c] += pb[c];
  }
}

void col_sum(const Matrix& grad, Matrix& out) {
  BNSGCN_CHECK(out.rows() == 1 && out.cols() == grad.cols());
  float* po = out.data();
  for (std::int64_t r = 0; r < grad.rows(); ++r) {
    const float* row = grad.data() + r * grad.cols();
    // lint: allow(float-accum) — serial reduction in fixed ascending row order;
    // single-threaded by contract (bias grads are tiny), so the order is fixed.
    for (std::int64_t c = 0; c < grad.cols(); ++c) po[c] += row[c];
  }
}

void relu_forward(Matrix& x, Matrix& mask) {
  mask.resize(x.rows(), x.cols());
  float* __restrict px = x.data();
  float* __restrict pm = mask.data();
  const std::int64_t n = x.size();
  // Selects, not a branch: on random signs a branch mispredicts about half
  // the time, and the select loop vectorizes. std::max(0.0f, v) is
  // (0 < v) ? v : 0, spelled so GCC keeps it a select instead of sinking
  // the unchanged store back into a branch. NaN, -0 and negatives give +0
  // with mask 0, exactly as the branch did.
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = px[i];
    pm[i] = v > 0.0f ? 1.0f : 0.0f;
    px[i] = std::max(0.0f, v);
  }
}

void relu_backward(Matrix& grad, const Matrix& mask) {
  BNSGCN_CHECK(grad.size() == mask.size());
  float* pg = grad.data();
  const float* pm = mask.data();
  const std::int64_t n = grad.size();
  for (std::int64_t i = 0; i < n; ++i) pg[i] *= pm[i];
}

void relu_forward(Matrix& x) {
  float* px = x.data();
  const std::int64_t n = x.size();
  // Branchless like the masked overload. The test is x <= 0 rather than
  // x > 0, so a NaN passes through unchanged, as it always has here.
  for (std::int64_t i = 0; i < n; ++i) px[i] = px[i] <= 0.0f ? 0.0f : px[i];
}

void leaky_relu_forward(Matrix& x, Matrix& mask, float slope) {
  mask.resize(x.rows(), x.cols());
  float* px = x.data();
  float* pm = mask.data();
  const std::int64_t n = x.size();
  for (std::int64_t i = 0; i < n; ++i) {
    if (px[i] > 0.0f) {
      pm[i] = 1.0f;
    } else {
      px[i] *= slope;
      pm[i] = slope;
    }
  }
}

void leaky_relu_backward(Matrix& grad, const Matrix& mask) {
  relu_backward(grad, mask); // same elementwise multiply
}

void dropout_forward(Matrix& x, Matrix& mask, float p, Rng& rng) {
  BNSGCN_CHECK(p >= 0.0f && p < 1.0f);
  mask.resize(x.rows(), x.cols());
  if (p == 0.0f) {
    mask.fill(1.0f);
    return;
  }
  const float keep_scale = 1.0f / (1.0f - p);
  float* px = x.data();
  float* pm = mask.data();
  const std::int64_t n = x.size();
  for (std::int64_t i = 0; i < n; ++i) {
    if (rng.next_float() < p) {
      px[i] = 0.0f;
      pm[i] = 0.0f;
    } else {
      px[i] *= keep_scale;
      pm[i] = keep_scale;
    }
  }
}

void dropout_backward(Matrix& grad, const Matrix& mask) {
  relu_backward(grad, mask); // elementwise multiply by stored multiplier
}

void softmax_rows(Matrix& x) {
  for (std::int64_t r = 0; r < x.rows(); ++r) {
    float* row = x.data() + r * x.cols();
    float mx = row[0];
    for (std::int64_t c = 1; c < x.cols(); ++c) mx = std::max(mx, row[c]);
    float sum = 0.0f;
    for (std::int64_t c = 0; c < x.cols(); ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c]; // lint: allow(float-accum) — serial per-row sum, fixed order
    }
    const float inv = 1.0f / sum;
    for (std::int64_t c = 0; c < x.cols(); ++c) row[c] *= inv;
  }
}

void gather_rows(const Matrix& src, std::span<const NodeId> idx, Matrix& out) {
  out.resize(static_cast<std::int64_t>(idx.size()), src.cols());
  const std::int64_t d = src.cols();
  const auto n = static_cast<std::int64_t>(idx.size());
  common::for_blocks(n, kBlockM, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const NodeId r = idx[static_cast<std::size_t>(i)];
      BNSGCN_BOUNDS(r, src.rows());
      const float* s = src.data() + static_cast<std::int64_t>(r) * d;
      std::copy(s, s + d, out.data() + i * d);
    }
  });
}

void scatter_add_rows(const Matrix& src, std::span<const NodeId> idx,
                      Matrix& dst) {
  BNSGCN_CHECK(src.rows() == static_cast<std::int64_t>(idx.size()));
  BNSGCN_CHECK(src.cols() == dst.cols());
  const std::int64_t d = src.cols();
  if constexpr (kCheckedBuild) {
    for (std::size_t i = 0; i < idx.size(); ++i)
      BNSGCN_BOUNDS(idx[i], dst.rows());
  }
  // idx may repeat destination rows, so lanes split the feature axis: each
  // walks the whole index list (entry order — and with it each element's
  // accumulation order — unchanged) but owns a disjoint column range.
  common::for_blocks(d, kBlockCols, [&](std::int64_t c0, std::int64_t c1) {
    for (std::size_t i = 0; i < idx.size(); ++i) {
      const float* s = src.data() + static_cast<std::int64_t>(i) * d;
      float* t = dst.data() + static_cast<std::int64_t>(idx[i]) * d;
      for (std::int64_t c = c0; c < c1; ++c) t[c] += s[c];
    }
  });
}

void concat_cols(const Matrix& a, const Matrix& b, Matrix& out) {
  BNSGCN_CHECK(a.rows() == b.rows());
  out.resize(a.rows(), a.cols() + b.cols());
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    float* o = out.data() + r * out.cols();
    const float* pa = a.data() + r * a.cols();
    const float* pb = b.data() + r * b.cols();
    std::copy(pa, pa + a.cols(), o);
    std::copy(pb, pb + b.cols(), o + a.cols());
  }
}

void split_cols(const Matrix& out, Matrix& a, Matrix& b, std::int64_t a_cols) {
  BNSGCN_CHECK(a_cols >= 0 && a_cols <= out.cols());
  const std::int64_t b_cols = out.cols() - a_cols;
  a.resize(out.rows(), a_cols);
  b.resize(out.rows(), b_cols);
  for (std::int64_t r = 0; r < out.rows(); ++r) {
    const float* o = out.data() + r * out.cols();
    std::copy(o, o + a_cols, a.data() + r * a_cols);
    std::copy(o + a_cols, o + out.cols(), b.data() + r * b_cols);
  }
}

void glorot_init(Matrix& w, Rng& rng) {
  const auto fan = static_cast<float>(w.rows() + w.cols());
  const float stddev = std::sqrt(2.0f / fan);
  w.randomize_gaussian(rng, stddev);
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  BNSGCN_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  float mx = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::int64_t i = 0; i < a.size(); ++i)
    mx = std::max(mx, std::abs(pa[i] - pb[i]));
  return mx;
}

double frobenius_norm_sq(const Matrix& a) {
  double acc = 0.0;
  const float* pa = a.data();
  // lint: allow(float-accum) — serial double-precision reduction, fixed order.
  for (std::int64_t i = 0; i < a.size(); ++i)
    acc += static_cast<double>(pa[i]) * static_cast<double>(pa[i]);
  return acc;
}

} // namespace bnsgcn::ops
