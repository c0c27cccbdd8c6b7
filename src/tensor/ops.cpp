#include "tensor/ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <type_traits>
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

// beta * C over rows [r0, r1) of C (its columns only, not the stride gap).
void scale_rows(RowBlock c, std::int64_t r0, std::int64_t r1, float beta) {
  if (beta == 1.0f) return;
  for (std::int64_t r = r0; r < r1; ++r) {
    float* row = c.data + r * c.stride;
    if (beta == 0.0f) {
      std::fill(row, row + c.cols, 0.0f);
    } else {
      for (std::int64_t j = 0; j < c.cols; ++j) row[j] *= beta;
    }
  }
}

// The last, partial kCols panel of a row-major B (steps rows, n columns,
// row stride ldb), zero-padded to kCols columns; empty when n is a
// multiple of kCols.
std::vector<float> pack_tail(const float* pb, std::int64_t steps,
                             std::int64_t n, std::int64_t ldb) {
  const std::int64_t j0 = n - n % detail::kCols;
  std::vector<float> tail;
  if (j0 == n) return tail;
  tail.assign(static_cast<std::size_t>(steps * detail::kCols), 0.0f);
  for (std::int64_t t = 0; t < steps; ++t)
    std::copy(pb + t * ldb + j0, pb + t * ldb + n,
              tail.data() + t * detail::kCols);
  return tail;
}

} // namespace

const char* kernel_isa() { return dispatched_isa(); }

void gemm_nn(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta) {
  BNSGCN_CHECK(c.rows() == a.rows());
  gemm_nn_rows(a, b, c, 0, a.rows(), alpha, beta);
}

void gemm_nn_rows(ConstRowBlock a, ConstRowBlock b, RowBlock c,
                  std::int64_t r0, std::int64_t r1, float alpha, float beta) {
  detail::gemm_nn_rows_with(dispatched_panel, a, b, c, r0, r1, alpha, beta);
}

void gemm_tn(ConstRowBlock a, ConstRowBlock b, RowBlock c, float alpha,
             float beta) {
  detail::gemm_tn_with(dispatched_panel, a, b, c, alpha, beta);
}

void gemm_nt(ConstRowBlock a, ConstRowBlock b, RowBlock c, float alpha,
             float beta) {
  detail::gemm_nt_with(dispatched_panel, a, b, c, alpha, beta);
}

void detail::gemm_nn_rows_with(PanelFn panel, ConstRowBlock a,
                               ConstRowBlock b, RowBlock c, std::int64_t r0,
                               std::int64_t r1, float alpha, float beta) {
  const std::int64_t k = a.cols, n = b.cols;
  BNSGCN_CHECK(b.rows == k);
  BNSGCN_CHECK(c.cols == n);
  BNSGCN_CHECK(0 <= r0 && r0 <= r1 && r1 <= a.rows && r1 <= c.rows);
  // Row i of C: C[i,j] += (alpha*A[i,kk]) * B[kk,j], ascending kk, zero
  // multipliers skipped. That order is per row, so any [r0, r1) slicing
  // gives bit-identical rows to the full call, and the kBlockM row blocks
  // (anchored at r0) are thread-safe lanes owning disjoint rows of C.
  const std::vector<float> tail = pack_tail(b.data, k, n, b.stride);
  const Spec s{.a = a.data, .a_row = a.stride, .a_step = 1, .b = b.data,
               .ldb = b.stride, .b_tail = tail.data(), .ld_tail = kCols,
               .c = c.data, .ldc = c.stride, .n = n, .steps = k,
               .alpha = alpha, .dot = false};
  common::for_blocks(r1 - r0, kBlockM, [&](std::int64_t b0, std::int64_t b1) {
    scale_rows(c, r0 + b0, r0 + b1, beta);
    panel(s, r0 + b0, r0 + b1);
  });
}

void detail::gemm_tn_with(PanelFn panel, ConstRowBlock a, ConstRowBlock b,
                          RowBlock c, float alpha, float beta) {
  const std::int64_t m = a.rows, k = a.cols, n = b.cols;
  BNSGCN_CHECK(b.rows == m);
  BNSGCN_CHECK(c.rows == k && c.cols == n);
  // C[kk,j] += (alpha*A[i,kk]) * B[i,j]: row kk of C takes its multipliers
  // down column kk of A, ascending i, zero multipliers skipped. Lanes split
  // the kk axis (disjoint rows of C); the i order is per element, so the
  // result is bit-identical for any lane count.
  const std::vector<float> tail = pack_tail(b.data, m, n, b.stride);
  const Spec s{.a = a.data, .a_row = 1, .a_step = a.stride, .b = b.data,
               .ldb = b.stride, .b_tail = tail.data(), .ld_tail = kCols,
               .c = c.data, .ldc = c.stride, .n = n, .steps = m,
               .alpha = alpha, .dot = false};
  common::for_blocks(k, kBlockM, [&](std::int64_t kk0, std::int64_t kk1) {
    scale_rows(c, kk0, kk1, beta);
    panel(s, kk0, kk1);
  });
}

void detail::gemm_nt_with(PanelFn panel, ConstRowBlock a, ConstRowBlock b,
                          RowBlock c, float alpha, float beta) {
  const std::int64_t m = a.rows, n = a.cols, k = b.rows;
  BNSGCN_CHECK(b.cols == n);
  BNSGCN_CHECK(c.rows == m && c.cols == k);
  // C[i,j] += alpha * dot(A.row(i), B.row(j)), each dot from 0.0f in
  // ascending t with no skip. B (the small weight matrix) is transposed
  // once, zero-padded to whole kCols panels, so the dots of one C row run
  // as vectors along j. Rows of C are independent: the row split is
  // bit-stable.
  const std::int64_t ldt = (k + kCols - 1) / kCols * kCols;
  std::vector<float> bt(static_cast<std::size_t>(n * ldt), 0.0f);
  for (std::int64_t j = 0; j < k; ++j)
    for (std::int64_t t = 0; t < n; ++t)
      bt[t * ldt + j] = b.data[j * b.stride + t];
  const Spec s{.a = a.data, .a_row = a.stride, .a_step = 1, .b = bt.data(),
               .ldb = ldt, .b_tail = bt.data() + (k - k % kCols),
               .ld_tail = ldt, .c = c.data, .ldc = c.stride, .n = k,
               .steps = n, .alpha = alpha, .dot = true};
  common::for_blocks(m, kBlockM, [&](std::int64_t i0, std::int64_t i1) {
    scale_rows(c, i0, i1, beta);
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

namespace {

// Calls body(std::true_type{}) or body(std::false_type{}): turns a runtime
// switch into a template argument, so each epilogue variant is its own
// straight-line loop.
template <typename Body>
void with_flag(bool on, Body&& body) {
  if (on) {
    body(std::true_type{});
  } else {
    body(std::false_type{});
  }
}

// One epilogue variant. The dropout test is on integers: next_float() is
// u * 2^-24 for the top 24 bits u of next_u64(), exactly, so
// next_float() < p holds exactly when u < ceil(p * 2^24) = drop_below
// (p * 2^24 is exact in double). Both ReLU and dropout select by masking
// the value's bits with an all-ones or all-zeros word, so neither test
// can become a branch (on random signs and draws one mispredicts a third
// to a half of the time), and a zeroed element is the +0 the separate
// passes stored.
template <bool kBias, bool kRelu, bool kDrop, bool kRecord>
void epilogue_pass(Matrix& x, const float* pb, std::uint8_t* pf,
                   std::uint64_t drop_below, float keep_scale, Rng& rng) {
  Rng r = rng; // a local copy keeps the generator state in registers
  float* __restrict px = x.data();
  const std::int64_t rows = x.rows(), cols = x.cols();
  // The draws are one serial chain; everything else vectorizes. So each
  // span of a row first draws its keep words into `kept` (scalar), then
  // applies bias, ReLU and dropout over the span (vectors) while the span
  // is still in L1.
  constexpr std::int64_t kSpan = 256;
  alignas(64) std::uint32_t kept[kSpan];
  for (std::int64_t i = 0; i < rows; ++i) {
    // lint: allow(float-accum) — integer span stride, not a reduction
    for (std::int64_t c0 = 0; c0 < cols; c0 += kSpan) {
      const std::int64_t w = std::min(kSpan, cols - c0);
      if constexpr (kDrop) {
        for (std::int64_t c = 0; c < w; ++c)
          kept[c] = 0u - static_cast<std::uint32_t>((r.next_u64() >> 40) >=
                                                    drop_below);
      }
      float* __restrict xs = px + i * cols + c0;
      std::uint8_t* __restrict fs = kRecord ? pf + i * cols + c0 : nullptr;
      for (std::int64_t c = 0; c < w; ++c) {
        float v = xs[c];
        if constexpr (kBias) v = v + pb[c0 + c]; // lint: allow(float-accum) — one bias term per element
        std::uint32_t f = 0;
        if constexpr (kRelu) {
          // max(0, v) as a mask: v where v > 0, else the bits of +0.
          const std::uint32_t on = 0u - static_cast<std::uint32_t>(v > 0.0f);
          f = on & ActivationRecord::kReluOn;
          v = std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) & on);
        }
        if constexpr (kDrop) {
          f |= kept[c] & ActivationRecord::kKept;
          v = std::bit_cast<float>(
              std::bit_cast<std::uint32_t>(v * keep_scale) & kept[c]);
        }
        xs[c] = v;
        if constexpr (kRecord) fs[c] = static_cast<std::uint8_t>(f);
      }
    }
  }
  rng = r;
}

template <bool kDrop, bool kRelu>
void epilogue_backward_pass(Matrix& g, const std::uint8_t* pf,
                            float keep_scale) {
  const std::uint32_t scale_bits = std::bit_cast<std::uint32_t>(keep_scale);
  const std::uint32_t one_bits = std::bit_cast<std::uint32_t>(1.0f);
  float* __restrict pg = g.data();
  const std::int64_t n = g.size();
  for (std::int64_t t = 0; t < n; ++t) {
    const std::uint32_t f = pf[t];
    float v = pg[t];
    if constexpr (kDrop)
      v = v * std::bit_cast<float>(scale_bits & (0u - ((f >> 1) & 1u)));
    if constexpr (kRelu)
      v = v * std::bit_cast<float>(one_bits & (0u - (f & 1u)));
    pg[t] = v;
  }
}

} // namespace

void activation_forward(Matrix& x, const Matrix* bias, bool relu, float p,
                        Rng& rng, ActivationRecord* rec) {
  BNSGCN_CHECK(p >= 0.0f && p < 1.0f);
  if (bias != nullptr)
    BNSGCN_CHECK(bias->rows() == 1 && bias->cols() == x.cols());
  const bool drop = p > 0.0f;
  const float keep_scale = drop ? 1.0f / (1.0f - p) : 0.0f;
  const auto drop_below =
      static_cast<std::uint64_t>(std::ceil(static_cast<double>(p) * 0x1.0p24));
  const bool record = rec != nullptr && (relu || drop);
  if (rec != nullptr) {
    rec->relu = relu;
    rec->keep_scale = keep_scale;
    rec->flags.resize(record ? static_cast<std::size_t>(x.size()) : 0);
  }
  std::uint8_t* pf = record ? rec->flags.data() : nullptr;
  const float* pb = bias != nullptr ? bias->data() : nullptr;
  with_flag(pb != nullptr, [&](auto kBias) {
    with_flag(relu, [&](auto kRelu) {
      with_flag(drop, [&](auto kDrop) {
        with_flag(record, [&](auto kRecord) {
          epilogue_pass<decltype(kBias)::value, decltype(kRelu)::value,
                        decltype(kDrop)::value, decltype(kRecord)::value>(
              x, pb, pf, drop_below, keep_scale, rng);
        });
      });
    });
  });
}

void activation_backward(Matrix& g, const ActivationRecord& rec) {
  const bool drop = rec.keep_scale != 0.0f;
  if (!drop && !rec.relu) return;
  BNSGCN_CHECK(static_cast<std::int64_t>(rec.flags.size()) == g.size());
  const std::uint8_t* pf = rec.flags.data();
  if (drop && rec.relu) {
    epilogue_backward_pass<true, true>(g, pf, rec.keep_scale);
  } else if (drop) {
    epilogue_backward_pass<true, false>(g, pf, rec.keep_scale);
  } else {
    epilogue_backward_pass<false, true>(g, pf, rec.keep_scale);
  }
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
  BNSGCN_CHECK(grad.size() == mask.size());
  float* pg = grad.data();
  const float* pm = mask.data();
  const std::int64_t n = grad.size();
  for (std::int64_t i = 0; i < n; ++i) pg[i] *= pm[i];
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
