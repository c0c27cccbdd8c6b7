#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "tensor/matrix.hpp"

namespace bnsgcn::ops {

// ---------------------------------------------------------------------------
// GEMM family. All variants accumulate into a pre-shaped output:
//   C = alpha * op(A) * op(B) + beta * C
// Only the three shapes needed by the layers are provided. All three run one
// register-blocked SIMD panel (tensor/gemm_panel.hpp), compiled per ISA and
// picked at load time; every ISA gives the same bits as the scalar loops
// (docs/ARCHITECTURE.md §6).
// ---------------------------------------------------------------------------

/// The ISA whose GEMM panel clone this process dispatched to: "avx512f",
/// "avx2" or "default" (baseline x86-64). Informational only — results do
/// not depend on it.
[[nodiscard]] const char* kernel_isa();

/// C[m,n] = alpha * A[m,k] * B[k,n] + beta * C
void gemm_nn(const Matrix& a, const Matrix& b, Matrix& c, float alpha = 1.0f,
             float beta = 0.0f);

/// Row-range gemm_nn: C[r,:] = alpha * A[r,:] * B + beta * C[r,:] for rows
/// r in [r0, r1) only; every other row of C is untouched. A and C may have
/// more rows than r1 (the chunked-stream forward runs over the inner-row
/// prefix of a [dst; halo]-shaped pair) — only the addressed range is read
/// or written, so chunked callers need no staging copies. Per-row results
/// are bit-identical to gemm_nn over the full shape: the k-accumulation
/// order is independent of the row blocking.
///
/// This and the two GEMMs below take row-block views (tensor/matrix.hpp):
/// a Matrix passes as itself, and row_block() addresses a row range of one
/// in place. Splitting the contraction into row blocks of B (gemm_nn) or
/// the output into row blocks (gemm_tn, gemm_nt) gives the same bits as
/// the stacked call, because every element keeps its term order.
void gemm_nn_rows(ConstRowBlock a, ConstRowBlock b, RowBlock c,
                  std::int64_t r0, std::int64_t r1, float alpha = 1.0f,
                  float beta = 0.0f);

/// C[k,n] = alpha * A[m,k]^T * B[m,n] + beta * C   (weight gradients)
void gemm_tn(ConstRowBlock a, ConstRowBlock b, RowBlock c, float alpha = 1.0f,
             float beta = 0.0f);

/// C[m,k] = alpha * A[m,n] * B[k,n]^T + beta * C   (input gradients)
void gemm_nt(ConstRowBlock a, ConstRowBlock b, RowBlock c, float alpha = 1.0f,
             float beta = 0.0f);

// ---------------------------------------------------------------------------
// Elementwise / rowwise.
// ---------------------------------------------------------------------------

/// y += x (shapes must match).
void add_inplace(Matrix& y, const Matrix& x);

/// y = a*x + y (axpy over the flat buffer).
void axpy(float a, const Matrix& x, Matrix& y);

void scale_inplace(Matrix& y, float s);

/// x[r,:] += bias[0,:] for rows r in [r0, r1) only (the chunked companion
/// of gemm_nn_rows; a whole output gets its bias from activation_forward).
void add_row_bias_rows(Matrix& x, const Matrix& bias, std::int64_t r0,
                       std::int64_t r1);

/// bias_grad[0,:] += column sums of grad.
void col_sum(const Matrix& grad, Matrix& out);

/// What one activation_forward call applied, with one flag byte per
/// element for activation_backward: kReluOn where the pre-activation was
/// > 0, kKept where dropout kept the element.
struct ActivationRecord {
  static constexpr std::uint8_t kReluOn = 1;
  static constexpr std::uint8_t kKept = 2;
  bool relu = false;
  float keep_scale = 0.0f; // dropout's 1/(1-p); 0 when dropout did not run
  std::vector<std::uint8_t> flags; // empty when neither stage ran
};

/// The fused activation epilogue of a layer's output, one branch-free pass
/// over x in row-major order:
///   v = x[r,c] + bias[0,c]     (bias null: the caller already added it)
///   v = relu ? max(0, v) : v   (-0, negatives and NaN give +0)
///   v = dropped ? +0 : v * (1/(1-p))       (only when p > 0)
/// An element is dropped when rng.next_float() < p: one draw per element,
/// none at all when p == 0. `rec`, when non-null, receives what ran, for
/// activation_backward; forward-only callers pass null. Bit-identical to a
/// bias add, a ReLU pass and an inverted-dropout pass run one after another
/// (docs/ARCHITECTURE.md §6, "Activation epilogue").
void activation_forward(Matrix& x, const Matrix* bias, bool relu, float p,
                        Rng& rng, ActivationRecord* rec);

/// Backward of activation_forward, in place, one pass:
///   g = (g * (kept ? 1/(1-p) : 0)) * (relu_on ? 1 : 0)
/// each factor applied only where its stage ran. These are the multiplies
/// of separate dropout and ReLU backward passes, so ±0, inf and NaN in g
/// propagate exactly as through those.
void activation_backward(Matrix& g, const ActivationRecord& rec);

/// LeakyReLU with slope (GAT attention) — returns activated copy semantics
/// via in-place transform; mask stores the effective slope per element.
void leaky_relu_forward(Matrix& x, Matrix& mask, float slope);
void leaky_relu_backward(Matrix& grad, const Matrix& mask);

/// Numerically stable row-wise softmax (in place).
void softmax_rows(Matrix& x);

// ---------------------------------------------------------------------------
// Gather / scatter over row indices — the halo exchange primitives.
// ---------------------------------------------------------------------------

/// out[i,:] = src[idx[i],:]. out is resized to (idx.size(), src.cols()).
void gather_rows(const Matrix& src, std::span<const NodeId> idx, Matrix& out);

/// dst[idx[i],:] += src[i,:]
void scatter_add_rows(const Matrix& src, std::span<const NodeId> idx,
                      Matrix& dst);

// ---------------------------------------------------------------------------
// Init / comparison helpers.
// ---------------------------------------------------------------------------

/// Glorot/Xavier uniform-equivalent Gaussian init for a [fan_in, fan_out]
/// weight: stddev = sqrt(2 / (fan_in + fan_out)).
void glorot_init(Matrix& w, Rng& rng);

/// Max |a-b| over all elements; shapes must match.
[[nodiscard]] float max_abs_diff(const Matrix& a, const Matrix& b);

/// Frobenius norm squared.
[[nodiscard]] double frobenius_norm_sq(const Matrix& a);

} // namespace bnsgcn::ops
