#pragma once

#include "nn/layer.hpp"
#include "tensor/ops.hpp"

namespace bnsgcn::nn {

/// GraphSAGE layer with a mean aggregator (the paper's Section 2 instance):
///   z_v = mean_{u in N(v)} h_u                      (Eq. 1)
///   h'_v = act(W · concat(z_v, h_v) + b)            (Eq. 2)
/// Optional ReLU and inverted dropout on the output (hidden layers); the
/// final layer emits raw logits. The concatenation is never built: z and
/// h_self stay separate blocks, and every GEMM runs against one row half
/// of W (or of dW) in place. Each element keeps the term order of the
/// stacked GEMM, so the bits are those of the concatenated layout
/// (docs/ARCHITECTURE.md §6).
class SageLayer final : public Layer {
 public:
  struct Options {
    bool relu = true;
    float dropout = 0.0f;
  };

  SageLayer(std::int64_t d_in, std::int64_t d_out, const Options& opts,
            Rng& rng);

  Matrix forward(const BipartiteCsr& adj, const Matrix& feats,
                 std::span<const float> inv_deg, bool training) override;
  Matrix backward(const BipartiteCsr& adj, const Matrix& dout,
                  std::span<const float> inv_deg) override;
  /// Only dW/db: the activation backward, then gemm_tn + col_sum — the
  /// fused backward's parameter half, without its gemm_nt and scatter.
  void backward_params_only(const BipartiteCsr& adj, const Matrix& dout,
                            std::span<const float> inv_deg) override;

  // Split-phase protocol (see Layer): the mean aggregator decomposes into
  // an inner-source partial sum (chunked by destination row — each row's
  // work is independent, so any chunking is bit-exact) plus per-peer halo
  // folds (streamed through the slot→dst reverse incidence as each slab
  // lands, into a separate accumulator combined at finish so folds may
  // interleave mid-F1), and the backward scatter into disjoint inner/halo
  // target halves, so SAGE supports full streaming overlap. Parameter
  // gradients live in backward_params (the cross-layer-deferred B3 phase).
  void forward_inner_begin(const BipartiteCsr& adj, const Matrix& inner_feats,
                           bool training) override;
  void forward_inner_chunk(const BipartiteCsr& adj, NodeId row0,
                           NodeId row1) override;
  void forward_halo_begin(const BipartiteCsr& adj,
                          const SourceIncidence& inc) override;
  void forward_halo_fold(const BipartiteCsr& adj,
                         std::span<const NodeId> slots,
                         std::span<const float> rows) override;
  [[nodiscard]] Matrix forward_halo_finish(
      const BipartiteCsr& adj, std::span<const float> inv_deg) override;
  [[nodiscard]] Matrix backward_halo(const BipartiteCsr& adj,
                                     const Matrix& dout,
                                     std::span<const float> inv_deg) override;
  [[nodiscard]] Matrix backward_inner(
      const BipartiteCsr& adj, std::span<const float> inv_deg) override;
  void backward_params(const BipartiteCsr& adj) override;

  std::vector<Matrix*> params() override { return {&w_, &b_}; }
  std::vector<Matrix*> grads() override { return {&dw_, &db_}; }

  /// RNG used for dropout masks; reseeded per rank by the trainer.
  void set_dropout_rng(Rng rng) { dropout_rng_ = rng; }

 protected:
  void release_training_state() override;

 private:
  /// The two d_in-row halves of w_ under the [z | self] input layout:
  /// u·W = z·W_agg + self·W_self, read in place by the GEMMs.
  [[nodiscard]] ConstRowBlock w_agg() const { return row_block(w_, 0, d_in_); }
  [[nodiscard]] ConstRowBlock w_self() const {
    return row_block(w_, d_in_, 2 * d_in_);
  }
  /// dW += [z | self]ᵀ·g, as one gemm_tn per row half of dw_, and db +=
  /// the column sums of g: the parameter half of every backward.
  void accumulate_param_grads(const Matrix& g);
  /// The ReLU/dropout epilogue of a forward output, recorded in act_
  /// unless serving (which has no backward).
  void activate(Matrix& out, const Matrix* bias, bool training);

  Options opts_;
  Matrix w_;  // (2*d_in, d_out): rows [0, d_in) act on z, the rest on self
  Matrix b_;  // (1, d_out)
  Matrix dw_; // (2*d_in, d_out), the same row halves as w_
  Matrix db_;
  Rng dropout_rng_;

  // Forward state; what the backward reads survives until the next forward.
  Matrix z_;             // (n_dst, d_in): the phased F1's inner sums, then
                         // the normalized aggregate (dW_agg's input)
  Matrix self_cache_;    // (n_dst, d_in): the inner feature block (F1's
                         // self-transform input, dW_self's input)
  ops::ActivationRecord act_; // what the epilogue applied, 1 byte/element
  bool cached_training_ = false;

  // Split-phase scratch (valid between the calls of a phase group).
  Matrix z_halo_;        // forward: folded halo sums — separate from z_ so
                         // folds may land mid-F1 without perturbing the
                         // per-row order; combined at finish
  const SourceIncidence* inc_ = nullptr; // trainer-owned, set per epoch by
                                         // forward_halo_begin; the folds
                                         // and the phased backward read it
  Matrix out_partial_;   // forward: self·W_self + b, built in phase F1
  Matrix dz_cache_;      // backward: aggregation-half gradient, g·W_aggᵀ
  Matrix g_cache_;       // backward: pre-activation gradient (for dW/db
                         // and B2's self half g·W_selfᵀ)
};

} // namespace bnsgcn::nn
