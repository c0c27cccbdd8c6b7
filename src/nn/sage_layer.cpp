#include "nn/sage_layer.hpp"

namespace bnsgcn::nn {

SageLayer::SageLayer(std::int64_t d_in, std::int64_t d_out,
                     const Options& opts, Rng& rng)
    : Layer(d_in, d_out), opts_(opts), w_(2 * d_in, d_out), b_(1, d_out),
      dw_(2 * d_in, d_out), db_(1, d_out), dropout_rng_(rng.next_u64()) {
  ops::glorot_init(w_, rng);
}

void SageLayer::activate(Matrix& out, const Matrix* bias, bool training) {
  ops::activation_forward(out, bias, opts_.relu,
                          training ? opts_.dropout : 0.0f, dropout_rng_,
                          inference_ ? nullptr : &act_);
}

Matrix SageLayer::forward(const BipartiteCsr& adj, const Matrix& feats,
                          std::span<const float> inv_deg, bool training) {
  BNSGCN_CHECK(feats.cols() == d_in_);
  BNSGCN_CHECK(feats.rows() == adj.n_src);
  cached_training_ = training;

  mean_aggregate(adj, feats, inv_deg, z_);

  // u·W over u = [z | self]: the z terms, then the self terms — self being
  // the first n_dst rows of feats by the local-id layout — into the
  // constructor's zeros, which is the stacked beta = 0 GEMM term for term.
  Matrix out(adj.n_dst, d_out_);
  ops::gemm_nn_rows(z_, w_agg(), out, 0, adj.n_dst, 1.0f, 1.0f);
  ops::gemm_nn_rows(feats, w_self(), out, 0, adj.n_dst, 1.0f, 1.0f);
  // The backward's dW_self input; serving has no backward.
  if (!inference_) {
    self_cache_.resize(adj.n_dst, d_in_);
    std::copy(feats.data(), feats.data() + adj.n_dst * d_in_,
              self_cache_.data());
  }
  activate(out, &b_, training);
  return out;
}

void SageLayer::forward_inner_begin(const BipartiteCsr& adj,
                                    const Matrix& inner_feats, bool training) {
  phase_check_.on_forward_begin(adj.n_dst);
  BNSGCN_CHECK(inner_feats.cols() == d_in_);
  BNSGCN_CHECK(inner_feats.rows() == adj.n_dst);
  cached_training_ = training;
  // Setup only: the halo-independent work — inner-source partial
  // aggregation AND the self half of the transform (u·W splits as
  // z·W_agg + self·W_self) — runs in the row chunks, so RequestSet polls
  // (and peer folds) can interleave.
  self_cache_ = inner_feats;
  z_.resize(adj.n_dst, d_in_);            // resize zero-fills
  out_partial_.resize(adj.n_dst, d_out_); // so do these: the chunks'
                                          // beta = 0 start
}

void SageLayer::forward_inner_chunk(const BipartiteCsr& adj, NodeId row0,
                                    NodeId row1) {
  phase_check_.on_forward_chunk(row0, row1);
  mean_aggregate_inner_rows(adj, self_cache_, row0, row1, z_);
  // Row-range self transform, straight into the output rows: gemm_nn_rows
  // computes each row independently with the fixed k-loop order, so any
  // chunking is bit-identical to the fused GEMM — and no chunk stages
  // through heap copies. beta = 1 accumulates onto the zeros that
  // forward_inner_begin's resize wrote: the beta = 0 arithmetic without a
  // second fill.
  ops::gemm_nn_rows(self_cache_, w_self(), out_partial_, row0, row1, 1.0f,
                    1.0f);
  ops::add_row_bias_rows(out_partial_, b_, row0, row1);
}

void SageLayer::forward_halo_begin(const BipartiteCsr& adj,
                                   const SourceIncidence& inc) {
  phase_check_.on_halo_begin();
  BNSGCN_CHECK(inc.n_lo == adj.n_dst && inc.n_src == adj.n_src);
  inc_ = &inc;
  // Folds accumulate here, not in z_: a fold may land before the F1 chunk
  // that computes its destination rows, and the separate buffer is what
  // keeps the per-row order (inner terms, then the halo sum) independent
  // of that timing.
  z_halo_.resize(adj.n_dst, d_in_); // resize zero-fills
}

void SageLayer::forward_halo_fold(const BipartiteCsr& adj,
                                  std::span<const NodeId> slots,
                                  std::span<const float> rows) {
  phase_check_.on_halo_fold();
  (void)adj; // geometry is frozen in the incidence received by _begin
  BNSGCN_CHECK(inc_ != nullptr);
  mean_aggregate_halo_fold(*inc_, slots, rows, d_in_, z_halo_);
}

Matrix SageLayer::forward_halo_finish(const BipartiteCsr& adj,
                                      std::span<const float> inv_deg) {
  phase_check_.on_halo_finish();
  for (std::int64_t i = 0; i < z_.size(); ++i)
    z_.data()[i] += z_halo_.data()[i];
  mean_aggregate_finish(inv_deg, z_);

  Matrix out = std::move(out_partial_);
  ops::gemm_nn_rows(z_, w_agg(), out, 0, adj.n_dst, 1.0f, 1.0f);
  // The bias went in with the self half (phase F1).
  activate(out, nullptr, cached_training_);
  return out;
}

Matrix SageLayer::backward_halo(const BipartiteCsr& adj, const Matrix& dout,
                                std::span<const float> inv_deg) {
  phase_check_.on_backward_halo();
  BNSGCN_CHECK(dout.rows() == adj.n_dst && dout.cols() == d_out_);
  // Only what the wire needs happens before the exchange is posted: the
  // activation backward, the aggregation half of dU and the halo-source
  // pull. The self half of dU waits for backward_inner, and the parameter
  // gradients for backward_params — neither feeds the wire.
  g_cache_ = dout;
  ops::activation_backward(g_cache_, act_);
  dz_cache_.resize(adj.n_dst, d_in_); // zero-filled: the beta = 0 start
  ops::gemm_nt(g_cache_, w_agg(), dz_cache_, 1.0f, 1.0f);

  // The incidence of the forward's halo_begin: the epoch's adjacency.
  BNSGCN_CHECK(inc_ != nullptr && inc_->n_src == adj.n_src);
  Matrix dhalo(adj.n_src - adj.n_dst, d_in_);
  mean_aggregate_backward_halo(*inc_, dz_cache_, inv_deg, dhalo);
  return dhalo;
}

Matrix SageLayer::backward_inner(const BipartiteCsr& adj,
                                 std::span<const float> inv_deg) {
  phase_check_.on_backward_inner();
  // The self half of dU lands on inner rows 1:1, then the inner sources'
  // share of the aggregation gradient is pulled on top.
  Matrix dinner(adj.n_dst, d_in_);
  ops::gemm_nt(g_cache_, w_self(), dinner, 1.0f, 1.0f);
  mean_aggregate_backward_inner(*inc_, dz_cache_, inv_deg, dinner);
  return dinner;
}

void SageLayer::backward_params(const BipartiteCsr&) {
  phase_check_.on_backward_params();
  // Deferred B3: dW/db feed nothing before the epoch-end allreduce, so the
  // trainer runs this inside the *next* layer's exchange window. z_,
  // self_cache_ and g_cache_ stay untouched until the next forward.
  accumulate_param_grads(g_cache_);
}

void SageLayer::release_training_state() {
  dw_.resize(0, 0);
  db_.resize(0, 0);
  act_ = {};
  dz_cache_.resize(0, 0);
  g_cache_.resize(0, 0);
}

void SageLayer::accumulate_param_grads(const Matrix& g) {
  // Accumulated: the trainer zeroes between iterations.
  ops::gemm_tn(z_, g, row_block(dw_, 0, d_in_), 1.0f, 1.0f);
  ops::gemm_tn(self_cache_, g, row_block(dw_, d_in_, 2 * d_in_), 1.0f, 1.0f);
  ops::col_sum(g, db_);
}

void SageLayer::backward_params_only(const BipartiteCsr& adj,
                                     const Matrix& dout,
                                     std::span<const float>) {
  BNSGCN_CHECK(dout.rows() == adj.n_dst && dout.cols() == d_out_);
  Matrix g = dout;
  ops::activation_backward(g, act_);
  accumulate_param_grads(g);
}

Matrix SageLayer::backward(const BipartiteCsr& adj, const Matrix& dout,
                           std::span<const float> inv_deg) {
  BNSGCN_CHECK(dout.rows() == adj.n_dst && dout.cols() == d_out_);
  Matrix g = dout; // own a mutable copy of the incoming gradient
  ops::activation_backward(g, act_);
  accumulate_param_grads(g);

  // dU = g · Wᵀ, one row half of W at a time: the aggregation half into
  // dz, the self half straight onto the inner rows of dfeats (both onto
  // zeros, the beta = 0 start).
  Matrix dz(adj.n_dst, d_in_);
  ops::gemm_nt(g, w_agg(), dz, 1.0f, 1.0f);
  Matrix dfeats(adj.n_src, d_in_);
  ops::gemm_nt(g, w_self(), row_block(dfeats, 0, adj.n_dst), 1.0f, 1.0f);
  mean_aggregate_backward(adj, dz, inv_deg, dfeats);
  return dfeats;
}

} // namespace bnsgcn::nn
