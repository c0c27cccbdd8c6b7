#include "nn/sage_layer.hpp"

#include "tensor/ops.hpp"

namespace bnsgcn::nn {

SageLayer::SageLayer(std::int64_t d_in, std::int64_t d_out,
                     const Options& opts, Rng& rng)
    : Layer(d_in, d_out), opts_(opts), w_(2 * d_in, d_out), b_(1, d_out),
      dw_(2 * d_in, d_out), db_(1, d_out), dropout_rng_(rng.next_u64()) {
  ops::glorot_init(w_, rng);
}

Matrix SageLayer::forward(const BipartiteCsr& adj, const Matrix& feats,
                          std::span<const float> inv_deg, bool training) {
  BNSGCN_CHECK(feats.cols() == d_in_);
  BNSGCN_CHECK(feats.rows() == adj.n_src);
  cached_training_ = training;

  Matrix z;
  mean_aggregate(adj, feats, inv_deg, z);

  // Self features are the first n_dst rows of feats by the local-id layout.
  Matrix self(adj.n_dst, d_in_);
  std::copy(feats.data(), feats.data() + adj.n_dst * d_in_, self.data());

  ops::concat_cols(z, self, u_cache_);

  Matrix out(adj.n_dst, d_out_);
  ops::gemm_nn(u_cache_, w_, out);
  ops::add_row_bias(out, b_);

  if (opts_.relu) {
    if (inference_) {
      ops::relu_forward(out);
    } else {
      ops::relu_forward(out, relu_mask_);
    }
  }
  if (training && opts_.dropout > 0.0f) {
    ops::dropout_forward(out, dropout_mask_, opts_.dropout, dropout_rng_);
  } else {
    dropout_mask_.resize(0, 0);
  }
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
  // z·W[:d_in] + self·W[d_in:] under the concat layout) — runs in the row
  // chunks, so RequestSet polls (and peer folds) can interleave.
  self_cache_ = inner_feats;
  z_partial_.resize(adj.n_dst, d_in_); // resize zero-fills
  w_half_.resize(d_in_, d_out_);
  std::copy(w_.data() + d_in_ * d_out_, w_.data() + 2 * d_in_ * d_out_,
            w_half_.data());
  out_partial_.resize(adj.n_dst, d_out_);
}

void SageLayer::forward_inner_chunk(const BipartiteCsr& adj, NodeId row0,
                                    NodeId row1) {
  phase_check_.on_forward_chunk(row0, row1);
  mean_aggregate_inner_rows(adj, self_cache_, row0, row1, z_partial_);
  // Row-range self transform, straight into the output rows: gemm_nn_rows
  // computes each row independently with the fixed k-loop order, so any
  // chunking is bit-identical to the fused GEMM — and no chunk stages
  // through heap copies.
  ops::gemm_nn_rows(self_cache_, w_half_, out_partial_, row0, row1);
  ops::add_row_bias_rows(out_partial_, b_, row0, row1);
}

void SageLayer::forward_halo_begin(const BipartiteCsr& adj,
                                   const SourceIncidence& inc) {
  phase_check_.on_halo_begin();
  BNSGCN_CHECK(inc.n_lo == adj.n_dst && inc.n_src == adj.n_src);
  inc_ = &inc;
  // Folds accumulate here, not in z_partial_: a fold may land before the
  // F1 chunk that computes its destination rows, and the separate buffer
  // is what keeps the per-row order (inner terms, then the halo sum)
  // independent of that timing.
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
  (void)adj;
  for (std::int64_t i = 0; i < z_partial_.size(); ++i)
    z_partial_.data()[i] += z_halo_.data()[i];
  mean_aggregate_finish(inv_deg, z_partial_);

  Matrix out = std::move(out_partial_);
  w_half_.resize(d_in_, d_out_);
  std::copy(w_.data(), w_.data() + d_in_ * d_out_, w_half_.data());
  ops::gemm_nn(z_partial_, w_half_, out, 1.0f, 1.0f);

  // Backward consumes the assembled concat exactly as the fused path does;
  // inference has no backward, so the cache (and the ReLU mask) are skipped
  // — the output values are untouched by either skip.
  if (!inference_) {
    ops::concat_cols(z_partial_, self_cache_, u_cache_);
  }
  if (opts_.relu) {
    if (inference_) {
      ops::relu_forward(out);
    } else {
      ops::relu_forward(out, relu_mask_);
    }
  }
  if (cached_training_ && opts_.dropout > 0.0f) {
    ops::dropout_forward(out, dropout_mask_, opts_.dropout, dropout_rng_);
  } else {
    dropout_mask_.resize(0, 0);
  }
  return out;
}

Matrix SageLayer::backward_halo(const BipartiteCsr& adj, const Matrix& dout,
                                std::span<const float> inv_deg) {
  phase_check_.on_backward_halo();
  BNSGCN_CHECK(dout.rows() == adj.n_dst && dout.cols() == d_out_);
  // Only what the wire needs happens before the exchange is posted: the
  // activation backward and the halo-source scatter. Parameter gradients
  // are deferred to backward_inner (the in-flight phase) — they feed
  // nothing until the epoch-end allreduce.
  g_cache_ = dout;
  activation_backward(g_cache_);
  Matrix du(adj.n_dst, 2 * d_in_);
  ops::gemm_nt(g_cache_, w_, du);
  ops::split_cols(du, dz_cache_, dself_cache_, d_in_);

  // The incidence of the forward's halo_begin: the epoch's adjacency.
  BNSGCN_CHECK(inc_ != nullptr && inc_->n_src == adj.n_src);
  Matrix dhalo(adj.n_src - adj.n_dst, d_in_);
  mean_aggregate_backward_halo(*inc_, dz_cache_, inv_deg, dhalo);
  return dhalo;
}

Matrix SageLayer::backward_inner(const BipartiteCsr&,
                                 std::span<const float> inv_deg) {
  phase_check_.on_backward_inner();
  Matrix dinner = dself_cache_; // the self half lands on inner rows 1:1
  mean_aggregate_backward_inner(*inc_, dz_cache_, inv_deg, dinner);
  return dinner;
}

void SageLayer::backward_params(const BipartiteCsr&) {
  phase_check_.on_backward_params();
  // Deferred B3: dW/db feed nothing before the epoch-end allreduce, so the
  // trainer runs this inside the *next* layer's exchange window. u_cache_
  // and g_cache_ stay untouched until the next forward.
  ops::gemm_tn(u_cache_, g_cache_, dw_, 1.0f, 1.0f);
  ops::col_sum(g_cache_, db_);
}

void SageLayer::release_training_state() {
  dw_.resize(0, 0);
  db_.resize(0, 0);
  u_cache_.resize(0, 0);
  relu_mask_.resize(0, 0);
  dropout_mask_.resize(0, 0);
  dz_cache_.resize(0, 0);
  dself_cache_.resize(0, 0);
  g_cache_.resize(0, 0);
}

void SageLayer::activation_backward(Matrix& g) const {
  if (cached_training_ && !dropout_mask_.empty()) {
    ops::dropout_backward(g, dropout_mask_);
  }
  if (opts_.relu) {
    ops::relu_backward(g, relu_mask_);
  }
}

void SageLayer::backward_params_only(const BipartiteCsr& adj,
                                     const Matrix& dout,
                                     std::span<const float>) {
  BNSGCN_CHECK(dout.rows() == adj.n_dst && dout.cols() == d_out_);
  Matrix g = dout;
  activation_backward(g);
  ops::gemm_tn(u_cache_, g, dw_, 1.0f, 1.0f);
  ops::col_sum(g, db_);
}

Matrix SageLayer::backward(const BipartiteCsr& adj, const Matrix& dout,
                           std::span<const float> inv_deg) {
  BNSGCN_CHECK(dout.rows() == adj.n_dst && dout.cols() == d_out_);
  Matrix g = dout; // own a mutable copy of the incoming gradient
  activation_backward(g);

  // Parameter gradients (accumulated: trainer zeroes between iterations).
  ops::gemm_tn(u_cache_, g, dw_, 1.0f, 1.0f);
  ops::col_sum(g, db_);

  // dU = g · Wᵀ, split into the aggregation half and the self half.
  Matrix du(adj.n_dst, 2 * d_in_);
  ops::gemm_nt(g, w_, du);
  Matrix dz;
  Matrix dself;
  ops::split_cols(du, dz, dself, d_in_);

  Matrix dfeats(adj.n_src, d_in_);
  // Self contribution: inner rows only.
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    float* t = dfeats.data() + static_cast<std::int64_t>(v) * d_in_;
    const float* s = dself.data() + static_cast<std::int64_t>(v) * d_in_;
    for (std::int64_t c = 0; c < d_in_; ++c) t[c] += s[c];
  }
  mean_aggregate_backward(adj, dz, inv_deg, dfeats);
  return dfeats;
}

} // namespace bnsgcn::nn
