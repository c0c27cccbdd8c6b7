#include "nn/layer.hpp"

#include "common/thread_pool.hpp"
#include "nn/aggregate_panel.hpp"

namespace bnsgcn::nn {

namespace {

// Row grain of the aggregation kernels: also the parallel_for block. Every
// output row — a destination in the gather, a source in the pull — is
// written by one lane and finishes inside its block, so neither the thread
// count nor this value changes bits (common/thread_pool.hpp).
constexpr std::int64_t kRowBlock = 64;

// Column grain of the halo fold, the one scatter left: slots of one slab
// can hit the same destination row, so lanes own disjoint column ranges
// and each replays the full slot/entry walk in the serial order.
constexpr std::int64_t kColBlock = 64;

// The shipped aggregation kernel: one source, one clone per ISA, picked at
// load time by the CPU. The clones produce identical bits
// (nn/aggregate_panel.hpp).
__attribute__((target_clones("avx512f", "avx2", "default"))) void
dispatched_agg(const detail::AggSpec& s, std::int64_t r0, std::int64_t r1) {
  detail::run(s, r0, r1);
}

// Pulls incidence rows [u0, u1) into out (row u lands on out row u - u0).
void pull(detail::AggPanelFn panel, const SourceIncidence& inc,
          const Matrix& dout, std::span<const float> inv_deg, NodeId u0,
          NodeId u1, Matrix& out) {
  BNSGCN_CHECK(dout.rows() == inc.n_dst);
  BNSGCN_CHECK(static_cast<NodeId>(inv_deg.size()) == inc.n_dst);
  BNSGCN_CHECK(out.rows() == u1 - u0 && out.cols() == dout.cols());
  BNSGCN_CHECK(inc.offsets.size() == static_cast<std::size_t>(inc.n_src) + 1);
  const detail::AggSpec s{
      .offsets = inc.offsets.data(), .idx = inc.dsts.data(),
      .scale = inc.scales.empty() ? nullptr : inc.scales.data(),
      .inv_deg = inv_deg.data(), .src = dout.data(), .out = out.data(),
      .out_row0 = u0, .d = dout.cols(), .pull = true};
  common::for_blocks(u1 - u0, kRowBlock, [&](std::int64_t b0,
                                             std::int64_t b1) {
    panel(s, u0 + b0, u0 + b1);
  });
}

} // namespace

void BipartiteCsr::validate() const {
  BNSGCN_CHECK(static_cast<NodeId>(offsets.size()) == n_dst + 1);
  BNSGCN_CHECK(offsets.front() == 0);
  BNSGCN_CHECK(offsets.back() == static_cast<EdgeId>(nbrs.size()));
  for (const NodeId u : nbrs) BNSGCN_CHECK(u >= 0 && u < n_src);
  for (std::size_t i = 1; i < offsets.size(); ++i)
    BNSGCN_CHECK(offsets[i - 1] <= offsets[i]);
  BNSGCN_CHECK(edge_scale.empty() || edge_scale.size() == nbrs.size());
}

void mean_aggregate(const BipartiteCsr& adj, const Matrix& src,
                    std::span<const float> inv_deg, Matrix& out) {
  detail::mean_aggregate_with(dispatched_agg, adj, src, inv_deg, out);
}

void mean_aggregate_backward(const BipartiteCsr& adj, const Matrix& dout,
                             std::span<const float> inv_deg, Matrix& dsrc) {
  detail::mean_aggregate_backward_with(dispatched_agg, adj, dout, inv_deg,
                                       dsrc);
}

void mean_aggregate_inner_rows(const BipartiteCsr& adj,
                               const Matrix& inner_src, NodeId row0,
                               NodeId row1, Matrix& out) {
  detail::mean_aggregate_inner_rows_with(dispatched_agg, adj, inner_src,
                                         row0, row1, out);
}

void mean_aggregate_backward_halo(const SourceIncidence& inc,
                                  const Matrix& dout,
                                  std::span<const float> inv_deg,
                                  Matrix& dhalo) {
  detail::mean_aggregate_backward_halo_with(dispatched_agg, inc, dout,
                                            inv_deg, dhalo);
}

void mean_aggregate_backward_inner(const SourceIncidence& inc,
                                   const Matrix& dout,
                                   std::span<const float> inv_deg,
                                   Matrix& dinner) {
  detail::mean_aggregate_backward_inner_with(dispatched_agg, inc, dout,
                                             inv_deg, dinner);
}

void detail::mean_aggregate_with(AggPanelFn panel, const BipartiteCsr& adj,
                                 const Matrix& src,
                                 std::span<const float> inv_deg, Matrix& out) {
  BNSGCN_CHECK(src.rows() == adj.n_src);
  BNSGCN_CHECK(static_cast<NodeId>(inv_deg.size()) == adj.n_dst);
  out.resize(adj.n_dst, src.cols());
  const AggSpec s{
      .offsets = adj.offsets.data(), .idx = adj.nbrs.data(),
      .scale = adj.edge_scale.empty() ? nullptr : adj.edge_scale.data(),
      .inv_deg = inv_deg.data(), .idx_end = adj.n_src, .src = src.data(),
      .out = out.data(), .out_row0 = 0, .d = src.cols(), .pull = false};
  common::for_blocks(adj.n_dst, kRowBlock, [&](std::int64_t v0,
                                               std::int64_t v1) {
    panel(s, v0, v1);
  });
}

void detail::mean_aggregate_inner_rows_with(AggPanelFn panel,
                                            const BipartiteCsr& adj,
                                            const Matrix& inner_src,
                                            NodeId row0, NodeId row1,
                                            Matrix& out) {
  const NodeId n_lo = static_cast<NodeId>(inner_src.rows());
  BNSGCN_CHECK(n_lo <= adj.n_src);
  BNSGCN_CHECK(row0 >= 0 && row0 <= row1 && row1 <= adj.n_dst);
  BNSGCN_CHECK(out.rows() == adj.n_dst && out.cols() == inner_src.cols());
  // Halo sources (u >= n_lo) are skipped: the folds add them.
  const AggSpec s{
      .offsets = adj.offsets.data(), .idx = adj.nbrs.data(),
      .scale = adj.edge_scale.empty() ? nullptr : adj.edge_scale.data(),
      .inv_deg = nullptr, .idx_end = n_lo, .src = inner_src.data(),
      .out = out.data(), .out_row0 = 0, .d = inner_src.cols(), .pull = false};
  // Row blocks anchored at row0, so chunked-stream callers (chunks can be a
  // single row) see the same split they would inside one big call.
  common::for_blocks(row1 - row0, kRowBlock, [&](std::int64_t b0,
                                                 std::int64_t b1) {
    panel(s, row0 + b0, row0 + b1);
  });
}

void detail::mean_aggregate_backward_with(AggPanelFn panel,
                                          const BipartiteCsr& adj,
                                          const Matrix& dout,
                                          std::span<const float> inv_deg,
                                          Matrix& dsrc) {
  BNSGCN_CHECK(dout.rows() == adj.n_dst);
  BNSGCN_CHECK(dsrc.rows() == adj.n_src && dsrc.cols() == dout.cols());
  SourceIncidence inc;
  inc.build(adj, adj.n_src);
  pull(panel, inc, dout, inv_deg, 0, adj.n_src, dsrc);
}

void detail::mean_aggregate_backward_inner_with(
    AggPanelFn panel, const SourceIncidence& inc, const Matrix& dout,
    std::span<const float> inv_deg, Matrix& dinner) {
  pull(panel, inc, dout, inv_deg, 0, inc.n_lo, dinner);
}

void detail::mean_aggregate_backward_halo_with(
    AggPanelFn panel, const SourceIncidence& inc, const Matrix& dout,
    std::span<const float> inv_deg, Matrix& dhalo) {
  pull(panel, inc, dout, inv_deg, inc.n_lo, inc.n_src, dhalo);
}

void SourceIncidence::build(const BipartiteCsr& adj, NodeId lo) {
  BNSGCN_CHECK(lo >= 0 && lo <= adj.n_src);
  n_lo = lo;
  n_src = adj.n_src;
  n_dst = adj.n_dst;
  // Counting pass, then a fill pass in (destination, edge) order — the
  // standard CSR transpose, which is what makes each row's entry order the
  // destination-major scatter order.
  offsets.assign(static_cast<std::size_t>(n_src) + 1, 0);
  for (const NodeId u : adj.nbrs) ++offsets[static_cast<std::size_t>(u) + 1];
  for (std::size_t u = 1; u < offsets.size(); ++u) offsets[u] += offsets[u - 1];
  const bool weighted = !adj.edge_scale.empty();
  dsts.assign(adj.nbrs.size(), 0);
  scales.assign(weighted ? adj.nbrs.size() : 0, 0.0f);
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  // The fill's stores land at random rows; prefetching the slot an arc
  // kFillAhead further on will write overlaps their cache misses (about
  // 2x on the fill). A stale guess (the same source in between) only costs
  // a useless prefetch.
  constexpr std::size_t kFillAhead = 16;
  const std::size_t n_arcs = adj.nbrs.size();
  for (NodeId v = 0; v < adj.n_dst; ++v) {
    const auto begin = static_cast<std::size_t>(
        adj.offsets[static_cast<std::size_t>(v)]);
    const auto end = static_cast<std::size_t>(
        adj.offsets[static_cast<std::size_t>(v) + 1]);
    for (std::size_t e = begin; e < end; ++e) {
      if (e + kFillAhead < n_arcs) {
        const auto ahead = static_cast<std::size_t>(
            cursor[static_cast<std::size_t>(adj.nbrs[e + kFillAhead])]);
        __builtin_prefetch(dsts.data() + ahead, 1);
      }
      const auto at = static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(adj.nbrs[e])]++);
      dsts[at] = v;
      if (weighted) scales[at] = adj.edge_scale[e];
    }
  }
}

void mean_aggregate_halo_fold(const SourceIncidence& inc,
                              std::span<const NodeId> slots,
                              std::span<const float> rows, std::int64_t d,
                              Matrix& out) {
  BNSGCN_CHECK(rows.size() == slots.size() * static_cast<std::size_t>(d));
  BNSGCN_CHECK(out.cols() == d);
  for (const NodeId s : slots) BNSGCN_CHECK(s >= 0 && s < inc.n_halo());
  const bool weighted = !inc.scales.empty();
  // Different slots can hit the same destination row, so this is a scatter:
  // lanes split the feature axis, each replaying the slot/entry walk.
  common::for_blocks(d, kColBlock, [&](std::int64_t c0, std::int64_t c1) {
    for (std::size_t t = 0; t < slots.size(); ++t) {
      const auto u = static_cast<std::size_t>(inc.n_lo + slots[t]);
      const float* row = rows.data() + t * static_cast<std::size_t>(d);
      const auto begin = static_cast<std::size_t>(inc.offsets[u]);
      const auto end = static_cast<std::size_t>(inc.offsets[u + 1]);
      for (std::size_t e = begin; e < end; ++e) {
        float* o = out.data() + static_cast<std::int64_t>(inc.dsts[e]) * d;
        const float es = weighted ? inc.scales[e] : 1.0f;
        for (std::int64_t c = c0; c < c1; ++c) o[c] += es * row[c]; // lint: allow(float-accum) — per-element (peer, slot, entry) order; lanes own disjoint columns
      }
    }
  });
}

void mean_aggregate_finish(std::span<const float> inv_deg, Matrix& out) {
  BNSGCN_CHECK(static_cast<NodeId>(inv_deg.size()) == out.rows());
  const std::int64_t d = out.cols();
  common::for_blocks(out.rows(), kRowBlock, [&](std::int64_t v0,
                                                std::int64_t v1) {
    for (NodeId v = static_cast<NodeId>(v0); v < static_cast<NodeId>(v1);
         ++v) {
      float* o = out.data() + static_cast<std::int64_t>(v) * d;
      const float w = inv_deg[static_cast<std::size_t>(v)];
      if (w == 0.0f) { // mean_aggregate leaves such rows zero; match it
        for (std::int64_t c = 0; c < d; ++c) o[c] = 0.0f;
        continue;
      }
      for (std::int64_t c = 0; c < d; ++c) o[c] *= w;
    }
  });
}

void Layer::backward_params_only(const BipartiteCsr& adj, const Matrix& dout,
                                 std::span<const float> inv_deg) {
  (void)backward(adj, dout, inv_deg);
}

void Layer::backward_params(const BipartiteCsr&) {
  // Default: nothing deferred — a phased layer that accumulates its
  // parameter gradients inside backward_inner stays correct.
}

void Layer::zero_grads() {
  for (Matrix* g : grads()) g->zero();
}

std::int64_t Layer::num_params() {
  std::int64_t total = 0;
  for (const Matrix* p : params()) total += p->size();
  return total;
}

std::vector<float> flatten_grads(
    const std::vector<std::unique_ptr<Layer>>& layers) {
  std::int64_t total = 0;
  for (const auto& l : layers) total += l->num_params();
  std::vector<float> flat;
  flat.reserve(static_cast<std::size_t>(total));
  for (const auto& l : layers) {
    for (const Matrix* g : l->grads())
      flat.insert(flat.end(), g->data(), g->data() + g->size());
  }
  return flat;
}

void apply_flat_grads(std::span<const float> flat,
                      const std::vector<std::unique_ptr<Layer>>& layers) {
  std::size_t cursor = 0;
  for (const auto& l : layers) {
    for (Matrix* g : l->grads()) {
      BNSGCN_CHECK(cursor + static_cast<std::size_t>(g->size()) <= flat.size());
      std::copy(flat.begin() + static_cast<std::ptrdiff_t>(cursor),
                flat.begin() + static_cast<std::ptrdiff_t>(cursor) +
                    static_cast<std::ptrdiff_t>(g->size()),
                g->data());
      cursor += static_cast<std::size_t>(g->size());
    }
  }
  BNSGCN_CHECK(cursor == flat.size());
}

} // namespace bnsgcn::nn
