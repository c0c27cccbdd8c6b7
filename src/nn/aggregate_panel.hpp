#pragma once

// Register-blocked row panel behind the mean-aggregation kernels
// (nn/layer.hpp). Internal to nn/: layer.cpp compiles run() once per ISA
// through target_clones, and tests/test_layers.cpp instantiates it under
// each of those targets explicitly, so every clone is checked against the
// scalar oracle on one host.
//
// Every aggregation here is row-shaped: output row r takes, in ascending
// entry order k over [offsets[r], offsets[r+1]), the term
//   o[r,:] = o[r,:] + m_k * src[idx[k],:]
// with no zero skip on m_k. The two kinds differ only in where the rows,
// entries and multipliers come from:
//   gather (forward):  rows are destinations, entries the adjacency arcs,
//       m_k = edge_scale[k] (1 unweighted); arcs whose source is at or past
//       idx_end are skipped (the inner-only pass); with inv_deg set, rows
//       whose inv_deg is 0 are left untouched and the rest end *= inv_deg.
//   pull (backward):   rows are sources, entries the source incidence
//       (SourceIncidence, the adjacency transposed), m_k = inv_deg[v] *
//       scale[k] (inv_deg[v] unweighted), entries whose destination has
//       inv_deg 0 skipped.
// One row's kAggCols-column panel stays in vector registers across its
// whole entry list, so each entry loads its source row once and the output
// row is loaded and stored once per panel. Vectors run along the columns only,
// so each element sees exactly the scalar loop's multiply, then add, in
// the scalar order; with contraction off (-ffp-contract=off, root
// CMakeLists.txt) every ISA gives the same bits (docs/ARCHITECTURE.md §6).

#include <cstdint>
#include <cstring>
#include <span>

#include "common/types.hpp"
#include "tensor/matrix.hpp"

namespace bnsgcn::nn {
struct BipartiteCsr;
struct SourceIncidence;
} // namespace bnsgcn::nn

namespace bnsgcn::nn::detail {

constexpr std::int64_t kAggLanes = 16; // floats per AggVec
constexpr int kAggVecs = 4;            // AggVecs per full panel
constexpr std::int64_t kAggCols = kAggVecs * kAggLanes; // columns per panel

// 16 floats; one zmm, two ymm or four xmm registers depending on the
// clone. Only ever a local, so the clones share one ABI.
typedef float AggVec __attribute__((vector_size(kAggLanes * sizeof(float))));

/// One aggregation in row form (see the file comment). Row r's output is
/// out + (r - out_row0) * d; entry k's source row is src + idx[k] * d.
struct AggSpec {
  const EdgeId* offsets = nullptr; // entry range of row r
  const NodeId* idx = nullptr;     // source row of each entry
  const float* scale = nullptr;    // per-entry multiplier; null = unweighted
  const float* inv_deg = nullptr;  // gather: row normalizer, null = none;
                                   // pull: per-destination weight
  NodeId idx_end = 0;              // gather: skip entries with idx >= this
  const float* src = nullptr;
  float* out = nullptr;
  std::int64_t out_row0 = 0;
  std::int64_t d = 0;              // row width of src and out
  bool pull = false;
};

/// Runs the kernel over rows [r0, r1). Shipped as layer.cpp's
/// target_clones dispatcher; tests pass per-target wrappers.
using AggPanelFn = void (*)(const AggSpec&, std::int64_t, std::int64_t);

// The columns [c, c + V * kAggLanes) of one output row: the accumulator
// stays in registers across the entry list (Term: GatherTerm or PullTerm
// below, which may prefetch the row of a later entry).
template <int V, typename Term>
[[gnu::always_inline]] inline void row_panel(float* o, EdgeId k0, EdgeId k1,
                                             std::int64_t c,
                                             const Term& term) {
  AggVec acc[V];
#pragma GCC unroll 4
  for (int q = 0; q < V; ++q)
    std::memcpy(&acc[q], o + c + q * kAggLanes, sizeof(AggVec));
  for (EdgeId k = k0; k < k1; ++k) {
    if constexpr (Term::kPrefetch) {
      if (const float* p = term.ahead(k)) {
#pragma GCC unroll 4
        for (int q = 0; q < V; ++q) __builtin_prefetch(p + c + q * kAggLanes);
      }
    }
    float m = 0.0f;
    const float* s = term(k, m);
    if (s == nullptr) continue;
#pragma GCC unroll 4
    for (int q = 0; q < V; ++q) {
      AggVec sv;
      std::memcpy(&sv, s + c + q * kAggLanes, sizeof(AggVec));
      acc[q] += m * sv; // lint: allow(float-accum) — per-element ascending-entry accumulation; lanes are independent columns
    }
  }
#pragma GCC unroll 4
  for (int q = 0; q < V; ++q)
    std::memcpy(o + c + q * kAggLanes, &acc[q], sizeof(AggVec));
}

// One output row of width d: full panels, then one narrower vector panel,
// then the last d % kAggLanes columns as scalars. Each column range walks
// the whole entry list, so every element keeps its own entry order.
template <typename Term>
[[gnu::always_inline]] inline void accumulate_row(float* o, std::int64_t d,
                                                  EdgeId k0, EdgeId k1,
                                                  const Term& term) {
  std::int64_t c = 0;
  // lint: allow(float-accum) — integer panel stride, not a reduction
  for (; c + kAggCols <= d; c += kAggCols) row_panel<kAggVecs>(o, k0, k1, c, term);
  switch ((d - c) / kAggLanes) {
    case 3: row_panel<3>(o, k0, k1, c, term); c += 3 * kAggLanes; break;
    case 2: row_panel<2>(o, k0, k1, c, term); c += 2 * kAggLanes; break;
    case 1: row_panel<1>(o, k0, k1, c, term); c += kAggLanes; break;
    default: break;
  }
  if (c == d) return;
  for (EdgeId k = k0; k < k1; ++k) {
    float m = 0.0f;
    const float* s = term(k, m);
    if (s == nullptr) continue;
    for (std::int64_t j = c; j < d; ++j)
      o[j] += m * s[j]; // lint: allow(float-accum) — per-element ascending-entry accumulation, same order as the panels
  }
}

// Entry terms of the two kinds: operator() returns entry k's source row
// and sets its multiplier, or returns nullptr to skip the entry.
template <bool kWeighted>
struct GatherTerm {
  // Prefetching the gathered rows measured no gain (bench_micro_kernels,
  // BM_MeanAggregate, five alternating runs each way).
  static constexpr bool kPrefetch = false;
  const AggSpec& s;
  const float* operator()(EdgeId k, float& m) const {
    const NodeId u = s.idx[k];
    if (u >= s.idx_end) return nullptr;
    m = kWeighted ? s.scale[k] : 1.0f;
    return s.src + static_cast<std::int64_t>(u) * s.d;
  }
};

// Entries ahead of the one being added whose dout row the pull prefetches.
// The rows are random reads the hardware prefetcher cannot predict, and
// prefetching them measured 5-10% faster on BM_MeanAggregateBackward (4 or
// 5 wins of 5 alternating runs per shape). Prefetches never change values.
constexpr EdgeId kAhead = 8;

template <bool kWeighted>
struct PullTerm {
  static constexpr bool kPrefetch = true;
  const AggSpec& s;
  EdgeId lim; // end of the entries of the rows being run
  const float* operator()(EdgeId k, float& m) const {
    const NodeId v = s.idx[k];
    const float w = s.inv_deg[v];
    if (w == 0.0f) return nullptr;
    m = kWeighted ? w * s.scale[k] : w;
    return s.src + static_cast<std::int64_t>(v) * s.d;
  }
  // The row to prefetch while entry k is added; nullptr past the end.
  const float* ahead(EdgeId k) const {
    return k + kAhead < lim
               ? s.src + static_cast<std::int64_t>(s.idx[k + kAhead]) * s.d
               : nullptr;
  }
};

template <bool kWeighted>
[[gnu::always_inline]] inline void gather_rows(const AggSpec& s,
                                               std::int64_t r0,
                                               std::int64_t r1) {
  const GatherTerm<kWeighted> term{s};
  for (std::int64_t r = r0; r < r1; ++r) {
    float* o = s.out + (r - s.out_row0) * s.d;
    const float w = s.inv_deg != nullptr ? s.inv_deg[r] : 1.0f;
    if (w == 0.0f) continue; // isolated destination: the row stays as is
    accumulate_row(o, s.d, s.offsets[r], s.offsets[r + 1], term);
    if (s.inv_deg != nullptr) {
      for (std::int64_t j = 0; j < s.d; ++j) o[j] *= w;
    }
  }
}

template <bool kWeighted>
[[gnu::always_inline]] inline void pull_rows(const AggSpec& s,
                                             std::int64_t r0,
                                             std::int64_t r1) {
  const PullTerm<kWeighted> term{s, s.offsets[r1]};
  for (std::int64_t r = r0; r < r1; ++r) {
    accumulate_row(s.out + (r - s.out_row0) * s.d, s.d, s.offsets[r],
                   s.offsets[r + 1], term);
  }
}

/// The kernel body every clone compiles.
[[gnu::always_inline]] inline void run(const AggSpec& s, std::int64_t r0,
                                       std::int64_t r1) {
  const bool weighted = s.scale != nullptr;
  if (s.pull) {
    if (weighted) {
      pull_rows<true>(s, r0, r1);
    } else {
      pull_rows<false>(s, r0, r1);
    }
  } else if (weighted) {
    gather_rows<true>(s, r0, r1);
  } else {
    gather_rows<false>(s, r0, r1);
  }
}

// The aggregation kernels over a given panel: shape checks and the
// row-block split. The nn::mean_aggregate* functions call them with the
// dispatched panel.
void mean_aggregate_with(AggPanelFn panel, const BipartiteCsr& adj,
                         const Matrix& src, std::span<const float> inv_deg,
                         Matrix& out);
void mean_aggregate_inner_rows_with(AggPanelFn panel, const BipartiteCsr& adj,
                                    const Matrix& inner_src, NodeId row0,
                                    NodeId row1, Matrix& out);
void mean_aggregate_backward_with(AggPanelFn panel, const BipartiteCsr& adj,
                                  const Matrix& dout,
                                  std::span<const float> inv_deg,
                                  Matrix& dsrc);
void mean_aggregate_backward_inner_with(AggPanelFn panel,
                                        const SourceIncidence& inc,
                                        const Matrix& dout,
                                        std::span<const float> inv_deg,
                                        Matrix& dinner);
void mean_aggregate_backward_halo_with(AggPanelFn panel,
                                       const SourceIncidence& inc,
                                       const Matrix& dout,
                                       std::span<const float> inv_deg,
                                       Matrix& dhalo);

} // namespace bnsgcn::nn::detail
