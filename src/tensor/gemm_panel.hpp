#pragma once

// Register-blocked GEMM panel behind ops::gemm_nn_rows / gemm_tn / gemm_nt
// (tensor/ops.hpp). Internal to tensor/: ops.cpp compiles run() once per
// ISA through target_clones, and tests/test_ops.cpp instantiates it under
// each of those targets explicitly, so every clone is checked against the
// scalar oracle on one host.
//
// Every GEMM here is a sequence of rank-1 steps. A tile of kRows × kCols
// elements of C stays in vector registers across its steps; step t loads
// one kCols-wide row of B once and applies it to all kRows rows:
//   rank-1 tile (gemm_nn, gemm_tn):  c[r,:] += (alpha * a(r,t)) * b[t,:],
//       skipped when alpha * a(r,t) == 0, ascending t;
//   dot tile (gemm_nt, B transposed): acc[r,:] = 0; acc[r,:] += a(r,t) *
//       b[t,:] for every t ascending, no skip; then c[r,:] += alpha * acc.
// Vectors run along C's columns only, so each element sees exactly the
// scalar kernel's multiply, then add, in the scalar order. With
// contraction off (-ffp-contract=off, root CMakeLists.txt) the vector
// width is therefore bit-neutral: every ISA produces the same bits
// (docs/ARCHITECTURE.md §6).

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "tensor/matrix.hpp"

namespace bnsgcn::ops::detail {

constexpr std::int64_t kRows = 4;   // C rows per tile
constexpr std::int64_t kCols = 64;  // C columns per tile
constexpr std::int64_t kLanes = 16; // floats per Vec
constexpr int kVecs = static_cast<int>(kCols / kLanes);

// Steps per pass of a rank-1 tile: the kStepBlock × kCols slab of B it
// streams stays cache-resident while the tile loop sweeps C's rows. C is
// stored and reloaded between passes, which is exact, so step blocking
// never changes bits. Dot tiles take all their steps in one pass.
constexpr std::int64_t kStepBlock = 256;

// 16 floats; the compiler lowers it to one zmm, two ymm or four xmm
// registers depending on the clone. Only ever a local: no function takes
// or returns one, so the clones share one ABI.
typedef float Vec __attribute__((vector_size(kLanes * sizeof(float))));

/// One GEMM in panel form. Tile row r, step t reads its multiplier at
/// a[r * a_row + t * a_step]; step t's B row for the column panel at j0 is
/// b + t * ldb + j0, except the last panel when n % kCols != 0, which
/// reads b_tail + t * ld_tail: kCols floats, zero-padded past n.
struct Spec {
  const float* a = nullptr;
  std::int64_t a_row = 0;
  std::int64_t a_step = 0;
  const float* b = nullptr;
  std::int64_t ldb = 0;
  const float* b_tail = nullptr;
  std::int64_t ld_tail = 0;
  float* c = nullptr;
  std::int64_t ldc = 0;
  std::int64_t n = 0;     // columns of C
  std::int64_t steps = 0; // contraction length
  float alpha = 1.0f;
  bool dot = false;       // dot tiles (gemm_nt) instead of rank-1 tiles
};

/// Runs the panel over rows [r0, r1) of C. Shipped as ops.cpp's
/// target_clones dispatcher; tests pass per-target wrappers.
using PanelFn = void (*)(const Spec&, std::int64_t, std::int64_t);

template <int R, bool kDot>
[[gnu::always_inline]] inline void tile(const float* a, std::int64_t a_row,
                                        std::int64_t a_step, std::int64_t t0,
                                        std::int64_t t1, const float* b,
                                        std::int64_t ldb, float* c,
                                        std::int64_t ldc, float alpha) {
  Vec acc[R][kVecs];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int q = 0; q < kVecs; ++q) {
      if constexpr (kDot) {
        acc[r][q] = Vec{};
      } else {
        std::memcpy(&acc[r][q], c + r * ldc + q * kLanes, sizeof(Vec));
      }
    }
  }
  for (std::int64_t t = t0; t < t1; ++t) {
    Vec bv[kVecs];
#pragma GCC unroll 4
    for (int q = 0; q < kVecs; ++q)
      std::memcpy(&bv[q], b + t * ldb + q * kLanes, sizeof(Vec));
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float x = a[r * a_row + t * a_step];
      if constexpr (kDot) {
#pragma GCC unroll 4
        for (int q = 0; q < kVecs; ++q)
          acc[r][q] += x * bv[q]; // lint: allow(float-accum) — per-element ascending-t dot product; lanes are independent columns
      } else {
        // The skip is part of the bits, not just a shortcut: adding a 0.0f
        // term is not neutral when the accumulator holds -0.0f.
        const float av = alpha * x;
        if (av == 0.0f) continue;
#pragma GCC unroll 4
        for (int q = 0; q < kVecs; ++q)
          acc[r][q] += av * bv[q]; // lint: allow(float-accum) — per-element ascending-t accumulation; lanes are independent columns
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int q = 0; q < kVecs; ++q) {
      float* p = c + r * ldc + q * kLanes;
      if constexpr (kDot) {
        Vec cv;
        std::memcpy(&cv, p, sizeof(Vec));
        cv += alpha * acc[r][q]; // lint: allow(float-accum) — one term per element: c = c + alpha * dot
        std::memcpy(p, &cv, sizeof(Vec));
      } else {
        std::memcpy(p, &acc[r][q], sizeof(Vec));
      }
    }
  }
}

template <bool kDot>
[[gnu::always_inline]] inline void run_rows(const Spec& s, std::int64_t r0,
                                            std::int64_t r1) {
  const std::int64_t full = s.n - s.n % kCols;
  const std::int64_t pass = kDot ? s.steps : kStepBlock;
  std::int64_t t0 = 0;
  do {
    const std::int64_t t1 = std::min(t0 + pass, s.steps);
    // lint: allow(float-accum) — integer panel stride, not a reduction
    for (std::int64_t j0 = 0; j0 < s.n; j0 += kCols) {
      const bool tail = j0 == full;
      const float* b = tail ? s.b_tail : s.b + j0;
      const std::int64_t ldb = tail ? s.ld_tail : s.ldb;
      const std::int64_t w = tail ? s.n - j0 : kCols;
      // lint: allow(float-accum) — integer tile stride, not a reduction
      for (std::int64_t i = r0; i < r1; i += kRows) {
        const std::int64_t rows = std::min(kRows, r1 - i);
        float* c = s.c + i * s.ldc + j0;
        std::int64_t ldc = s.ldc;
        // A partial panel runs on a zero-padded staging copy of its C rows
        // (the padding lanes compute values nobody reads).
        alignas(64) float stage[kRows * kCols];
        if (tail) {
          for (std::int64_t r = 0; r < rows; ++r) {
            std::copy(c + r * s.ldc, c + r * s.ldc + w, stage + r * kCols);
            std::fill(stage + r * kCols + w, stage + (r + 1) * kCols, 0.0f);
          }
          c = stage;
          ldc = kCols;
        }
        const float* a = s.a + i * s.a_row;
        switch (rows) {
          case 1:
            tile<1, kDot>(a, s.a_row, s.a_step, t0, t1, b, ldb, c, ldc, s.alpha);
            break;
          case 2:
            tile<2, kDot>(a, s.a_row, s.a_step, t0, t1, b, ldb, c, ldc, s.alpha);
            break;
          case 3:
            tile<3, kDot>(a, s.a_row, s.a_step, t0, t1, b, ldb, c, ldc, s.alpha);
            break;
          default:
            tile<4, kDot>(a, s.a_row, s.a_step, t0, t1, b, ldb, c, ldc, s.alpha);
            break;
        }
        if (tail) {
          float* out = s.c + i * s.ldc + j0;
          for (std::int64_t r = 0; r < rows; ++r)
            std::copy(stage + r * kCols, stage + r * kCols + w, out + r * s.ldc);
        }
      }
    }
    t0 = t1;
  } while (t0 < s.steps);
}

/// The panel body every clone compiles: rows [r0, r1) of s.c, which the
/// caller has already scaled by beta.
[[gnu::always_inline]] inline void run(const Spec& s, std::int64_t r0,
                                       std::int64_t r1) {
  if (s.dot) {
    run_rows<true>(s, r0, r1);
  } else {
    run_rows<false>(s, r0, r1);
  }
}

// The GEMMs over a given panel: shape checks, beta, B packing and
// the kBlockM row split. Every operand is a row-block view, whose stride
// becomes the Spec's leading dimension. ops::gemm_* call them with the dispatched panel.
void gemm_nn_rows_with(PanelFn panel, ConstRowBlock a, ConstRowBlock b,
                       RowBlock c, std::int64_t r0, std::int64_t r1,
                       float alpha, float beta);
void gemm_tn_with(PanelFn panel, ConstRowBlock a, ConstRowBlock b, RowBlock c,
                  float alpha, float beta);
void gemm_nt_with(PanelFn panel, ConstRowBlock a, ConstRowBlock b, RowBlock c,
                  float alpha, float beta);

} // namespace bnsgcn::ops::detail
