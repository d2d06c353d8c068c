#pragma once

#include <cstddef>

namespace dance::tensor::gemm {

/// Blocked, cache-tiled single-precision GEMM shared by the autograd matmul
/// (tensor::ops::matmul, forward and both backward products) and the
/// frozen-inference plan executor (dance::infer). Keeping one kernel is what
/// makes the fused inference path bit-identical to the autograd path by
/// construction. The backward products run it on transposed copies (see
/// `transpose`) rather than through transposed-operand variants, so there is
/// one accumulation order to reason about.
///
/// Semantics: C += A * B for row-major A [n, k], B [k, m], C [n, m]. The
/// caller zero-initializes C (or passes a partial sum to accumulate into).
///
/// Bit-identity contract:
///   * Each C element accumulates its k products in ascending-kk order, the
///     same order as the textbook i/kk/j triple loop, so the blocked kernel
///     is bit-identical to the naive one. Blocking only re-tiles the i and
///     kk loops for cache locality, and the inner loop keeps C in registers
///     across four kk terms at a time; neither reorders the additions that
///     land in one element.
///   * `gemm_rows` is one source compiled as two target clones (AVX2 and
///     baseline; thread-sanitized builds keep the baseline alone). An ifunc
///     resolver picks one per process, and every caller reaches the kernel
///     through it, so the fused tier and autograd always run the same clone.
///     src/ builds with -ffp-contract=off, so no clone fuses a multiply
///     into an add (CI checks the objects for FMA), and both clones round
///     each element as scalar code does.
///   * Rows of C are computed independently and the kernel parallelizes over
///     row ranges on runtime::global_pool(), so results are bit-identical to
///     a serial run at any thread count (the pool's static-partitioning
///     contract, docs/runtime.md).
///   * Zero-skip: a_ik == 0 rows of the inner loop are skipped only while B
///     is finite everywhere — 0 * NaN and 0 * inf must poison C, not vanish
///     (the PR 5 matmul regression). `b_finite` is the caller-supplied
///     answer to all_finite(B); pass it when already known, or use the
///     two-argument overload which scans B itself.
void gemm(const float* a, const float* b, float* c, int n, int k, int m,
          bool b_finite);
void gemm(const float* a, const float* b, float* c, int n, int k, int m);

/// True iff every element is finite (no NaN / ±inf).
[[nodiscard]] bool all_finite(const float* p, std::size_t count);

/// Writes the transpose of row-major `src [rows, cols]` into `dst [cols,
/// rows]`. Pure copies in cache-sized tiles; `dst` must not alias `src`.
void transpose(const float* src, float* dst, int rows, int cols);

/// Serial single-range variant: computes rows [row_lo, row_hi) of C on the
/// calling thread with the same blocking and accumulation order as `gemm`.
/// The plan executor uses it to nest GEMMs inside an outer pool job without
/// re-entering the pool per layer.
void gemm_rows(const float* a, const float* b, float* c, long row_lo,
               long row_hi, int k, int m, bool b_finite);

}  // namespace dance::tensor::gemm
