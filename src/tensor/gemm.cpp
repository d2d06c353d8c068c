#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>

#include "util/parallel.h"

namespace dance::tensor::gemm {

namespace {

/// Rows of A processed per tile before moving to the next kk block. Keeps a
/// kk-tile of B hot in L1/L2 while it is applied to a block of A rows.
constexpr long kRowBlock = 32;
/// kk-tile height: kKBlock rows of B (kKBlock * m floats) form the resident
/// tile. For the evaluator widths (m <= 256) this is at most 32 KiB.
constexpr int kKBlock = 32;
/// Square tile of `transpose`: 32 x 32 floats read and written per tile.
constexpr int kTransposeTile = 32;

/// Pool grain matching the historical matmul grain: ~64k multiply-adds per
/// chunk so narrow products don't over-schedule.
long gemm_grain(int k, int m) { return std::max(1L, 65536L / std::max(1, k * m)); }

}  // namespace

bool all_finite(const float* p, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

void transpose(const float* src, float* dst, int rows, int cols) {
  for (int r0 = 0; r0 < rows; r0 += kTransposeTile) {
    const int r1 = std::min(r0 + kTransposeTile, rows);
    for (int c0 = 0; c0 < cols; c0 += kTransposeTile) {
      const int c1 = std::min(c0 + kTransposeTile, cols);
      for (int r = r0; r < r1; ++r) {
        const float* srow = src + static_cast<std::ptrdiff_t>(r) * cols;
        for (int c = c0; c < c1; ++c) {
          dst[static_cast<std::ptrdiff_t>(c) * rows + r] = srow[c];
        }
      }
    }
  }
}

// AVX2 and baseline clones of one source, picked once per process by an
// ifunc resolver; why both round alike is in the contract in gemm.h. Under
// -fsanitize=thread GCC instruments the resolver itself, which then calls
// the TSan runtime before the loader has bound it and crashes at start-up,
// so thread-sanitized builds keep the baseline body alone.
#if !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("avx2", "default")))
#endif
void gemm_rows(const float* a, const float* b, float* c, long row_lo,
               long row_hi, int k, int m, bool b_finite) {
  int live[kKBlock] = {};
  for (long i0 = row_lo; i0 < row_hi; i0 += kRowBlock) {
    const long i1 = std::min(i0 + kRowBlock, row_hi);
    for (int k0 = 0; k0 < k; k0 += kKBlock) {
      const int k1 = std::min(k0 + kKBlock, k);
      for (long i = i0; i < i1; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * m;
        int n_live = 0;
        for (int kk = k0; kk < k1; ++kk) {
          if (arow[kk] != 0.0F || !b_finite) live[n_live++] = kk;
        }
        // Four live terms per pass keep C in registers across them; each
        // element still adds its products one at a time in ascending kk.
        int t = 0;
        for (; t + 4 <= n_live; t += 4) {
          const float a0 = arow[live[t]];
          const float a1 = arow[live[t + 1]];
          const float a2 = arow[live[t + 2]];
          const float a3 = arow[live[t + 3]];
          const float* b0 = b + static_cast<std::ptrdiff_t>(live[t]) * m;
          const float* b1 = b + static_cast<std::ptrdiff_t>(live[t + 1]) * m;
          const float* b2 = b + static_cast<std::ptrdiff_t>(live[t + 2]) * m;
          const float* b3 = b + static_cast<std::ptrdiff_t>(live[t + 3]) * m;
          for (int j = 0; j < m; ++j) {
            float acc = crow[j];
            acc += a0 * b0[j];
            acc += a1 * b1[j];
            acc += a2 * b2[j];
            acc += a3 * b3[j];
            crow[j] = acc;
          }
        }
        for (; t < n_live; ++t) {
          const float av = arow[live[t]];
          const float* brow = b + static_cast<std::ptrdiff_t>(live[t]) * m;
          for (int j = 0; j < m; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

void gemm(const float* a, const float* b, float* c, int n, int k, int m,
          bool b_finite) {
  util::parallel_for(0, n, [&](long lo, long hi) {
    gemm_rows(a, b, c, lo, hi, k, m, b_finite);
  }, gemm_grain(k, m));
}

void gemm(const float* a, const float* b, float* c, int n, int k, int m) {
  gemm(a, b, c, n, k, m,
       all_finite(b, static_cast<std::size_t>(k) * static_cast<std::size_t>(m)));
}

}  // namespace dance::tensor::gemm
