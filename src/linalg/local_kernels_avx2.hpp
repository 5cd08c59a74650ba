#pragma once
// The 6x8 AVX2+FMA micro-kernel of the blocked GEMM, shared by the two
// SIMD translation units: local_kernels_x86.cpp (the AVX2 leg) and
// local_kernels_avx512.cpp (the AVX-512 leg, which runs it on every
// tile its pair kernel does not take).  Include it only from a TU
// compiled with -mavx2 -mfma.  `static` like the lk_engine templates,
// so each TU owns its copy and the linker can never hand one TU's
// codegen to the other.

#include <immintrin.h>

#include <cstddef>

namespace wa::linalg::lk_engine {

// c(6 x 8, row stride ldc) += sum_k apanel[k-slice] (x)
// bpanel[k-slice].  Twelve ymm accumulators (6 rows x 2 four-wide
// column halves) hold the output tile across the whole k loop --
// loaded from c up front, stored back once -- leaving four ymm
// registers for the B loads and A broadcasts, so nothing spills.
static void micro_6x8_avx2(std::size_t kc, const double* apanel,
                           const double* bpanel, double* c,
                           std::size_t ldc) {
  __m256d c00 = _mm256_loadu_pd(c + 0 * ldc);
  __m256d c01 = _mm256_loadu_pd(c + 0 * ldc + 4);
  __m256d c10 = _mm256_loadu_pd(c + 1 * ldc);
  __m256d c11 = _mm256_loadu_pd(c + 1 * ldc + 4);
  __m256d c20 = _mm256_loadu_pd(c + 2 * ldc);
  __m256d c21 = _mm256_loadu_pd(c + 2 * ldc + 4);
  __m256d c30 = _mm256_loadu_pd(c + 3 * ldc);
  __m256d c31 = _mm256_loadu_pd(c + 3 * ldc + 4);
  __m256d c40 = _mm256_loadu_pd(c + 4 * ldc);
  __m256d c41 = _mm256_loadu_pd(c + 4 * ldc + 4);
  __m256d c50 = _mm256_loadu_pd(c + 5 * ldc);
  __m256d c51 = _mm256_loadu_pd(c + 5 * ldc + 4);
  for (std::size_t k = 0; k < kc; ++k) {
    const double* ak = apanel + k * 6;
    const double* bk = bpanel + k * 8;
    // Walk the next A micro-panel into L1 while this one computes:
    // the k loop covers kc lines, the next panel is 6*kc doubles.
    // NOLINT(wa-cast): _mm_prefetch takes const char*; the address is
    // only prefetched, never dereferenced through the char type
    _mm_prefetch(reinterpret_cast<const char*>(ak + 6 * kc),
                 _MM_HINT_T0);
    const __m256d b0 = _mm256_loadu_pd(bk);
    const __m256d b1 = _mm256_loadu_pd(bk + 4);
    __m256d a = _mm256_broadcast_sd(ak + 0);
    c00 = _mm256_fmadd_pd(a, b0, c00);
    c01 = _mm256_fmadd_pd(a, b1, c01);
    a = _mm256_broadcast_sd(ak + 1);
    c10 = _mm256_fmadd_pd(a, b0, c10);
    c11 = _mm256_fmadd_pd(a, b1, c11);
    a = _mm256_broadcast_sd(ak + 2);
    c20 = _mm256_fmadd_pd(a, b0, c20);
    c21 = _mm256_fmadd_pd(a, b1, c21);
    a = _mm256_broadcast_sd(ak + 3);
    c30 = _mm256_fmadd_pd(a, b0, c30);
    c31 = _mm256_fmadd_pd(a, b1, c31);
    a = _mm256_broadcast_sd(ak + 4);
    c40 = _mm256_fmadd_pd(a, b0, c40);
    c41 = _mm256_fmadd_pd(a, b1, c41);
    a = _mm256_broadcast_sd(ak + 5);
    c50 = _mm256_fmadd_pd(a, b0, c50);
    c51 = _mm256_fmadd_pd(a, b1, c51);
  }
  _mm256_storeu_pd(c + 0 * ldc, c00);
  _mm256_storeu_pd(c + 0 * ldc + 4, c01);
  _mm256_storeu_pd(c + 1 * ldc, c10);
  _mm256_storeu_pd(c + 1 * ldc + 4, c11);
  _mm256_storeu_pd(c + 2 * ldc, c20);
  _mm256_storeu_pd(c + 2 * ldc + 4, c21);
  _mm256_storeu_pd(c + 3 * ldc, c30);
  _mm256_storeu_pd(c + 3 * ldc + 4, c31);
  _mm256_storeu_pd(c + 4 * ldc, c40);
  _mm256_storeu_pd(c + 4 * ldc + 4, c41);
  _mm256_storeu_pd(c + 5 * ldc, c50);
  _mm256_storeu_pd(c + 5 * ldc + 4, c51);
}

}  // namespace wa::linalg::lk_engine
