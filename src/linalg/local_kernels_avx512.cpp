// The AVX-512 leg of the blocked kernels: this TU is compiled with
// -mavx2 -mfma -mavx512f when the toolchain supports it (see the
// top-level CMakeLists) and holds two kernels, each entered behind a
// runtime CPUID check:
//   * the blocked GEMM: the shared lk_engine with the AVX2 leg's 6x8
//     micro-kernel, plus a pair kernel that runs two adjacent full
//     6x8 tiles per call with 512-bit FMAs;
//   * a 512-bit instance of lu_nopivot_unblocked's loop.
// Neither changes any element's arithmetic.  A pair-kernel lane takes
// the 6x8 kernel's chain (C loaded once, one fused multiply-add per k
// in ascending k, stored once), so the GEMM is bitwise the AVX2 leg;
// the factor is the portable loop vectorized without contraction
// (-ffp-contract=off), so it is bitwise the portable instance.  On
// every other CPU, and on non-x86 targets or toolchains without
// -mavx512f, where this TU compiles to the stubs below, the callers
// fall back to the AVX2 leg and the portable factor.

#include "linalg/local_kernels.hpp"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__) && \
    defined(__AVX512F__)

#include <immintrin.h>

#include "linalg/local_kernels_avx2.hpp"
#include "linalg/local_kernels_impl.hpp"
#include "linalg/lu_nopivot_impl.hpp"

namespace wa::linalg::detail {
namespace {

bool cpu_has_avx512() {
  static const bool ok =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma");
  return ok;
}

// c(6 x 16, row stride ldc) += apanel against two adjacent packed B
// panels: panel q at bpanel and panel q + 1 at bpanel + 8 * kc.  Twelve
// zmm accumulators (6 rows x 2 panels) hold the tile across the whole
// k loop; per k, one A broadcast per row feeds both panels' FMAs.
void micro_6x16_avx512(std::size_t kc, const double* apanel,
                       const double* bpanel, double* c, std::size_t ldc) {
  const double* bnext = bpanel + 8 * kc;
  __m512d c00 = _mm512_loadu_pd(c + 0 * ldc);
  __m512d c01 = _mm512_loadu_pd(c + 0 * ldc + 8);
  __m512d c10 = _mm512_loadu_pd(c + 1 * ldc);
  __m512d c11 = _mm512_loadu_pd(c + 1 * ldc + 8);
  __m512d c20 = _mm512_loadu_pd(c + 2 * ldc);
  __m512d c21 = _mm512_loadu_pd(c + 2 * ldc + 8);
  __m512d c30 = _mm512_loadu_pd(c + 3 * ldc);
  __m512d c31 = _mm512_loadu_pd(c + 3 * ldc + 8);
  __m512d c40 = _mm512_loadu_pd(c + 4 * ldc);
  __m512d c41 = _mm512_loadu_pd(c + 4 * ldc + 8);
  __m512d c50 = _mm512_loadu_pd(c + 5 * ldc);
  __m512d c51 = _mm512_loadu_pd(c + 5 * ldc + 8);
  for (std::size_t k = 0; k < kc; ++k) {
    const double* ak = apanel + k * 6;
    // The next A micro-panel, as in micro_6x8_avx2.
    // NOLINT(wa-cast): _mm_prefetch takes const char*; the address is
    // only prefetched, never dereferenced through the char type
    _mm_prefetch(reinterpret_cast<const char*>(ak + 6 * kc),
                 _MM_HINT_T0);
    const __m512d b0 = _mm512_loadu_pd(bpanel + k * 8);
    const __m512d b1 = _mm512_loadu_pd(bnext + k * 8);
    __m512d a = _mm512_set1_pd(ak[0]);
    c00 = _mm512_fmadd_pd(a, b0, c00);
    c01 = _mm512_fmadd_pd(a, b1, c01);
    a = _mm512_set1_pd(ak[1]);
    c10 = _mm512_fmadd_pd(a, b0, c10);
    c11 = _mm512_fmadd_pd(a, b1, c11);
    a = _mm512_set1_pd(ak[2]);
    c20 = _mm512_fmadd_pd(a, b0, c20);
    c21 = _mm512_fmadd_pd(a, b1, c21);
    a = _mm512_set1_pd(ak[3]);
    c30 = _mm512_fmadd_pd(a, b0, c30);
    c31 = _mm512_fmadd_pd(a, b1, c31);
    a = _mm512_set1_pd(ak[4]);
    c40 = _mm512_fmadd_pd(a, b0, c40);
    c41 = _mm512_fmadd_pd(a, b1, c41);
    a = _mm512_set1_pd(ak[5]);
    c50 = _mm512_fmadd_pd(a, b0, c50);
    c51 = _mm512_fmadd_pd(a, b1, c51);
  }
  _mm512_storeu_pd(c + 0 * ldc, c00);
  _mm512_storeu_pd(c + 0 * ldc + 8, c01);
  _mm512_storeu_pd(c + 1 * ldc, c10);
  _mm512_storeu_pd(c + 1 * ldc + 8, c11);
  _mm512_storeu_pd(c + 2 * ldc, c20);
  _mm512_storeu_pd(c + 2 * ldc + 8, c21);
  _mm512_storeu_pd(c + 3 * ldc, c30);
  _mm512_storeu_pd(c + 3 * ldc + 8, c31);
  _mm512_storeu_pd(c + 4 * ldc, c40);
  _mm512_storeu_pd(c + 4 * ldc + 8, c41);
  _mm512_storeu_pd(c + 5 * ldc, c50);
  _mm512_storeu_pd(c + 5 * ldc + 8, c51);
}

}  // namespace

bool gemm_blocked_avx512(MatrixView<double> C, ConstMatrixView<double> A,
                         ConstMatrixView<double> B, double alpha,
                         bool b_transposed) {
  if (!cpu_has_avx512()) return false;
  lk_engine::gemm_blocked<6, 8>(C, A, B, alpha, b_transposed,
                                &lk_engine::micro_6x8_avx2,
                                &micro_6x16_avx512);
  return true;
}

bool lu_nopivot_avx512(MatrixView<double> A) {
  if (!cpu_has_avx512()) return false;
  lu_impl::lu_nopivot(A);
  return true;
}

}  // namespace wa::linalg::detail

#else  // non-x86 target or toolchain without the flags: no AVX-512 leg.

namespace wa::linalg::detail {

bool gemm_blocked_avx512(MatrixView<double>, ConstMatrixView<double>,
                         ConstMatrixView<double>, double, bool) {
  return false;
}

bool lu_nopivot_avx512(MatrixView<double>) { return false; }

}  // namespace wa::linalg::detail

#endif
