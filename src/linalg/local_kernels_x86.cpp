// The AVX2 leg of the blocked GEMM: this TU is compiled with
// -mavx2 -mfma when the toolchain supports it (see the top-level
// CMakeLists) and drives the shared lk_engine with a hand-written
// 6x8 FMA micro-kernel (local_kernels_avx2.hpp, shared with the
// AVX-512 leg) -- GCC's autovectorizer tops out around 2/3 of FMA
// peak on the generic micro-kernel and spills any register block
// larger than 4x8, so the twelve-accumulator kernel has to be spelled
// in intrinsics.  Entry is guarded by a runtime CPUID check, so the
// binary stays safe on older x86 parts and the portable engine in
// local_kernels.cpp takes over there (and on every non-x86 target,
// where this TU compiles to the stub below).

#include "linalg/local_kernels.hpp"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)

#include "linalg/local_kernels_avx2.hpp"
#include "linalg/local_kernels_impl.hpp"

namespace wa::linalg::detail {

bool gemm_blocked_simd(MatrixView<double> C, ConstMatrixView<double> A,
                       ConstMatrixView<double> B, double alpha,
                       bool b_transposed) {
  static const bool cpu_ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (!cpu_ok) return false;
  lk_engine::gemm_blocked<6, 8>(C, A, B, alpha, b_transposed,
                                &lk_engine::micro_6x8_avx2);
  return true;
}

}  // namespace wa::linalg::detail

#else  // non-x86 target or toolchain without the flags: no SIMD leg.

namespace wa::linalg::detail {

bool gemm_blocked_simd(MatrixView<double>, ConstMatrixView<double>,
                       ConstMatrixView<double>, double, bool) {
  return false;
}

}  // namespace wa::linalg::detail

#endif
