#pragma once
// wa::linalg -- the LocalKernels seam: one table of the dense kernel
// entry points every per-rank numeric phase calls, with two
// interchangeable implementations.
//
//   kNaive    the reference triple loops of linalg/kernels.cpp,
//             unchanged -- clarity and a rounding baseline.
//   kBlocked  cache-blocked kernels (the default): GEMM packs strided
//             MatrixView sub-blocks into contiguous micro-panels and
//             multiplies them with an L1-resident register block in
//             the spirit of the paper's Section 4 blocking analyses;
//             TRSM and SYRK peel their diagonal work and push the
//             off-diagonal updates through the blocked GEMM, and the
//             left-lower and right-upper solves run their diagonal
//             blocks through register-tiled solvers; the Gram
//             kernel computes only one triangle of G = V^T V with the
//             columns chunked through L1.
//
// The seam exists so the simulator's wall-clock columns measure the
// hardware instead of loop and view-indexing overhead.  Its contract:
//
//   * Kernels change *how* owned words are touched, never *which*.
//     All Machine/Hierarchy counter charging lives in dist/detail.hpp
//     and the explicit drivers, fully decoupled from the numerics, so
//     every channel counter is byte-identical between kNaive and
//     kBlocked.
//   * Within one implementation, a kernel is a deterministic function
//     of its operands: serial and threaded backends stay bitwise- and
//     counter-identical.
//   * gemm/trsm/syrk may reorder summation; naive and blocked results
//     agree to the tolerances pinned in tests/local_kernels_test.cpp.
//     The exception: left-lower (unit and non-unit) and right-upper
//     solves no wider than kTriBlock keep the reference loops' order
//     per element, so they are bitwise-equal to the naive ones.
//   * gram_upper_acc is call-granularity invariant: each G(a, c)
//     entry is accumulated as a single serial chain in ascending i,
//     so splitting the index range over many calls (as the
//     distributed CA-CG does per streaming chunk) is bitwise-equal to
//     one call over the union.  Both implementations honor this, so
//     the P = 1 bitwise pins against the shared-memory solvers hold
//     under either choice.
//
// Selection: WA_KERNELS=naive|blocked (blocked when unset), read once
// on first use by kernels_from_env, or overridden programmatically via
// set_active_kernels (tests/benches).

#include "linalg/matrix.hpp"

namespace wa::linalg {

enum class KernelImpl { kNaive, kBlocked };

/// Diagonal-block edge of the blocked triangular solves and SYRK: the
/// triangle is solved at this size (by a tiled solver or the reference
/// loops) while everything off-diagonal goes through the blocked GEMM.
inline constexpr std::size_t kTriBlock = 64;

/// The kernel vtable.  Signatures mirror linalg/kernels.hpp (alpha is
/// explicit: function pointers cannot carry default arguments).
struct LocalKernels {
  KernelImpl impl;
  const char* name;  // "naive" | "blocked"

  /// C += alpha * A * B.
  void (*gemm_acc)(MatrixView<double> C, ConstMatrixView<double> A,
                   ConstMatrixView<double> B, double alpha);
  /// C += alpha * A * B^T.
  void (*gemm_acc_bt)(MatrixView<double> C, ConstMatrixView<double> A,
                      ConstMatrixView<double> B, double alpha);
  /// Solve T * X = B (T upper triangular), X overwrites B.
  void (*trsm_left_upper)(ConstMatrixView<double> T, MatrixView<double> B);
  /// Solve L * X = B (L lower triangular), X overwrites B.
  void (*trsm_left_lower)(ConstMatrixView<double> L, MatrixView<double> B);
  /// Solve L * X = B (L *unit* lower triangular), X overwrites B.
  void (*trsm_left_unit_lower)(ConstMatrixView<double> L,
                               MatrixView<double> B);
  /// Solve X * L^T = B (L lower triangular), X overwrites B.
  void (*trsm_right_lower_t)(ConstMatrixView<double> L, MatrixView<double> B);
  /// Solve X * U = B (U upper triangular), X overwrites B.
  void (*trsm_right_upper)(ConstMatrixView<double> U, MatrixView<double> B);
  /// Lower triangle of A -= L1 * L2^T.
  void (*syrk_lower_acc)(MatrixView<double> A, ConstMatrixView<double> L1,
                         ConstMatrixView<double> L2);
  /// Upper triangle of the m-by-m row-major Gram accumulator g:
  /// g[a*m + c] += sum_{i in [lo, hi)} cols[a][i] * cols[c][i] for
  /// c >= a.  See the call-granularity contract in the file comment.
  void (*gram_upper_acc)(double* g, std::size_t m, const double* const* cols,
                         std::size_t lo, std::size_t hi);
};

/// The two implementations (process-lifetime statics).
const LocalKernels& naive_kernels();
const LocalKernels& blocked_kernels();
const LocalKernels& kernels(KernelImpl impl);

/// Parse WA_KERNELS: naive|blocked, kBlocked when unset or empty.
/// Anything else throws std::invalid_argument (never a silent
/// fallback to the wrong measurement).
KernelImpl kernels_from_env();

/// The process-wide active table, initialized from WA_KERNELS on
/// first use.  Thread-safe; per-rank phases on any Backend read it.
const LocalKernels& active_kernels();

/// Override the active table (tests and benches); returns the
/// previous choice so callers can restore it.
KernelImpl set_active_kernels(KernelImpl impl);

/// Mirror the upper triangle of the m-by-m row-major g onto the lower
/// one (the second half of the symmetric Gram product G = V^T V).
inline void gram_mirror(double* g, std::size_t m) {
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t c = 0; c < a; ++c) g[a * m + c] = g[c * m + a];
  }
}

// The blocked gemm's ISA legs and the diagonal factor's instances.
// The blocked table tries the AVX-512 leg, then the AVX2 leg, then the
// portable engine; each leg returns false, touching nothing, when the
// binary lacks it (its TU built as a stub) or the CPU lacks its
// instructions.  Shapes are the caller's to check; the public entry
// points (the blocked table's gemm, lu_nopivot_unblocked) do.
namespace detail {
/// AVX2 leg of the blocked GEMM, defined in local_kernels_x86.cpp
/// (compiled with -mavx2 -mfma when the toolchain supports it): the
/// shared engine with the 6x8 FMA micro-kernel.  Its rounding differs
/// from the portable engine's, so known answers hold one value per leg.
bool gemm_blocked_simd(MatrixView<double> C, ConstMatrixView<double> A,
                       ConstMatrixView<double> B, double alpha,
                       bool b_transposed);

/// AVX-512 leg, defined in local_kernels_avx512.cpp (compiled with
/// -mavx2 -mfma -mavx512f when the toolchain supports it; runs when the
/// CPU reports avx512f and fma): the AVX2 leg's engine and 6x8 kernel,
/// plus a pair kernel that takes two adjacent full 6x8 tiles per call
/// with 512-bit FMAs.  Each element keeps the 6x8 kernel's FMA chain,
/// so the result is bitwise the AVX2 leg's.
bool gemm_blocked_avx512(MatrixView<double> C, ConstMatrixView<double> A,
                         ConstMatrixView<double> B, double alpha,
                         bool b_transposed);

/// lu_nopivot_unblocked's loop (linalg/lu_nopivot_impl.hpp) built
/// with AVX-512F codegen in local_kernels_avx512.cpp, under the same
/// CPU check as the gemm leg, and with portable codegen in
/// kernels.cpp, the reference.  Bit for bit equal; a zero pivot
/// throws std::domain_error from either.
bool lu_nopivot_avx512(MatrixView<double> A);
void lu_nopivot_portable(MatrixView<double> A);
}  // namespace detail

}  // namespace wa::linalg
