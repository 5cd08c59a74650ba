#pragma once
// wa::linalg -- reference dense kernels.
//
// These are the in-fast-memory "micro-kernels" the blocked WA
// algorithms of Section 4 call once a block is resident: small GEMM,
// triangular solves, SYRK-style updates, unblocked Cholesky and LU.
// They are written for clarity and numerical correctness, not speed;
// only their *memory access order* matters to this library.

#include <span>

#include "linalg/matrix.hpp"

namespace wa::linalg {

/// C += alpha * A * B   (shapes: C m-by-n, A m-by-k, B k-by-n).
void gemm_acc(MatrixView<double> C, ConstMatrixView<double> A,
              ConstMatrixView<double> B, double alpha = 1.0);

/// C += alpha * A * B^T (shapes: C m-by-n, A m-by-k, B n-by-k).
void gemm_acc_bt(MatrixView<double> C, ConstMatrixView<double> A,
                 ConstMatrixView<double> B, double alpha = 1.0);

/// Solve T * X = B for X where T is upper triangular; X overwrites B.
void trsm_left_upper(ConstMatrixView<double> T, MatrixView<double> B);

/// Solve L * X = B for X where L is lower triangular; X overwrites B.
void trsm_left_lower(ConstMatrixView<double> L, MatrixView<double> B);

/// Solve L * X = B where L is *unit* lower triangular (the diagonal is
/// implicitly 1; the stored diagonal belongs to U in a packed LU).
void trsm_left_unit_lower(ConstMatrixView<double> L, MatrixView<double> B);

/// Solve X * L^T = B for X where L is lower triangular; X overwrites B.
/// (This is the TRSM used by the Cholesky panel update, Algorithm 3.)
void trsm_right_lower_t(ConstMatrixView<double> L, MatrixView<double> B);

/// Solve X * U = B for X where U is upper triangular; X overwrites B.
void trsm_right_upper(ConstMatrixView<double> U, MatrixView<double> B);

/// Lower part of A -= L1 * L2^T restricted to the lower triangle
/// (SYRK-shaped update used by Algorithm 3 on diagonal blocks).
void syrk_lower_acc(MatrixView<double> A, ConstMatrixView<double> L1,
                    ConstMatrixView<double> L2);

/// Unblocked Cholesky of the lower triangle of A (A = L L^T, L
/// overwrites the lower triangle of A).  Throws on non-positive pivot.
void cholesky_unblocked(MatrixView<double> A);

/// Unblocked LU without pivoting (L unit-lower and U overwrite A).
/// Throws std::invalid_argument unless A is square, std::domain_error
/// on a zero pivot.  On a CPU with AVX-512F it runs the 512-bit
/// instance of the same loop (detail::lu_nopivot_avx512), bit for bit
/// the portable one.
void lu_nopivot_unblocked(MatrixView<double> A);

/// y = A * x.  Spans carry the operand extents so the kernel can
/// assert them like every other kernel in this file (raw pointers
/// used to read a short x out of bounds silently in Release).
void matvec(ConstMatrixView<double> A, std::span<const double> x,
            std::span<double> y);

}  // namespace wa::linalg
