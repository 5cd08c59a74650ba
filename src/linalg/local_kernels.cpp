#include "linalg/local_kernels.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "linalg/kernels.hpp"
#include "linalg/local_kernels_impl.hpp"  // the portable engine copy

namespace wa::linalg {
namespace {

// Below this operand volume (m*n*k) the packing set-up of the blocked
// engine costs more than it saves; the reference loops are L1-bound
// there anyway.  Same threshold on every path so a given shape always
// takes the same summation order.
constexpr std::size_t kSmallGemm = 8192;

std::string shape(std::size_t rows, std::size_t cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

// No leg below checks shapes in a Release build (the views' bounds
// are asserts), so a mismatch is refused here, in every build.
void gemm_dispatch(MatrixView<double> C, ConstMatrixView<double> A,
                   ConstMatrixView<double> B, double alpha,
                   bool b_transposed) {
  const std::size_t b_inner = b_transposed ? B.cols() : B.rows();
  const std::size_t b_outer = b_transposed ? B.rows() : B.cols();
  if (C.rows() != A.rows() || A.cols() != b_inner || C.cols() != b_outer) {
    throw std::invalid_argument(
        std::string(b_transposed ? "gemm_acc_bt" : "gemm_acc") +
        ": C is " + shape(C.rows(), C.cols()) + ", A " +
        shape(A.rows(), A.cols()) + ", B " + shape(B.rows(), B.cols()));
  }
  if (C.rows() * C.cols() * A.cols() < kSmallGemm) {
    if (b_transposed) {
      gemm_acc_bt(C, A, B, alpha);
    } else {
      gemm_acc(C, A, B, alpha);
    }
    return;
  }
  if (detail::gemm_blocked_avx512(C, A, B, alpha, b_transposed)) return;
  if (detail::gemm_blocked_simd(C, A, B, alpha, b_transposed)) return;
  lk_engine::gemm_blocked<4, 8>(C, A, B, alpha, b_transposed,
                                &lk_engine::generic_micro<4, 8>);
}

void gemm_acc_blocked(MatrixView<double> C, ConstMatrixView<double> A,
                      ConstMatrixView<double> B, double alpha) {
  gemm_dispatch(C, A, B, alpha, false);
}

void gemm_acc_bt_blocked(MatrixView<double> C, ConstMatrixView<double> A,
                         ConstMatrixView<double> B, double alpha) {
  gemm_dispatch(C, A, B, alpha, true);
}

// ---- register-tiled diagonal solves -------------------------------------
//
// The left-lower and right-upper solves of width <= kTriBlock, and the
// diagonal blocks of wider ones.  A tile holds MR x NR outputs in
// registers, so one load of a solved row of B (left side) or of a row
// of U (right side) feeds several outputs.  Each output still takes
// the reference loop's steps (kernels.cpp): start from B, subtract each
// product in ascending k, divide by the diagonal unless it is unit.
// With every product rounded on its own (-ffp-contract=off) the
// results are bitwise the reference loops'.  Ragged edges run the same
// tile one row or one column wide.
//
// The operand that varies across a tile's rows is packed k-major first
// (L's rows on the left, the solved X of the tile's rows on the right),
// so the compiler vectorizes across the tile instead of along k.  The
// tile shapes were chosen by measurement on 32- and 64-wide solves at
// the default -march and at x86-64-v3; the right side keeps its
// accumulators column by column, one vector of 8 rows each.

constexpr std::size_t kLeftMR = 2, kLeftNR = 8;
constexpr std::size_t kRightMR = 8, kRightNR = 2;

/// Rows [i0, i0 + MR) x columns [j0, j0 + NR) of L X = B, with every
/// row above i0 already solved in place; lp[k * MR + r] = L(i0 + r, k).
template <std::size_t MR, std::size_t NR>
void left_lower_tile(ConstMatrixView<double> L, const double* lp,
                     MatrixView<double> B, std::size_t i0, std::size_t j0,
                     bool unit) {
  double acc[MR][NR] = {};
  for (std::size_t r = 0; r < MR; ++r) {
    for (std::size_t q = 0; q < NR; ++q) acc[r][q] = B(i0 + r, j0 + q);
  }
  for (std::size_t k = 0; k < i0; ++k) {
    for (std::size_t r = 0; r < MR; ++r) {
      for (std::size_t q = 0; q < NR; ++q) {
        acc[r][q] -= lp[k * MR + r] * B(k, j0 + q);
      }
    }
  }
  // The tile's own triangle: row r takes the tile rows above it once
  // they are finished.
  for (std::size_t r = 0; r < MR; ++r) {
    for (std::size_t k = 0; k < r; ++k) {
      const double l = L(i0 + r, i0 + k);
      for (std::size_t q = 0; q < NR; ++q) acc[r][q] -= l * acc[k][q];
    }
    if (!unit) {
      const double d = L(i0 + r, i0 + r);
      for (std::size_t q = 0; q < NR; ++q) acc[r][q] /= d;
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    for (std::size_t q = 0; q < NR; ++q) B(i0 + r, j0 + q) = acc[r][q];
  }
}

/// Rows [i0, i0 + MR) of L X = B, every column.
template <std::size_t MR>
void left_lower_rows(ConstMatrixView<double> L, MatrixView<double> B,
                     std::size_t i0, bool unit) {
  double lp[MR * kTriBlock];
  for (std::size_t k = 0; k < i0; ++k) {
    for (std::size_t r = 0; r < MR; ++r) lp[k * MR + r] = L(i0 + r, k);
  }
  const std::size_t nrhs = B.cols();
  std::size_t j0 = 0;
  for (; j0 + kLeftNR <= nrhs; j0 += kLeftNR) {
    left_lower_tile<MR, kLeftNR>(L, lp, B, i0, j0, unit);
  }
  for (; j0 < nrhs; ++j0) left_lower_tile<MR, 1>(L, lp, B, i0, j0, unit);
}

void left_lower_diag(ConstMatrixView<double> L, MatrixView<double> B,
                     bool unit) {
  assert(L.rows() == L.cols() && L.rows() == B.rows() &&
         L.rows() <= kTriBlock);
  const std::size_t n = L.rows();
  std::size_t i0 = 0;
  for (; i0 + kLeftMR <= n; i0 += kLeftMR) {
    left_lower_rows<kLeftMR>(L, B, i0, unit);
  }
  for (; i0 < n; ++i0) left_lower_rows<1>(L, B, i0, unit);
}

/// Rows [i0, i0 + MR) x columns [j0, j0 + NR) of X U = B, with every
/// column left of j0 already solved; xp[k * MR + r] = X(i0 + r, k),
/// and the tile appends its own columns to it.
template <std::size_t MR, std::size_t NR>
void right_upper_tile(ConstMatrixView<double> U, MatrixView<double> B,
                      std::size_t i0, std::size_t j0, double* xp) {
  double acc[NR][MR] = {};
  for (std::size_t q = 0; q < NR; ++q) {
    for (std::size_t r = 0; r < MR; ++r) acc[q][r] = B(i0 + r, j0 + q);
  }
  for (std::size_t k = 0; k < j0; ++k) {
    for (std::size_t q = 0; q < NR; ++q) {
      const double u = U(k, j0 + q);
      for (std::size_t r = 0; r < MR; ++r) acc[q][r] -= xp[k * MR + r] * u;
    }
  }
  // The tile's own triangle: column q takes the tile columns left of
  // it once they are finished.
  for (std::size_t q = 0; q < NR; ++q) {
    for (std::size_t k = 0; k < q; ++k) {
      const double u = U(j0 + k, j0 + q);
      for (std::size_t r = 0; r < MR; ++r) acc[q][r] -= acc[k][r] * u;
    }
    const double d = U(j0 + q, j0 + q);
    for (std::size_t r = 0; r < MR; ++r) acc[q][r] /= d;
  }
  for (std::size_t q = 0; q < NR; ++q) {
    for (std::size_t r = 0; r < MR; ++r) {
      B(i0 + r, j0 + q) = acc[q][r];
      xp[(j0 + q) * MR + r] = acc[q][r];
    }
  }
}

/// Rows [i0, i0 + MR) of X U = B, left to right.
template <std::size_t MR>
void right_upper_rows(ConstMatrixView<double> U, MatrixView<double> B,
                      std::size_t i0) {
  double xp[MR * kTriBlock];
  const std::size_t n = U.rows();
  std::size_t j0 = 0;
  for (; j0 + kRightNR <= n; j0 += kRightNR) {
    right_upper_tile<MR, kRightNR>(U, B, i0, j0, xp);
  }
  for (; j0 < n; ++j0) right_upper_tile<MR, 1>(U, B, i0, j0, xp);
}

void right_upper_diag(ConstMatrixView<double> U, MatrixView<double> B) {
  assert(U.rows() == U.cols() && U.rows() == B.cols() &&
         U.rows() <= kTriBlock);
  const std::size_t m = B.rows();
  std::size_t i0 = 0;
  for (; i0 + kRightMR <= m; i0 += kRightMR) {
    right_upper_rows<kRightMR>(U, B, i0);
  }
  for (; i0 < m; ++i0) right_upper_rows<1>(U, B, i0);
}

// ---- blocked triangular solves ------------------------------------------
//
// Each variant peels kTriBlock-wide diagonal blocks and pushes the
// panel updates -- all the O(n^3) work -- through the blocked GEMM.
// Left-lower and right-upper solve their diagonal blocks with the
// tiled solvers above, so up to kTriBlock wide they are bitwise the
// reference loops; wider, the GEMM reorders the off-diagonal sums,
// which the parity tolerances cover.  Left-upper and right-lower-
// transposed keep the reference loops on the diagonal: back
// substitution sums the nearest, still-unsolved rows first, so a row
// block cannot share loads without reordering a sum.

void trsm_left_upper_blocked(ConstMatrixView<double> T,
                             MatrixView<double> B) {
  assert(T.rows() == T.cols() && T.rows() == B.rows());
  const std::size_t n = T.rows(), nrhs = B.cols();
  if (n <= kTriBlock) {
    trsm_left_upper(T, B);
    return;
  }
  const std::size_t nb = (n + kTriBlock - 1) / kTriBlock;
  for (std::size_t bi = nb; bi-- > 0;) {
    const std::size_t i0 = bi * kTriBlock;
    const std::size_t sz = std::min(kTriBlock, n - i0);
    const std::size_t below = n - (i0 + sz);
    if (below > 0) {
      gemm_dispatch(B.block(i0, 0, sz, nrhs), T.block(i0, i0 + sz, sz, below),
                    B.block(i0 + sz, 0, below, nrhs), -1.0, false);
    }
    trsm_left_upper(T.block(i0, i0, sz, sz), B.block(i0, 0, sz, nrhs));
  }
}

void trsm_left_lower_blocked_impl(ConstMatrixView<double> L,
                                  MatrixView<double> B, bool unit) {
  assert(L.rows() == L.cols() && L.rows() == B.rows());
  const std::size_t n = L.rows(), nrhs = B.cols();
  if (n <= kTriBlock) {
    left_lower_diag(L, B, unit);
    return;
  }
  for (std::size_t i0 = 0; i0 < n; i0 += kTriBlock) {
    const std::size_t sz = std::min(kTriBlock, n - i0);
    if (i0 > 0) {
      gemm_dispatch(B.block(i0, 0, sz, nrhs), L.block(i0, 0, sz, i0),
                    B.block(0, 0, i0, nrhs), -1.0, false);
    }
    left_lower_diag(L.block(i0, i0, sz, sz), B.block(i0, 0, sz, nrhs), unit);
  }
}

void trsm_left_lower_blocked(ConstMatrixView<double> L,
                             MatrixView<double> B) {
  trsm_left_lower_blocked_impl(L, B, false);
}

void trsm_left_unit_lower_blocked(ConstMatrixView<double> L,
                                  MatrixView<double> B) {
  trsm_left_lower_blocked_impl(L, B, true);
}

void trsm_right_lower_t_blocked(ConstMatrixView<double> L,
                                MatrixView<double> B) {
  assert(L.rows() == L.cols() && L.rows() == B.cols());
  const std::size_t n = L.rows(), m = B.rows();
  if (n <= kTriBlock) {
    trsm_right_lower_t(L, B);
    return;
  }
  for (std::size_t j0 = 0; j0 < n; j0 += kTriBlock) {
    const std::size_t sz = std::min(kTriBlock, n - j0);
    if (j0 > 0) {
      gemm_dispatch(B.block(0, j0, m, sz), B.block(0, 0, m, j0),
                    L.block(j0, 0, sz, j0), -1.0, true);
    }
    trsm_right_lower_t(L.block(j0, j0, sz, sz), B.block(0, j0, m, sz));
  }
}

void trsm_right_upper_blocked(ConstMatrixView<double> U,
                              MatrixView<double> B) {
  assert(U.rows() == U.cols() && U.rows() == B.cols());
  const std::size_t n = U.rows(), m = B.rows();
  if (n <= kTriBlock) {
    right_upper_diag(U, B);
    return;
  }
  for (std::size_t j0 = 0; j0 < n; j0 += kTriBlock) {
    const std::size_t sz = std::min(kTriBlock, n - j0);
    if (j0 > 0) {
      gemm_dispatch(B.block(0, j0, m, sz), B.block(0, 0, m, j0),
                    U.block(0, j0, j0, sz), -1.0, false);
    }
    right_upper_diag(U.block(j0, j0, sz, sz), B.block(0, j0, m, sz));
  }
}

// Panel-shaped SYRK: n small (a diagonal block or a skinny n x b
// Gram-like panel), k long.  The reference kernel walks one (i, j)
// dot product at a time, reloading L1's row per j; here four
// accumulator chains per L1 row stream the contiguous L2 rows once
// per 4-wide j group and hide the FMA latency on the long k axis.
// Summation still runs k in ascending order per entry (syrk carries
// no bitwise contract, but determinism is free).
void syrk_panel_acc(MatrixView<double> A, ConstMatrixView<double> L1,
                    ConstMatrixView<double> L2) {
  const std::size_t n = A.rows(), k = L1.cols();
  for (std::size_t i = 0; i < n; ++i) {
    const double* r1 = &L1(i, 0);
    std::size_t j = 0;
    for (; j + 4 <= i + 1; j += 4) {
      const double* w0 = &L2(j, 0);
      const double* w1 = &L2(j + 1, 0);
      const double* w2 = &L2(j + 2, 0);
      const double* w3 = &L2(j + 3, 0);
      double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double v = r1[kk];
        s0 += v * w0[kk];
        s1 += v * w1[kk];
        s2 += v * w2[kk];
        s3 += v * w3[kk];
      }
      A(i, j) -= s0;
      A(i, j + 1) -= s1;
      A(i, j + 2) -= s2;
      A(i, j + 3) -= s3;
    }
    for (; j <= i; ++j) {
      const double* wj = &L2(j, 0);
      double s = 0;
      for (std::size_t kk = 0; kk < k; ++kk) s += r1[kk] * wj[kk];
      A(i, j) -= s;
    }
  }
}

// Small-n dispatch shared by the panel case and the diagonal blocks
// of the big-n path: the reference loops win only when the whole
// operand volume is tiny; past the kSmallGemm volume the long k axis
// pays for the panel kernel's accumulator chains.
void syrk_small(MatrixView<double> A, ConstMatrixView<double> L1,
                ConstMatrixView<double> L2) {
  const std::size_t n = A.rows(), k = L1.cols();
  if (n * n * k < kSmallGemm) {
    syrk_lower_acc(A, L1, L2);
    return;
  }
  syrk_panel_acc(A, L1, L2);
}

void syrk_lower_acc_blocked(MatrixView<double> A, ConstMatrixView<double> L1,
                            ConstMatrixView<double> L2) {
  assert(A.rows() == A.cols() && L1.rows() == A.rows() &&
         L2.rows() == A.rows() && L1.cols() == L2.cols());
  const std::size_t n = A.rows(), k = L1.cols();
  if (n <= kTriBlock) {
    syrk_small(A, L1, L2);
    return;
  }
  for (std::size_t i0 = 0; i0 < n; i0 += kTriBlock) {
    const std::size_t sz = std::min(kTriBlock, n - i0);
    if (i0 > 0) {
      // The strictly-lower block row is a full rectangle: blocked GEMM.
      gemm_dispatch(A.block(i0, 0, sz, i0), L1.block(i0, 0, sz, k),
                    L2.block(0, 0, i0, k), -1.0, true);
    }
    syrk_small(A.block(i0, i0, sz, sz), L1.block(i0, 0, sz, k),
               L2.block(i0, 0, sz, k));
  }
}

// ---- Gram kernels --------------------------------------------------------
//
// Both implementations accumulate every G(a, c) entry as one serial
// chain in ascending i (see the contract in local_kernels.hpp), so
// they are bitwise-identical to each other and invariant under call
// splitting; the blocked one only improves locality and ILP.

void gram_upper_acc_naive(double* g, std::size_t m,
                          const double* const* cols, std::size_t lo,
                          std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    for (std::size_t a = 0; a < m; ++a) {
      for (std::size_t c = a; c < m; ++c) {
        g[a * m + c] += cols[a][i] * cols[c][i];
      }
    }
  }
}

void gram_upper_acc_blocked(double* g, std::size_t m,
                            const double* const* cols, std::size_t lo,
                            std::size_t hi) {
  // L1-sized column chunks; within a chunk, four independent
  // accumulator chains per pivot column a amortize the load of
  // cols[a][i] and hide the add latency.  Each chain still visits i
  // in ascending order, preserving the bitwise contract.
  constexpr std::size_t kChunk = 1024;
  for (std::size_t i0 = lo; i0 < hi; i0 += kChunk) {
    const std::size_t i1 = std::min(hi, i0 + kChunk);
    for (std::size_t a = 0; a < m; ++a) {
      const double* wa = cols[a];
      double* grow = g + a * m;
      std::size_t c = a;
      for (; c + 4 <= m; c += 4) {
        const double* w0 = cols[c];
        const double* w1 = cols[c + 1];
        const double* w2 = cols[c + 2];
        const double* w3 = cols[c + 3];
        double g0 = grow[c], g1 = grow[c + 1];
        double g2 = grow[c + 2], g3 = grow[c + 3];
        for (std::size_t i = i0; i < i1; ++i) {
          const double v = wa[i];
          g0 += v * w0[i];
          g1 += v * w1[i];
          g2 += v * w2[i];
          g3 += v * w3[i];
        }
        grow[c] = g0;
        grow[c + 1] = g1;
        grow[c + 2] = g2;
        grow[c + 3] = g3;
      }
      for (; c < m; ++c) {
        const double* wc = cols[c];
        double gg = grow[c];
        for (std::size_t i = i0; i < i1; ++i) gg += wa[i] * wc[i];
        grow[c] = gg;
      }
    }
  }
}

// ---- the tables ----------------------------------------------------------

constexpr LocalKernels kNaiveTable = {
    KernelImpl::kNaive,
    "naive",
    &gemm_acc,
    &gemm_acc_bt,
    &trsm_left_upper,
    &trsm_left_lower,
    &trsm_left_unit_lower,
    &trsm_right_lower_t,
    &trsm_right_upper,
    &syrk_lower_acc,
    &gram_upper_acc_naive,
};

constexpr LocalKernels kBlockedTable = {
    KernelImpl::kBlocked,
    "blocked",
    &gemm_acc_blocked,
    &gemm_acc_bt_blocked,
    &trsm_left_upper_blocked,
    &trsm_left_lower_blocked,
    &trsm_left_unit_lower_blocked,
    &trsm_right_lower_t_blocked,
    &trsm_right_upper_blocked,
    &syrk_lower_acc_blocked,
    &gram_upper_acc_blocked,
};

std::atomic<const LocalKernels*> g_active{nullptr};

}  // namespace

const LocalKernels& naive_kernels() { return kNaiveTable; }
const LocalKernels& blocked_kernels() { return kBlockedTable; }

const LocalKernels& kernels(KernelImpl impl) {
  return impl == KernelImpl::kNaive ? kNaiveTable : kBlockedTable;
}

KernelImpl kernels_from_env() {
  const char* s = std::getenv("WA_KERNELS");
  if (s == nullptr || *s == '\0') return KernelImpl::kBlocked;
  const std::string v(s);
  if (v == "naive") return KernelImpl::kNaive;
  if (v == "blocked") return KernelImpl::kBlocked;
  throw std::invalid_argument(
      "kernels_from_env: WA_KERNELS must be naive|blocked, got '" + v + "'");
}

const LocalKernels& active_kernels() {
  const LocalKernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    // First use: resolve WA_KERNELS.  A racing second thread resolves
    // the same env, so the exchange can only install the same table.
    const LocalKernels* want = &kernels(kernels_from_env());
    g_active.store(want, std::memory_order_release);
    k = want;
  }
  return *k;
}

KernelImpl set_active_kernels(KernelImpl impl) {
  const KernelImpl prev = active_kernels().impl;
  g_active.store(&kernels(impl), std::memory_order_release);
  return prev;
}

}  // namespace wa::linalg
