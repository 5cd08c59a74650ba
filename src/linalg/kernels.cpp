#include "linalg/kernels.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "linalg/local_kernels.hpp"  // detail::lu_nopivot_*
#include "linalg/lu_nopivot_impl.hpp"

namespace wa::linalg {

void gemm_acc(MatrixView<double> C, ConstMatrixView<double> A,
              ConstMatrixView<double> B, double alpha) {
  assert(C.rows() == A.rows() && A.cols() == B.rows() &&
         C.cols() == B.cols());
  for (std::size_t i = 0; i < C.rows(); ++i) {
    for (std::size_t k = 0; k < A.cols(); ++k) {
      const double aik = alpha * A(i, k);
      for (std::size_t j = 0; j < C.cols(); ++j) {
        C(i, j) += aik * B(k, j);
      }
    }
  }
}

void gemm_acc_bt(MatrixView<double> C, ConstMatrixView<double> A,
                 ConstMatrixView<double> B, double alpha) {
  assert(C.rows() == A.rows() && A.cols() == B.cols() &&
         C.cols() == B.rows());
  for (std::size_t i = 0; i < C.rows(); ++i) {
    for (std::size_t j = 0; j < C.cols(); ++j) {
      double s = 0;
      for (std::size_t k = 0; k < A.cols(); ++k) s += A(i, k) * B(j, k);
      C(i, j) += alpha * s;
    }
  }
}

void trsm_left_upper(ConstMatrixView<double> T, MatrixView<double> B) {
  assert(T.rows() == T.cols() && T.rows() == B.rows());
  const std::size_t n = T.rows();
  for (std::size_t j = 0; j < B.cols(); ++j) {
    for (std::size_t ii = n; ii-- > 0;) {
      double s = B(ii, j);
      for (std::size_t k = ii + 1; k < n; ++k) s -= T(ii, k) * B(k, j);
      B(ii, j) = s / T(ii, ii);
    }
  }
}

void trsm_left_lower(ConstMatrixView<double> L, MatrixView<double> B) {
  assert(L.rows() == L.cols() && L.rows() == B.rows());
  const std::size_t n = L.rows();
  for (std::size_t j = 0; j < B.cols(); ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double s = B(i, j);
      for (std::size_t k = 0; k < i; ++k) s -= L(i, k) * B(k, j);
      B(i, j) = s / L(i, i);
    }
  }
}

void trsm_left_unit_lower(ConstMatrixView<double> L, MatrixView<double> B) {
  assert(L.rows() == L.cols() && L.rows() == B.rows());
  const std::size_t n = L.rows();
  for (std::size_t j = 0; j < B.cols(); ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      double s = B(i, j);
      for (std::size_t k = 0; k < i; ++k) s -= L(i, k) * B(k, j);
      B(i, j) = s;  // unit diagonal: no division
    }
  }
}

void trsm_right_lower_t(ConstMatrixView<double> L, MatrixView<double> B) {
  // Solve X * L^T = B.  Row i of X satisfies: for each column j,
  // sum_k X(i,k) * L(j,k) = B(i,j); forward-substitute over j.
  assert(L.rows() == L.cols() && L.rows() == B.cols());
  const std::size_t n = L.rows();
  for (std::size_t i = 0; i < B.rows(); ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = B(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= B(i, k) * L(j, k);
      B(i, j) = s / L(j, j);
    }
  }
}

void trsm_right_upper(ConstMatrixView<double> U, MatrixView<double> B) {
  // Solve X * U = B: for each row i, forward-substitute over columns.
  assert(U.rows() == U.cols() && U.rows() == B.cols());
  const std::size_t n = U.rows();
  for (std::size_t i = 0; i < B.rows(); ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = B(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= B(i, k) * U(k, j);
      B(i, j) = s / U(j, j);
    }
  }
}

void syrk_lower_acc(MatrixView<double> A, ConstMatrixView<double> L1,
                    ConstMatrixView<double> L2) {
  assert(A.rows() == A.cols() && L1.rows() == A.rows() &&
         L2.rows() == A.rows() && L1.cols() == L2.cols());
  for (std::size_t i = 0; i < A.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = 0;
      for (std::size_t k = 0; k < L1.cols(); ++k) s += L1(i, k) * L2(j, k);
      A(i, j) -= s;
    }
  }
}

void cholesky_unblocked(MatrixView<double> A) {
  assert(A.rows() == A.cols());
  const std::size_t n = A.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double d = A(j, j);
    for (std::size_t k = 0; k < j; ++k) d -= A(j, k) * A(j, k);
    if (d <= 0.0) throw std::domain_error("cholesky: non-positive pivot");
    const double ljj = std::sqrt(d);
    A(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = A(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= A(i, k) * A(j, k);
      A(i, j) = s / ljj;
    }
  }
}

void lu_nopivot_unblocked(MatrixView<double> A) {
  if (A.rows() != A.cols()) {
    throw std::invalid_argument("lu_nopivot_unblocked: A is " +
                                std::to_string(A.rows()) + "x" +
                                std::to_string(A.cols()) +
                                ", not square");
  }
  if (detail::lu_nopivot_avx512(A)) return;
  detail::lu_nopivot_portable(A);
}

void detail::lu_nopivot_portable(MatrixView<double> A) {
  lu_impl::lu_nopivot(A);
}

void matvec(ConstMatrixView<double> A, std::span<const double> x,
            std::span<double> y) {
  assert(x.size() == A.cols() && y.size() == A.rows());
  for (std::size_t i = 0; i < A.rows(); ++i) {
    double s = 0;
    for (std::size_t j = 0; j < A.cols(); ++j) s += A(i, j) * x[j];
    y[i] = s;
  }
}

}  // namespace wa::linalg
