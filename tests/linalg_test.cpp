// Unit tests for the dense kernels substrate.

#include <gtest/gtest.h>

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace wa::linalg {
namespace {

TEST(Matrix, BasicAccessAndViews) {
  Matrix<double> m(3, 4);
  m(1, 2) = 7.5;
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  auto v = m.block(1, 1, 2, 3);
  EXPECT_DOUBLE_EQ(v(0, 1), 7.5);
  v(1, 2) = -1.0;
  EXPECT_DOUBLE_EQ(m(2, 3), -1.0);
}

TEST(Matrix, ConstViewWidening) {
  Matrix<double> m(2, 2, 1.0);
  MatrixView<double> mv = m.view();
  ConstMatrixView<double> cv = mv;  // implicit widening
  EXPECT_DOUBLE_EQ(cv(1, 1), 1.0);
}

TEST(Matrix, MaxAbsDiffThrowsOnShapeMismatch) {
  Matrix<double> a(2, 2), b(2, 3);
  EXPECT_THROW(max_abs_diff(a, b), std::invalid_argument);
}

TEST(Gemm, MatchesManualTriple) {
  Matrix<double> a(3, 4), b(4, 5), c(3, 5, 0.0), ref(3, 5, 0.0);
  fill_random(a, 1);
  fill_random(b, 2);
  gemm_acc(c.view(), a.view(), b.view());
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      for (std::size_t k = 0; k < 4; ++k) ref(i, j) += a(i, k) * b(k, j);
  EXPECT_LT(max_abs_diff(c, ref), 1e-13);
}

TEST(Gemm, AccumulatesWithAlpha) {
  Matrix<double> a(2, 2, 1.0), b(2, 2, 1.0), c(2, 2, 5.0);
  gemm_acc(c.view(), a.view(), b.view(), -1.0);
  EXPECT_DOUBLE_EQ(c(0, 0), 3.0);  // 5 - 2
}

TEST(GemmBt, MatchesExplicitTranspose) {
  Matrix<double> a(3, 4), b(5, 4), c(3, 5, 0.0), ref(3, 5, 0.0);
  fill_random(a, 3);
  fill_random(b, 4);
  gemm_acc_bt(c.view(), a.view(), b.view());
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j)
      for (std::size_t k = 0; k < 4; ++k) ref(i, j) += a(i, k) * b(j, k);
  EXPECT_LT(max_abs_diff(c, ref), 1e-13);
}

TEST(Trsm, LeftUpperSolvesSystem) {
  const std::size_t n = 8, m = 5;
  auto t = random_upper_triangular(n, 7);
  Matrix<double> x(n, m);
  fill_random(x, 8);
  Matrix<double> b(n, m, 0.0);
  gemm_acc(b.view(), t.view(), x.view());
  trsm_left_upper(t.view(), b.view());
  EXPECT_LT(max_abs_diff(b, x), 1e-10);
}

TEST(Trsm, LeftLowerSolvesSystem) {
  const std::size_t n = 8, m = 3;
  Matrix<double> l(n, n);
  fill_random(l, 9);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
    l(i, i) = 3.0 + std::abs(l(i, i));
  }
  Matrix<double> x(n, m);
  fill_random(x, 10);
  Matrix<double> b(n, m, 0.0);
  gemm_acc(b.view(), l.view(), x.view());
  trsm_left_lower(l.view(), b.view());
  EXPECT_LT(max_abs_diff(b, x), 1e-10);
}

TEST(Trsm, RightLowerTransposedSolvesSystem) {
  const std::size_t n = 6, m = 4;
  Matrix<double> l(n, n);
  fill_random(l, 11);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
    l(i, i) = 3.0 + std::abs(l(i, i));
  }
  Matrix<double> x(m, n);
  fill_random(x, 12);
  // b = x * l^T
  Matrix<double> b(m, n, 0.0);
  gemm_acc_bt(b.view(), x.view(), l.view());
  trsm_right_lower_t(l.view(), b.view());
  EXPECT_LT(max_abs_diff(b, x), 1e-10);
}

TEST(Trsm, RightUpperSolvesSystem) {
  const std::size_t n = 6, m = 4;
  auto u = random_upper_triangular(n, 13);
  Matrix<double> x(m, n);
  fill_random(x, 14);
  Matrix<double> b(m, n, 0.0);
  gemm_acc(b.view(), x.view(), u.view());
  trsm_right_upper(u.view(), b.view());
  EXPECT_LT(max_abs_diff(b, x), 1e-10);
}

TEST(Cholesky, ReconstructsSpdMatrix) {
  const std::size_t n = 12;
  auto a = random_spd(n, 15);
  Matrix<double> l = a;
  cholesky_unblocked(l.view());
  // Check A = L L^T on the lower triangle.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = 0;
      for (std::size_t k = 0; k <= j; ++k) s += l(i, k) * l(j, k);
      EXPECT_NEAR(s, a(i, j), 1e-10);
    }
  }
}

TEST(Cholesky, ThrowsOnIndefinite) {
  Matrix<double> a(2, 2, 0.0);
  a(0, 0) = -1.0;
  EXPECT_THROW(cholesky_unblocked(a.view()), std::domain_error);
}

TEST(Lu, RefusesNonSquareAndZeroPivot) {
  // The shape check holds in every build: an 8 x 4 view would be read
  // past its columns otherwise.  Nothing is written before it throws.
  Matrix<double> a(8, 4);
  fill_random(a, 3);
  const Matrix<double> a0 = a;
  EXPECT_THROW(lu_nopivot_unblocked(a.view()), std::invalid_argument);
  EXPECT_EQ(max_abs_diff(a, a0), 0.0);
  Matrix<double> z(3, 3, 1.0);
  z(0, 0) = 0.0;
  EXPECT_THROW(lu_nopivot_unblocked(z.view()), std::domain_error);
}

TEST(Lu, ReconstructsMatrix) {
  const std::size_t n = 10;
  auto a = random_spd(n, 16);  // SPD => LU without pivoting is stable
  Matrix<double> lu = a;
  lu_nopivot_unblocked(lu.view());
  Matrix<double> l(n, n, 0.0), u(n, n, 0.0), prod(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    l(i, i) = 1.0;
    for (std::size_t j = 0; j < i; ++j) l(i, j) = lu(i, j);
    for (std::size_t j = i; j < n; ++j) u(i, j) = lu(i, j);
  }
  gemm_acc(prod.view(), l.view(), u.view());
  EXPECT_LT(max_abs_diff(prod, a), 1e-9);
}

TEST(Matvec, MatchesGemm) {
  const std::size_t n = 7;
  Matrix<double> a(n, n);
  fill_random(a, 17);
  std::vector<double> x(n, 0.0), y(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) x[i] = double(i) - 3.0;
  matvec(a.view(), x, y);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < n; ++j) s += a(i, j) * x[j];
    EXPECT_NEAR(y[i], s, 1e-12);
  }
}

}  // namespace
}  // namespace wa::linalg
