// Tests for the multi-level TRSM/Cholesky recursions (Section 4.2/4.3
// inductions made executable) and the sequential blocked LU (the
// paper's conjecture for one-sided factorizations).

#include <gtest/gtest.h>

#include "core/cholesky_explicit.hpp"
#include "core/lu_explicit.hpp"
#include "core/matmul_explicit.hpp"
#include "core/trsm_explicit.hpp"
#include "linalg/matrix.hpp"

namespace wa::core {
namespace {

using linalg::Matrix;
using memsim::Hierarchy;

Hierarchy three_level(std::size_t b0, std::size_t b1) {
  return Hierarchy({3 * b0 * b0, 3 * b1 * b1, Hierarchy::kUnbounded});
}

TEST(MatmulBt, MultilevelTransposedNumerics) {
  const std::size_t m = 16, k = 24, l = 16;
  Matrix<double> a(m, k), b(l, k), c(m, l, 0.0), ref(m, l, 0.0);
  linalg::fill_random(a, 1);
  linalg::fill_random(b, 2);
  const std::size_t bs[] = {4, 8};
  const LoopOrder ord[] = {LoopOrder::kIJK, LoopOrder::kIJK};
  auto h = three_level(4, 8);
  blocked_matmul_multilevel_explicit(c.view(), a.view(), b.view(), bs, ord,
                                     h, -1.0, /*b_transposed=*/true);
  linalg::gemm_acc_bt(ref.view(), a.view(), b.view(), -1.0);
  EXPECT_LT(max_abs_diff(c, ref), 1e-12);
}

TEST(TrsmMultilevel, NumericsMatchKernel) {
  const std::size_t n = 32;
  auto t = linalg::random_upper_triangular(n, 3);
  Matrix<double> x(n, n);
  linalg::fill_random(x, 4);
  Matrix<double> rhs(n, n, 0.0);
  linalg::gemm_acc(rhs.view(), t.view(), x.view());
  const std::size_t bs[] = {4, 8};
  auto h = three_level(4, 8);
  blocked_trsm_multilevel_explicit(t.view(), rhs.view(), bs, h);
  EXPECT_LT(max_abs_diff(rhs, x), 1e-8);
}

TEST(TrsmMultilevel, WriteAvoidingAtEveryBoundary) {
  const std::size_t n = 32;
  auto t = linalg::random_upper_triangular(n, 5);
  Matrix<double> rhs(n, n);
  linalg::fill_random(rhs, 6);
  const std::size_t bs[] = {4, 8};
  auto h = three_level(4, 8);
  blocked_trsm_multilevel_explicit(t.view(), rhs.view(), bs, h);
  // Stores to the slowest level = output size exactly.
  EXPECT_EQ(h.stores_words(1), n * n);
  // Stores at the inner boundary are Theta(n^3/b1), far below the
  // level's loads but well above the output: the induction's middle
  // regime.
  EXPECT_GT(h.stores_words(0), std::uint64_t(n) * n);
  EXPECT_LT(h.stores_words(0), h.loads_words(0));
}

TEST(TrsmMultilevel, ValidatesHierarchyDepth) {
  auto t = linalg::random_upper_triangular(8, 7);
  Matrix<double> rhs(8, 8);
  const std::size_t bs[] = {4};
  auto h = three_level(4, 8);  // 3 levels but only 1 block size
  EXPECT_THROW(blocked_trsm_multilevel_explicit(t.view(), rhs.view(), bs, h),
               std::invalid_argument);
}

TEST(TrsmRltMultilevel, NumericsMatchKernel) {
  const std::size_t n = 16, m = 24;
  Matrix<double> l(n, n);
  linalg::fill_random(l, 8);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
    l(i, i) = 3.0 + std::abs(l(i, i));
  }
  Matrix<double> x(m, n);
  linalg::fill_random(x, 9);
  Matrix<double> b(m, n, 0.0);
  linalg::gemm_acc_bt(b.view(), x.view(), l.view());
  const std::size_t bs[] = {4, 8};
  auto h = three_level(4, 8);
  blocked_trsm_rlt_multilevel_explicit(l.view(), b.view(), bs, h);
  EXPECT_LT(max_abs_diff(b, x), 1e-9);
}

TEST(CholeskyMultilevel, NumericsMatchUnblocked) {
  const std::size_t n = 32;
  auto a = linalg::random_spd(n, 10);
  auto ref = a;
  const std::size_t bs[] = {4, 8};
  auto h = three_level(4, 8);
  blocked_cholesky_multilevel_explicit(a.view(), bs, h);
  linalg::cholesky_unblocked(ref.view());
  double d = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      d = std::max(d, std::abs(a(i, j) - ref(i, j)));
    }
  }
  EXPECT_LT(d, 1e-8);
}

TEST(CholeskyMultilevel, WriteAvoidingAtSlowBoundary) {
  const std::size_t n = 32;
  auto a = linalg::random_spd(n, 11);
  const std::size_t bs[] = {4, 8};
  auto h = three_level(4, 8);
  blocked_cholesky_multilevel_explicit(a.view(), bs, h);
  // One store per output block of the top level, half blocks on the
  // diagonal: Algorithm 3's count for the top block size.
  EXPECT_EQ(h.stores_words(1), algorithm3_expected_stores(n, 8));
  EXPECT_LT(h.stores_words(1), h.loads_words(1));
}

class LuVariants : public ::testing::TestWithParam<LuVariant> {};

TEST_P(LuVariants, NumericsMatchUnblocked) {
  const std::size_t n = 32, b = 4;
  auto a = linalg::random_spd(n, 12);
  auto ref = a;
  Hierarchy h({3 * b * b, Hierarchy::kUnbounded});
  blocked_lu_explicit(a.view(), b, h, GetParam());
  linalg::lu_nopivot_unblocked(ref.view());
  EXPECT_LT(max_abs_diff(a, ref), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Variants, LuVariants,
                         ::testing::Values(LuVariant::kLeftLookingWA,
                                           LuVariant::kRightLooking),
                         [](const auto& info) {
                           return info.param == LuVariant::kLeftLookingWA
                                      ? "LeftLookingWA"
                                      : "RightLooking";
                         });

TEST(LuExplicit, LeftLookingWritesOutputOnce) {
  const std::size_t n = 32, b = 4;
  auto a = linalg::random_spd(n, 13);
  Hierarchy h({3 * b * b, Hierarchy::kUnbounded});
  blocked_lu_explicit(a.view(), b, h, LuVariant::kLeftLookingWA);
  EXPECT_EQ(h.stores_words(0), n * n);
}

TEST(LuExplicit, RightLookingWritesAsymptoticallyMore) {
  const std::size_t n = 32, b = 4;
  auto a1 = linalg::random_spd(n, 14);
  auto a2 = a1;
  Hierarchy hl({3 * b * b, Hierarchy::kUnbounded});
  Hierarchy hr({3 * b * b, Hierarchy::kUnbounded});
  blocked_lu_explicit(a1.view(), b, hl, LuVariant::kLeftLookingWA);
  blocked_lu_explicit(a2.view(), b, hr, LuVariant::kRightLooking);
  EXPECT_LT(max_abs_diff(a1, a2), 1e-8);
  EXPECT_GT(hr.stores_words(0), 2 * hl.stores_words(0));
  // Both variants are CA: loads within a small factor.
  EXPECT_LT(double(hr.traffic(0)), 2.0 * double(hl.traffic(0)));
}

TEST(LuExplicit, FlopsMatchTwoThirdsN3) {
  const std::size_t n = 64, b = 8;
  auto a = linalg::random_spd(n, 15);
  Hierarchy h({3 * b * b, Hierarchy::kUnbounded});
  blocked_lu_explicit(a.view(), b, h, LuVariant::kLeftLookingWA);
  EXPECT_NEAR(double(h.flops()), 2.0 / 3.0 * double(n) * n * n,
              0.7 * double(n) * n * b);
}

}  // namespace
}  // namespace wa::core
