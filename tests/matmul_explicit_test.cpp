// Tests for Algorithm 1 and its loop-order siblings (Section 4.1):
// numerics, exact load/store counts, WA vs non-WA orders, capacity
// enforcement, and the multi-level induction.

#include <gtest/gtest.h>

#include "bounds/bounds.hpp"
#include "core/matmul_explicit.hpp"
#include "linalg/matrix.hpp"

namespace wa::core {
namespace {

using linalg::Matrix;
using memsim::Hierarchy;

Matrix<double> reference_product(const Matrix<double>& a,
                                 const Matrix<double>& b) {
  Matrix<double> c(a.rows(), b.cols(), 0.0);
  linalg::gemm_acc(c.view(), a.view(), b.view());
  return c;
}

struct OrderCase {
  LoopOrder order;
};

class MatmulAllOrders : public ::testing::TestWithParam<LoopOrder> {};

TEST_P(MatmulAllOrders, NumericallyCorrectForEveryOrder) {
  const std::size_t m = 24, n = 16, l = 20, b = 4;
  Matrix<double> a(m, n), bm(n, l), c(m, l, 0.0);
  linalg::fill_random(a, 1);
  linalg::fill_random(bm, 2);
  Hierarchy h({3 * b * b, Hierarchy::kUnbounded});
  blocked_matmul_explicit(c.view(), a.view(), bm.view(), b, h, GetParam());
  EXPECT_LT(max_abs_diff(c, reference_product(a, bm)), 1e-12);
}

TEST_P(MatmulAllOrders, OnlyContractionInnermostIsWriteAvoiding) {
  const std::size_t m = 24, n = 24, l = 24, b = 4;
  Matrix<double> a(m, n), bm(n, l), c(m, l, 0.0);
  linalg::fill_random(a, 3);
  linalg::fill_random(bm, 4);
  Hierarchy h({3 * b * b, Hierarchy::kUnbounded});
  blocked_matmul_explicit(c.view(), a.view(), bm.view(), b, h, GetParam());
  const std::uint64_t output = m * l;
  if (contraction_innermost(GetParam())) {
    EXPECT_EQ(h.stores_words(0), output);
  } else {
    // C blocks are evicted once per contraction step: n/b times more.
    EXPECT_EQ(h.stores_words(0), output * (n / b));
  }
}

INSTANTIATE_TEST_SUITE_P(Orders, MatmulAllOrders,
                         ::testing::ValuesIn(kAllLoopOrders),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(Algorithm1, ExactLoadStoreCounts) {
  const std::size_t m = 16, n = 24, l = 32, b = 4;
  Matrix<double> a(m, n), bm(n, l), c(m, l, 0.0);
  linalg::fill_random(a, 5);
  linalg::fill_random(bm, 6);
  Hierarchy h({3 * b * b, Hierarchy::kUnbounded});
  blocked_matmul_explicit(c.view(), a.view(), bm.view(), b, h,
                          LoopOrder::kIJK);
  const auto exp = algorithm1_expected_counts(m, n, l, b);
  EXPECT_EQ(h.loads_words(0), exp.loads);    // ml + 2mnl/b
  EXPECT_EQ(h.stores_words(0), exp.stores);  // ml
  EXPECT_EQ(h.flops(), 2ull * m * n * l);
}

TEST(Algorithm1, AttainsCommunicationLowerBoundWithinConstant) {
  const std::size_t m = 32, n = 32, l = 32, b = 4;
  const std::size_t M = 3 * b * b;
  Matrix<double> a(m, n), bm(n, l), c(m, l, 0.0);
  Hierarchy h({M, Hierarchy::kUnbounded});
  blocked_matmul_explicit(c.view(), a.view(), bm.view(), b, h,
                          LoopOrder::kIJK);
  const double lb = bounds::matmul_traffic_lb(m, n, l, M);
  const double traffic = double(h.traffic(0));
  EXPECT_GE(traffic, lb * 0.5);  // cannot beat the bound (mod constants)
  EXPECT_LE(traffic, lb * 8.0);  // attains it within a small constant
}

TEST(Algorithm1, CapacityViolationDetected) {
  // A block size too large for fast memory must trip the simulator.
  const std::size_t b = 8;
  Matrix<double> a(16, 16), bm(16, 16), c(16, 16, 0.0);
  Hierarchy h({2 * b * b, Hierarchy::kUnbounded});  // only 2 blocks fit
  EXPECT_THROW(blocked_matmul_explicit(c.view(), a.view(), bm.view(), b, h,
                                       LoopOrder::kIJK),
               memsim::CapacityError);
}

TEST(Algorithm1, HandlesNonDivisibleEdges) {
  const std::size_t m = 19, n = 13, l = 17, b = 4;
  Matrix<double> a(m, n), bm(n, l), c(m, l, 0.0);
  linalg::fill_random(a, 7);
  linalg::fill_random(bm, 8);
  Hierarchy h({3 * b * b, Hierarchy::kUnbounded});
  blocked_matmul_explicit(c.view(), a.view(), bm.view(), b, h,
                          LoopOrder::kIJK);
  EXPECT_LT(max_abs_diff(c, reference_product(a, bm)), 1e-12);
  EXPECT_EQ(h.stores_words(0), std::uint64_t(m) * l);
}

TEST(Algorithm1, WritesMatchOutputSizeForRectangular) {
  const std::size_t m = 8, n = 40, l = 12, b = 4;
  Matrix<double> a(m, n), bm(n, l), c(m, l, 0.0);
  Hierarchy h({3 * b * b, Hierarchy::kUnbounded});
  blocked_matmul_explicit(c.view(), a.view(), bm.view(), b, h,
                          LoopOrder::kIJK);
  EXPECT_EQ(h.stores_words(0), bounds::min_slow_writes(m * l));
}

TEST(NaiveDot, MinimalWritesButQuadraticallyMoreReads) {
  const std::size_t n = 12;
  Matrix<double> a(n, n), bm(n, n), c(n, n, 0.0);
  linalg::fill_random(a, 9);
  linalg::fill_random(bm, 10);
  Hierarchy h({8, Hierarchy::kUnbounded});
  naive_dot_matmul_explicit(c.view(), a.view(), bm.view(), h);
  EXPECT_LT(max_abs_diff(c, reference_product(a, bm)), 1e-12);
  EXPECT_EQ(h.stores_words(0), n * n);            // writes = output
  EXPECT_EQ(h.loads_words(0), 2ull * n * n * n);  // reads maximal: not CA
}

// ---- multi-level (Section 4.1 induction) ------------------------------

TEST(Multilevel, NumericallyCorrectThreeLevels) {
  const std::size_t n = 32;
  Matrix<double> a(n, n), bm(n, n), c(n, n, 0.0);
  linalg::fill_random(a, 11);
  linalg::fill_random(bm, 12);
  const std::size_t bs[] = {4, 8};
  const LoopOrder ord[] = {LoopOrder::kIJK, LoopOrder::kIJK};
  Hierarchy h({3 * 4 * 4, 3 * 8 * 8, Hierarchy::kUnbounded});
  blocked_matmul_multilevel_explicit(c.view(), a.view(), bm.view(), bs, ord,
                                     h);
  EXPECT_LT(max_abs_diff(c, reference_product(a, bm)), 1e-12);
}

TEST(Multilevel, WaOrderIsWriteAvoidingAtEveryLevel) {
  const std::size_t n = 32;
  Matrix<double> a(n, n), bm(n, n), c(n, n, 0.0);
  const std::size_t bs[] = {4, 8};
  const LoopOrder ord[] = {LoopOrder::kIJK, LoopOrder::kIJK};
  Hierarchy h({3 * 4 * 4, 3 * 8 * 8, Hierarchy::kUnbounded});
  blocked_matmul_multilevel_explicit(c.view(), a.view(), bm.view(), bs, ord,
                                     h);
  // Writes to the slowest level = output size.
  EXPECT_EQ(h.stores_words(1), n * n);
  // Writes to L2 from L1 are within a constant of n^3/b1 (paper's
  // induction: mnl / sqrt(M1/3)).
  const double expect_l1_stores = double(n) * n * n / 4.0;
  EXPECT_LE(double(h.stores_words(0)), expect_l1_stores);
  // Writes to L1 attain Theta(n^3 / b0).
  EXPECT_NEAR(double(h.loads_words(0)), 2.0 * n * n * n / 4.0 + n * n * n / 8,
              double(n) * n);
}

TEST(Multilevel, SlabOrderLosesWriteAvoidanceBelowTopLevel) {
  const std::size_t n = 32;
  Matrix<double> a(n, n), bm(n, n), c(n, n, 0.0);
  const std::size_t bs[] = {4, 8};
  const LoopOrder wa_ord[] = {LoopOrder::kIJK,
                               LoopOrder::kIJK};
  const LoopOrder slab_ord[] = {LoopOrder::kKIJ, LoopOrder::kIJK};
  Hierarchy h_wa({3 * 4 * 4, 3 * 8 * 8, Hierarchy::kUnbounded});
  Hierarchy h_slab({3 * 4 * 4, 3 * 8 * 8, Hierarchy::kUnbounded});
  blocked_matmul_multilevel_explicit(c.view(), a.view(), bm.view(), bs,
                                     wa_ord, h_wa);
  Matrix<double> c2(n, n, 0.0);
  blocked_matmul_multilevel_explicit(c2.view(), a.view(), bm.view(), bs,
                                     slab_ord, h_slab);
  // Slab order at the inner level rewrites L1-level C blocks per
  // contraction step: strictly more stores from L1.
  EXPECT_GT(h_slab.stores_words(0), h_wa.stores_words(0));
  // Top-level (L2 -> slow) writes stay at the output size for both,
  // because the top level is C-resident in both configurations.
  EXPECT_EQ(h_wa.stores_words(1), n * n);
  EXPECT_EQ(h_slab.stores_words(1), n * n);
}

TEST(Multilevel, ValidatesArguments) {
  Matrix<double> a(8, 8), bm(8, 8), c(8, 8, 0.0);
  Hierarchy h({16, 64, Hierarchy::kUnbounded});
  const std::size_t bs_bad[] = {8, 4};  // must be nondecreasing
  const LoopOrder ord[] = {LoopOrder::kIJK, LoopOrder::kIJK};
  EXPECT_THROW(blocked_matmul_multilevel_explicit(c.view(), a.view(),
                                                  bm.view(), bs_bad, ord, h),
               std::invalid_argument);
  const std::size_t bs1[] = {4};
  EXPECT_THROW(blocked_matmul_multilevel_explicit(c.view(), a.view(),
                                                  bm.view(), bs1, ord, h),
               std::invalid_argument);
}

}  // namespace
}  // namespace wa::core
