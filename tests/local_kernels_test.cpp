// The LocalKernels seam (linalg/local_kernels.hpp): naive/blocked
// numeric parity on ragged shapes, strided sub-views, and alpha != 1;
// shape checks that hold in every build; the AVX-512 gemm leg and
// factor bitwise the AVX2 leg and the portable factor;
// the bitwise Gram contract (blocked == naive, call-split invariant);
// WA_KERNELS selection; and the seam's central invariant -- switching
// kernel implementations changes not a single simulator counter on
// any distributed algorithm, and the threaded backend stays
// bitwise-identical to serial under the blocked kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/backend.hpp"
#include "dist/krylov.hpp"
#include "dist/lu.hpp"
#include "dist/machine.hpp"
#include "dist/summa.hpp"
#include "dist/transport.hpp"
#include "krylov/cacg.hpp"
#include "linalg/kernels.hpp"
#include "linalg/local_kernels.hpp"
#include "linalg/matrix.hpp"
#include "sparse/csr.hpp"

namespace wa {
namespace {

using krylov::CaCgMode;
using krylov::CaCgOptions;

/// Restores the process-wide active kernel table on scope exit, so a
/// failing test cannot leak its choice into later suites.
class KernelGuard {
 public:
  explicit KernelGuard(linalg::KernelImpl impl)
      : prev_(linalg::set_active_kernels(impl)) {}
  ~KernelGuard() { linalg::set_active_kernels(prev_); }
  KernelGuard(const KernelGuard&) = delete;
  KernelGuard& operator=(const KernelGuard&) = delete;

 private:
  linalg::KernelImpl prev_;
};

// ---- dense parity: blocked vs naive --------------------------------------

TEST(LocalKernels, GemmParityOnRaggedShapes) {
  const auto& nk = linalg::naive_kernels();
  const auto& bk = linalg::blocked_kernels();
  const struct {
    std::size_t m, n, k;
  } shapes[] = {{1, 1, 1},   {7, 5, 3},     {64, 64, 64},
                {65, 63, 66}, {96, 128, 96}, {317, 200, 129}};
  for (const auto& sh : shapes) {
    for (const double alpha : {1.0, -0.7}) {
      linalg::Matrix<double> a(sh.m, sh.k), b(sh.k, sh.n);
      linalg::fill_random(a, 1);
      linalg::fill_random(b, 2);
      linalg::Matrix<double> c0(sh.m, sh.n), c1(sh.m, sh.n);
      linalg::fill_random(c0, 3);
      c1 = c0;
      nk.gemm_acc(c0.view(), a.view(), b.view(), alpha);
      bk.gemm_acc(c1.view(), a.view(), b.view(), alpha);
      EXPECT_LT(linalg::max_abs_diff(c0, c1), 1e-10)
          << sh.m << "x" << sh.n << "x" << sh.k << " alpha=" << alpha;
    }
  }
}

TEST(LocalKernels, GemmBtParityMatchesExplicitTranspose) {
  const auto& bk = linalg::blocked_kernels();
  const std::size_t m = 130, n = 75, k = 97;
  linalg::Matrix<double> a(m, k), bt(n, k), c(m, n, 0.0), ref(m, n, 0.0);
  linalg::fill_random(a, 4);
  linalg::fill_random(bt, 5);
  bk.gemm_acc_bt(c.view(), a.view(), bt.view(), -1.5);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t l = 0; l < k; ++l) ref(i, j) -= 1.5 * a(i, l) * bt(j, l);
  EXPECT_LT(linalg::max_abs_diff(c, ref), 1e-10);
}

TEST(LocalKernels, GemmParityOnStridedSubViews) {
  // Operate on interior blocks of larger matrices so every view is
  // strided; the frame around each block must stay untouched.
  const std::size_t N = 200, off = 17, m = 150, n = 140, k = 160;
  linalg::Matrix<double> a(N, N), b(N, N), c0(N, N), c1(N, N);
  linalg::fill_random(a, 6);
  linalg::fill_random(b, 7);
  linalg::fill_random(c0, 8);
  c1 = c0;
  linalg::naive_kernels().gemm_acc(c0.block(off, off, m, n),
                                   a.block(off, off, m, k),
                                   b.block(off, off, k, n), 2.5);
  linalg::blocked_kernels().gemm_acc(c1.block(off, off, m, n),
                                     a.block(off, off, m, k),
                                     b.block(off, off, k, n), 2.5);
  EXPECT_LT(linalg::max_abs_diff(c0, c1), 1e-10);
  // The frame: bitwise untouched by the blocked path.
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = 0; j < N; ++j) {
      if (i >= off && i < off + m && j >= off && j < off + n) continue;
      ASSERT_EQ(c0(i, j), c1(i, j)) << i << "," << j;
    }
  }
}

TEST(LocalKernels, GemmRefusesMismatchedShapes) {
  // Checked in every build: the legs read past B or A otherwise.  One
  // shape above the small-gemm volume (the blocked legs) and one below
  // (the reference loops), plain and transposed; C stays untouched.
  const auto& bk = linalg::blocked_kernels();
  linalg::Matrix<double> c(16, 16), a(16, 64), b(32, 16), bt(16, 32);
  linalg::fill_random(c, 1);
  const linalg::Matrix<double> c0 = c;
  EXPECT_THROW(bk.gemm_acc(c.view(), a.view(), b.view(), 1.0),
               std::invalid_argument);
  EXPECT_THROW(bk.gemm_acc_bt(c.view(), a.view(), bt.view(), 1.0),
               std::invalid_argument);
  EXPECT_THROW(bk.gemm_acc(c.block(0, 0, 2, 2), a.block(0, 0, 2, 3),
                           b.block(0, 0, 2, 2), 1.0),
               std::invalid_argument);
  EXPECT_THROW(bk.gemm_acc(c.block(0, 0, 3, 2), a.block(0, 0, 2, 4),
                           b.block(0, 0, 4, 2), 1.0),
               std::invalid_argument);
  EXPECT_EQ(0, std::memcmp(c.data(), c0.data(), c.size() * sizeof(double)));
}

// ---- the AVX-512 leg: bitwise the AVX2 leg -------------------------------

/// True when the binary has the AVX-512 leg and the CPU runs it (a 1 x 1
/// product is harmless).
bool avx512_leg_runs() {
  linalg::Matrix<double> c(1, 1), a(1, 1), b(1, 1);
  return linalg::detail::gemm_blocked_avx512(c.view(), a.view(), b.view(),
                                             1.0, false);
}

/// Whether @p got equals @p orig bit for bit outside the m x n block at
/// (i0, j0).
bool frame_untouched(const linalg::Matrix<double>& got,
                     const linalg::Matrix<double>& orig, std::size_t i0,
                     std::size_t j0, std::size_t m, std::size_t n) {
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      const bool inside = i >= i0 && i < i0 + m && j >= j0 && j < j0 + n;
      if (!inside && std::memcmp(&got(i, j), &orig(i, j), sizeof(double))) {
        return false;
      }
    }
  }
  return true;
}

TEST(LocalKernels, Avx512GemmLegIsBitwiseTheAvx2Leg) {
  if (!avx512_leg_runs()) GTEST_SKIP() << "no AVX-512 leg in this build/CPU";
  // Rows 1-13: one or two 6-row panels, full or with edge rows.
  // Columns: 1 and 7 (one ragged panel), 8 (one unpaired full panel),
  // 9, 15, 17 (a pair or lone panel, then a ragged one), 16, 24, 40
  // (even and odd full panel counts) and 520 (nc across kNC = 512).
  // Depths straddle kKC = 256.  Every view is strided, inside a frame.
  constexpr std::size_t kOff = 3, kMaxM = 13, kMaxN = 520, kMaxK = 600;
  linalg::Matrix<double> a(kMaxM + 2 * kOff, kMaxK + 2 * kOff);
  linalg::Matrix<double> b(kMaxK + 2 * kOff, kMaxN + 2 * kOff);
  linalg::Matrix<double> bt(kMaxN + 2 * kOff, kMaxK + 2 * kOff);
  linalg::Matrix<double> c0(kMaxM + 2 * kOff, kMaxN + 2 * kOff);
  linalg::fill_random(a, 31);
  linalg::fill_random(b, 32);
  linalg::fill_random(bt, 33);
  linalg::fill_random(c0, 34);
  const double alphas[] = {1.0, -1.0, 0.5};
  std::size_t cases = 0;
  for (std::size_t m = 1; m <= kMaxM; ++m) {
    for (const std::size_t n : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 24u, 40u,
                                520u}) {
      for (const std::size_t k : {1u, 255u, 256u, 257u, 600u}) {
        for (const bool trans : {false, true}) {
          const double alpha = alphas[cases++ % 3];
          const auto av = a.block(kOff, kOff, m, k);
          const auto bv =
              trans ? bt.block(kOff, kOff, n, k) : b.block(kOff, kOff, k, n);
          linalg::Matrix<double> c512 = c0, c256 = c0;
          ASSERT_TRUE(linalg::detail::gemm_blocked_avx512(
              c512.block(kOff, kOff, m, n), av, bv, alpha, trans));
          ASSERT_TRUE(linalg::detail::gemm_blocked_simd(
              c256.block(kOff, kOff, m, n), av, bv, alpha, trans));
          const std::string who = std::to_string(m) + "x" +
                                  std::to_string(n) + "x" +
                                  std::to_string(k) + " alpha=" +
                                  std::to_string(alpha) +
                                  (trans ? " B^T" : " B");
          ASSERT_EQ(0, std::memcmp(c512.data(), c256.data(),
                                   c512.size() * sizeof(double)))
              << who;
          ASSERT_TRUE(frame_untouched(c512, c0, kOff, kOff, m, n)) << who;
        }
      }
    }
  }
}

TEST(LocalKernels, Avx512FactorIsBitwiseThePortableOne) {
  linalg::Matrix<double> probe(1, 1, 1.0);
  if (!linalg::detail::lu_nopivot_avx512(probe.view())) {
    GTEST_SKIP() << "no AVX-512 factor in this build/CPU";
  }
  // Widths below, at and past one 8-wide vector and LU's panel widths
  // (32, 128), on views of stride 1024 like the e2e matrix.
  constexpr std::size_t kStride = 1024;
  for (const std::size_t w : {1u, 5u, 32u, 37u, 128u, 130u}) {
    linalg::Matrix<double> a0(w, kStride);
    linalg::fill_random(a0, unsigned(w));
    for (std::size_t i = 0; i < w; ++i) a0(i, i) += double(w);
    linalg::Matrix<double> wide = a0, ref = a0;
    ASSERT_TRUE(linalg::detail::lu_nopivot_avx512(wide.block(0, 0, w, w)));
    linalg::detail::lu_nopivot_portable(ref.block(0, 0, w, w));
    EXPECT_EQ(0, std::memcmp(wide.data(), ref.data(),
                             wide.size() * sizeof(double)))
        << "width " << w;
    EXPECT_TRUE(frame_untouched(wide, a0, 0, 0, w, w)) << "width " << w;
  }
}

/// Well-conditioned n x n operands for every solve variant: u upper
/// (diagonal 4 + |.|), l lower (diagonal 3 + |.|), and unit_l, which is
/// l with its below-diagonal entries divided by n.  The unit-lower
/// solve ignores the diagonal, so O(1) off-diagonal entries would grow
/// its solution exponentially in n and swamp any parity tolerance.
struct TriOperands {
  linalg::Matrix<double> u, l, unit_l;
};

TriOperands tri_operands(std::size_t n) {
  TriOperands t{linalg::random_upper_triangular(n, 9),
                linalg::Matrix<double>(n, n), {}};
  linalg::fill_random(t.l, 10);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) t.l(i, j) = 0.0;
    t.l(i, i) = 3.0 + std::abs(t.l(i, i));
  }
  t.unit_l = t.l;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) t.unit_l(i, j) /= double(n);
  }
  return t;
}

TEST(LocalKernels, TrsmParityAllVariants) {
  // Every variant solves on strided sub-views.  T sits inside a frame
  // of NaN that also fills the triangle no solve may read, and a unit
  // diagonal; B sits inside a random frame that must stay bitwise
  // untouched.  Up to kTriBlock (64) wide the blocked left-lower (unit
  // and non-unit) and right-upper solves are the reference loops bit
  // for bit, so there they are compared with memcmp.  Wider solves and
  // the other two variants reorder sums through the blocked gemm and
  // keep a tolerance.  Widths and right-hand-side counts are ragged
  // against both tile shapes (2 x 8 on the left, 8 x 2 on the right).
  constexpr std::size_t kOff = 3, kPad = 5;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  using Solve = void (*)(linalg::ConstMatrixView<double>,
                         linalg::MatrixView<double>);
  const auto& nk = linalg::naive_kernels();
  const auto& bk = linalg::blocked_kernels();
  const struct {
    const char* who;
    Solve naive, blocked;
    bool lower, unit, right, bitwise;
  } variants[] = {
      {"left_upper", nk.trsm_left_upper, bk.trsm_left_upper, false, false,
       false, false},
      {"left_lower", nk.trsm_left_lower, bk.trsm_left_lower, true, false,
       false, true},
      {"left_unit_lower", nk.trsm_left_unit_lower, bk.trsm_left_unit_lower,
       true, true, false, true},
      {"right_lower_t", nk.trsm_right_lower_t, bk.trsm_right_lower_t, true,
       false, true, false},
      {"right_upper", nk.trsm_right_upper, bk.trsm_right_upper, false, false,
       true, true},
  };
  for (const std::size_t n :
       {1u, 2u, 3u, 5u, 8u, 9u, 31u, 32u, 33u, 63u, 64u, 65u, 100u, 128u,
        192u}) {
    const TriOperands ops = tri_operands(n);
    for (const auto& v : variants) {
      const linalg::Matrix<double>& t =
          v.unit ? ops.unit_l : v.lower ? ops.l : ops.u;
      linalg::Matrix<double> tf(n + kOff + kPad, n + kOff + kPad, nan);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          const bool read = v.lower ? j < i : j > i;
          if (read || (i == j && !v.unit)) tf(kOff + i, kOff + j) = t(i, j);
        }
      }
      const linalg::ConstMatrixView<double> tv = tf.block(kOff, kOff, n, n);
      for (const std::size_t nrhs : {std::size_t{1}, std::size_t{5},
                                     std::size_t{13}, n / 2 + 3}) {
        const std::size_t rows = v.right ? nrhs : n;
        const std::size_t cols = v.right ? n : nrhs;
        linalg::Matrix<double> b0(rows + kOff + kPad, cols + kOff + kPad);
        linalg::fill_random(b0, 11);
        const linalg::Matrix<double> orig = b0;
        linalg::Matrix<double> b1 = b0;
        v.naive(tv, b0.block(kOff, kOff, rows, cols));
        v.blocked(tv, b1.block(kOff, kOff, rows, cols));
        const std::string where = std::string(v.who) +
                                  " n=" + std::to_string(n) +
                                  " nrhs=" + std::to_string(nrhs);
        if (v.bitwise && n <= linalg::kTriBlock) {
          EXPECT_EQ(0, std::memcmp(b0.data(), b1.data(),
                                   b0.size() * sizeof(double)))
              << where;
        }
        bool close = true, frame_kept = true;
        for (std::size_t i = 0; i < b1.rows(); ++i) {
          for (std::size_t j = 0; j < b1.cols(); ++j) {
            if (i >= kOff && i < kOff + rows && j >= kOff && j < kOff + cols) {
              close = close && std::abs(b0(i, j) - b1(i, j)) < 1e-9;
            } else {
              frame_kept = frame_kept && std::memcmp(&b1(i, j), &orig(i, j),
                                                     sizeof(double)) == 0;
            }
          }
        }
        EXPECT_TRUE(close) << where;
        EXPECT_TRUE(frame_kept) << where;
      }
    }
  }
}

TEST(LocalKernels, SyrkParityTouchesOnlyLowerTriangle) {
  const std::size_t n = 150, k = 90;
  linalg::Matrix<double> l1(n, k), l2(n, k);
  linalg::fill_random(l1, 12);
  linalg::fill_random(l2, 13);
  linalg::Matrix<double> a0(n, n), a1(n, n);
  linalg::fill_random(a0, 14);
  a1 = a0;
  linalg::naive_kernels().syrk_lower_acc(a0.view(), l1.view(), l2.view());
  linalg::blocked_kernels().syrk_lower_acc(a1.view(), l1.view(), l2.view());
  EXPECT_LT(linalg::max_abs_diff(a0, a1), 1e-10);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      ASSERT_EQ(a0(i, j), a1(i, j));  // strictly-upper: untouched
    }
  }
}

TEST(LocalKernels, SyrkPanelShapeParity) {
  // The batched-Krylov Gram shape: a tiny output (m <= 16) against a
  // long inner dimension, which the blocked table sends down the
  // accumulator-chain panel leg once m*m*k clears the small-case bar.
  // syrk carries no bitwise contract, so this is a tolerance check.
  for (const std::size_t m : {5, 16}) {
    for (const std::size_t k : {33, 4096}) {
      linalg::Matrix<double> l1(m, k), l2(m, k);
      linalg::fill_random(l1, unsigned(20 + m));
      linalg::fill_random(l2, unsigned(30 + k));
      linalg::Matrix<double> a0(m, m), a1(m, m);
      linalg::fill_random(a0, 17);
      a1 = a0;
      linalg::naive_kernels().syrk_lower_acc(a0.view(), l1.view(), l2.view());
      linalg::blocked_kernels().syrk_lower_acc(a1.view(), l1.view(),
                                               l2.view());
      EXPECT_LT(linalg::max_abs_diff(a0, a1), 1e-10)
          << "m=" << m << " k=" << k;
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = i + 1; j < m; ++j) {
          ASSERT_EQ(a0(i, j), a1(i, j));  // strictly-upper: untouched
        }
      }
    }
  }
}

// ---- the Gram contract ---------------------------------------------------

TEST(LocalKernels, GramBlockedBitwiseEqualsNaive) {
  const std::size_t m = 7, n = 3000;  // m % 4 != 0, n crosses a chunk
  std::vector<std::vector<double>> w(m, std::vector<double>(n));
  std::mt19937_64 rng(15);
  std::uniform_real_distribution<double> dist(-1, 1);
  for (auto& col : w)
    for (auto& v : col) v = dist(rng);
  std::vector<const double*> cols(m);
  for (std::size_t a = 0; a < m; ++a) cols[a] = w[a].data();

  std::vector<double> g0(m * m, 0.25), g1(m * m, 0.25);
  linalg::naive_kernels().gram_upper_acc(g0.data(), m, cols.data(), 0, n);
  linalg::blocked_kernels().gram_upper_acc(g1.data(), m, cols.data(), 0, n);
  EXPECT_EQ(0, std::memcmp(g0.data(), g1.data(), m * m * sizeof(double)));
}

TEST(LocalKernels, GramIsCallSplitInvariant) {
  // One call over [0, n) must be bitwise-equal to any chain of calls
  // over consecutive subranges -- the contract that lets the dist
  // solvers split Gram accumulation per mesh-line run and stay
  // bitwise-identical to the shared-memory solver.
  const std::size_t m = 6, n = 1000;
  std::vector<std::vector<double>> w(m, std::vector<double>(n));
  std::mt19937_64 rng(16);
  std::uniform_real_distribution<double> dist(-1, 1);
  for (auto& col : w)
    for (auto& v : col) v = dist(rng);
  std::vector<const double*> cols(m);
  for (std::size_t a = 0; a < m; ++a) cols[a] = w[a].data();

  for (const auto* k : {&linalg::naive_kernels(), &linalg::blocked_kernels()}) {
    std::vector<double> whole(m * m, 0.0), split(m * m, 0.0);
    k->gram_upper_acc(whole.data(), m, cols.data(), 0, n);
    const std::size_t cuts[] = {0, 1, 97, 512, 513, 999, n};
    for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
      k->gram_upper_acc(split.data(), m, cols.data(), cuts[c], cuts[c + 1]);
    }
    EXPECT_EQ(0,
              std::memcmp(whole.data(), split.data(), m * m * sizeof(double)))
        << k->name;
  }
}

TEST(LocalKernels, GramMatchesFullProduct) {
  const std::size_t m = 5, n = 400;
  std::vector<std::vector<double>> w(m, std::vector<double>(n));
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> dist(-1, 1);
  for (auto& col : w)
    for (auto& v : col) v = dist(rng);
  std::vector<const double*> cols(m);
  for (std::size_t a = 0; a < m; ++a) cols[a] = w[a].data();

  std::vector<double> g(m * m, 0.0);
  linalg::blocked_kernels().gram_upper_acc(g.data(), m, cols.data(), 0, n);
  linalg::gram_mirror(g.data(), m);
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t c = 0; c < m; ++c) {
      double ref = 0.0;
      for (std::size_t i = 0; i < n; ++i) ref += w[a][i] * w[c][i];
      EXPECT_NEAR(g[a * m + c], ref, 1e-10 * n);
    }
  }
}

// ---- WA_KERNELS selection ------------------------------------------------

TEST(LocalKernels, KernelsFromEnv) {
  const char* old = std::getenv("WA_KERNELS");
  const std::string saved = old != nullptr ? old : "";

  unsetenv("WA_KERNELS");
  EXPECT_EQ(linalg::kernels_from_env(), linalg::KernelImpl::kBlocked);
  setenv("WA_KERNELS", "naive", 1);
  EXPECT_EQ(linalg::kernels_from_env(), linalg::KernelImpl::kNaive);
  setenv("WA_KERNELS", "blocked", 1);
  EXPECT_EQ(linalg::kernels_from_env(), linalg::KernelImpl::kBlocked);
  setenv("WA_KERNELS", "turbo", 1);
  EXPECT_THROW(linalg::kernels_from_env(), std::invalid_argument);

  if (old != nullptr) {
    setenv("WA_KERNELS", saved.c_str(), 1);
  } else {
    unsetenv("WA_KERNELS");
  }
}

TEST(LocalKernels, SetActiveKernelsSwapsAndReturnsPrevious) {
  KernelGuard guard(linalg::KernelImpl::kBlocked);
  EXPECT_EQ(linalg::active_kernels().impl, linalg::KernelImpl::kBlocked);
  const auto prev = linalg::set_active_kernels(linalg::KernelImpl::kNaive);
  EXPECT_EQ(prev, linalg::KernelImpl::kBlocked);
  EXPECT_EQ(linalg::active_kernels().impl, linalg::KernelImpl::kNaive);
}

// ---- counter invariance across the distributed algorithms ----------------

dist::Machine make_machine(std::size_t P,
                           std::unique_ptr<dist::Backend> backend = nullptr) {
  return dist::Machine(P, 192, 4096, 1 << 24, dist::HwParams{},
                       std::move(backend));
}

void expect_traffic_identical(const dist::Machine& x, const dist::Machine& y,
                              const char* who) {
  ASSERT_EQ(x.nprocs(), y.nprocs());
  const auto eq = [&](const dist::ChanCount& a, const dist::ChanCount& b,
                      const char* chan, std::size_t p) {
    EXPECT_EQ(a.words, b.words) << who << " " << chan << " rank " << p;
    EXPECT_EQ(a.messages, b.messages) << who << " " << chan << " rank " << p;
  };
  for (std::size_t p = 0; p < x.nprocs(); ++p) {
    const dist::ProcTraffic& a = x.proc(p);
    const dist::ProcTraffic& b = y.proc(p);
    eq(a.nw, b.nw, "nw", p);
    eq(a.l3_read, b.l3_read, "l3_read", p);
    eq(a.l3_write, b.l3_write, "l3_write", p);
    eq(a.l2_read, b.l2_read, "l2_read", p);
    eq(a.l2_write, b.l2_write, "l2_write", p);
  }
}

TEST(LocalKernels, SummaCountersInvariantUnderKernelChoice) {
  const std::size_t n = 64, P = 4;
  linalg::Matrix<double> a(n, n), b(n, n);
  linalg::fill_random(a, 18);
  linalg::fill_random(b, 19);

  linalg::Matrix<double> c_naive(n, n, 0.0), c_blocked(n, n, 0.0);
  dist::Machine m_naive = make_machine(P);
  dist::Machine m_blocked = make_machine(P);
  {
    KernelGuard g(linalg::KernelImpl::kNaive);
    dist::summa_2d(m_naive, c_naive.view(), a.view(), b.view());
  }
  {
    KernelGuard g(linalg::KernelImpl::kBlocked);
    dist::summa_2d(m_blocked, c_blocked.view(), a.view(), b.view());
  }
  expect_traffic_identical(m_naive, m_blocked, "summa_2d");
  EXPECT_LT(linalg::max_abs_diff(c_naive, c_blocked), 1e-11);
}

TEST(LocalKernels, LuCountersInvariantUnderKernelChoice) {
  const std::size_t n = 96, P = 4, bs = 16;
  const auto a0 = linalg::random_spd(n, 20);

  for (const bool left : {false, true}) {
    linalg::Matrix<double> a_naive = a0, a_blocked = a0;
    dist::Machine m_naive = make_machine(P);
    dist::Machine m_blocked = make_machine(P);
    {
      KernelGuard g(linalg::KernelImpl::kNaive);
      left ? dist::lu_left_looking(m_naive, a_naive.view(), bs, 2)
           : dist::lu_right_looking(m_naive, a_naive.view(), bs);
    }
    {
      KernelGuard g(linalg::KernelImpl::kBlocked);
      left ? dist::lu_left_looking(m_blocked, a_blocked.view(), bs, 2)
           : dist::lu_right_looking(m_blocked, a_blocked.view(), bs);
    }
    expect_traffic_identical(m_naive, m_blocked,
                             left ? "lu_left_looking" : "lu_right_looking");
    EXPECT_LT(linalg::max_abs_diff(a_naive, a_blocked), 1e-8);
  }
}

TEST(LocalKernels, CaCgCountersInvariantUnderKernelChoice) {
  const std::size_t n = 200, P = 4;
  const auto A = sparse::stencil_1d(n, 2);
  std::vector<double> xt(n);
  std::mt19937_64 rng(21);
  std::uniform_real_distribution<double> dist01(-1, 1);
  for (auto& v : xt) v = dist01(rng);
  std::vector<double> b(n);
  sparse::spmv(A, xt, b);

  for (const CaCgMode mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    CaCgOptions opt;
    opt.s = 4;
    opt.mode = mode;
    opt.max_outer = 30;

    std::vector<double> x_naive(n, 0.0), x_blocked(n, 0.0);
    dist::Machine m_naive = make_machine(P);
    dist::Machine m_blocked = make_machine(P);
    {
      KernelGuard g(linalg::KernelImpl::kNaive);
      dist::ca_cg(m_naive, A, b, x_naive, opt);
    }
    {
      KernelGuard g(linalg::KernelImpl::kBlocked);
      dist::ca_cg(m_blocked, A, b, x_blocked, opt);
    }
    expect_traffic_identical(m_naive, m_blocked, "ca_cg");
    // The Gram contract makes the whole solve bitwise-reproducible
    // across kernel choices, not merely close.
    EXPECT_EQ(0, std::memcmp(x_naive.data(), x_blocked.data(),
                             n * sizeof(double)));
  }
}

TEST(LocalKernels, ThreadedBackendBitwiseIdenticalUnderBlocked) {
  KernelGuard guard(linalg::KernelImpl::kBlocked);
  const std::size_t n = 200, P = 4;
  const auto A = sparse::stencil_1d(n, 2);
  std::vector<double> xt(n);
  std::mt19937_64 rng(22);
  std::uniform_real_distribution<double> dist01(-1, 1);
  for (auto& v : xt) v = dist01(rng);
  std::vector<double> b(n);
  sparse::spmv(A, xt, b);

  for (const CaCgMode mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    CaCgOptions opt;
    opt.s = 4;
    opt.mode = mode;
    opt.max_outer = 30;

    std::vector<double> x_serial(n, 0.0), x_threaded(n, 0.0);
    dist::Machine m_serial = make_machine(P);
    dist::Machine m_threaded =
        make_machine(P, dist::make_backend("threaded", 3));
    dist::ca_cg(m_serial, A, b, x_serial, opt);
    dist::ca_cg(m_threaded, A, b, x_threaded, opt);
    expect_traffic_identical(m_serial, m_threaded, "ca_cg threaded");
    EXPECT_EQ(0, std::memcmp(x_serial.data(), x_threaded.data(),
                             n * sizeof(double)));
  }

  // SUMMA: serial and threaded must agree bitwise on the product too.
  linalg::Matrix<double> a(64, 64), bm(64, 64);
  linalg::fill_random(a, 23);
  linalg::fill_random(bm, 24);
  linalg::Matrix<double> c_serial(64, 64, 0.0), c_threaded(64, 64, 0.0);
  dist::Machine ms = make_machine(P);
  dist::Machine mt = make_machine(P, dist::make_backend("threaded", 3));
  dist::summa_2d(ms, c_serial.view(), a.view(), bm.view());
  dist::summa_2d(mt, c_threaded.view(), a.view(), bm.view());
  expect_traffic_identical(ms, mt, "summa threaded");
  EXPECT_EQ(0, std::memcmp(c_serial.data(), c_threaded.data(),
                           64 * 64 * sizeof(double)));
}

// ---- known answers at LU's panel widths ----------------------------------
//
// The other LU tests run b <= 16, below both the gemm volume threshold
// and the 64-wide diagonal split.  These constants pin the blocked
// table's left-lower and right-upper solves past that split, and both
// LU schedules at the end-to-end panel widths (b = 32 left-looking,
// b = 128 right-looking), against fixed values.  A wide solve's
// off-diagonal updates run the blocked gemm, whose AVX2+FMA leg rounds
// differently from the portable engine, so every output pin holds one
// value per leg.  The values assume IEEE doubles with no FMA
// contraction outside that leg.

/// FNV-1a over 64-bit words.
class Fnv {
 public:
  void add(std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (w >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add_bits(const linalg::Matrix<double>& m) {
    for (std::size_t k = 0; k < m.rows() * m.cols(); ++k) {
      std::uint64_t u = 0;
      std::memcpy(&u, m.data() + k, sizeof u);
      add(u);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// A known answer per blocked-gemm leg.
struct PerLeg {
  std::uint64_t simd, portable;
};

std::uint64_t on_this_leg(PerLeg want) {
  // The SIMD leg reports whether it ran; a 1 x 1 product is harmless.
  linalg::Matrix<double> c(1, 1), a(1, 1), b(1, 1);
  const bool simd = linalg::detail::gemm_blocked_simd(c.view(), a.view(),
                                                      b.view(), 1.0, false);
  return simd ? want.simd : want.portable;
}

TEST(LocalKernelsKnownAnswers, BlockedSolvesPastTheDiagonalBlock) {
  // Widths 65 and 100 leave a ragged last diagonal block, 128 and 192
  // split evenly; 1, 37 and 130 right-hand sides.
  const auto& bk = linalg::blocked_kernels();
  Fnv unit, lower, upper;
  for (const std::size_t n : {65u, 100u, 128u, 192u}) {
    const TriOperands ops = tri_operands(n);
    for (const std::size_t nrhs : {1u, 37u, 130u}) {
      linalg::Matrix<double> left(n, nrhs), right(nrhs, n);
      linalg::fill_random(left, unsigned(n + nrhs));
      linalg::fill_random(right, unsigned(n + nrhs + 1));
      linalg::Matrix<double> b = left;
      bk.trsm_left_unit_lower(ops.unit_l.view(), b.view());
      unit.add_bits(b);
      b = left;
      bk.trsm_left_lower(ops.l.view(), b.view());
      lower.add_bits(b);
      bk.trsm_right_upper(ops.u.view(), right.view());
      upper.add_bits(right);
    }
  }
  EXPECT_EQ(unit.value(),
            on_this_leg({11059044650268176211ull, 17482670506270883859ull}));
  EXPECT_EQ(lower.value(),
            on_this_leg({9977387636529227971ull, 12640437793039961611ull}));
  EXPECT_EQ(upper.value(),
            on_this_leg({10472691190223779090ull, 4610258236393650369ull}));
}

TEST(LocalKernelsKnownAnswers, LuAtEndToEndPanelWidths) {
  // Both schedules on a serial P = 4 (2 x 2) Machine with the e2e
  // workloads' M1 and M2, n = 256: left-looking at b = 32, s = 4 (its
  // solves sit inside one diagonal block), right-looking at b = 128
  // (its solves split into two).
  KernelGuard guard(linalg::KernelImpl::kBlocked);
  const linalg::Matrix<double> a0 = linalg::random_spd(256, 25);
  const struct {
    bool left;
    PerLeg bits;
    std::uint64_t counters;
  } cases[] = {
      {true,
       {10322613304458422511ull, 15326745265642373871ull},
       4361258977244291597ull},
      {false,
       {14012205019345330533ull, 317564881319801190ull},
       3351138025741466584ull},
  };
  for (const auto& tc : cases) {
    linalg::Matrix<double> a = a0;
    dist::Machine m(4, 3072, 65536, 1 << 24, dist::HwParams{},
                    std::make_unique<dist::SerialSimBackend>());
    tc.left ? dist::lu_left_looking(m, a.view(), 32, 4)
            : dist::lu_right_looking(m, a.view(), 128);
    Fnv bits, counters;
    bits.add_bits(a);
    for (std::size_t p = 0; p < m.nprocs(); ++p) {
      const dist::ProcTraffic& t = m.proc(p);
      for (const dist::ChanCount* ch :
           {&t.nw, &t.l3_read, &t.l3_write, &t.l2_read, &t.l2_write}) {
        counters.add(ch->words);
        counters.add(ch->messages);
      }
    }
    const char* who = tc.left ? "lu_left_looking" : "lu_right_looking";
    EXPECT_EQ(bits.value(), on_this_leg(tc.bits)) << who;
    EXPECT_EQ(counters.value(), tc.counters) << who;
  }
}

TEST(LocalKernelsKnownAnswers, LeftLookingLuOnGridShapesAndRaggedPanels) {
  // LL-LU on 1-, 4-, 6-, 7-, 9-, 12- and 16-rank grids, with ragged
  // last panels and s = 1, on both backends over the data-moving
  // transport.  Each case pins the output bits (they depend only on
  // n and b), and every rank's five channels together with the
  // transport's movement stats.
  KernelGuard guard(linalg::KernelImpl::kBlocked);
  const struct {
    std::size_t n, b, P, s;
    PerLeg bits;
    std::uint64_t counters;
  } cases[] = {
      {77, 8, 6, 3,
       {10439572239314505407ull, 10439572239314505407ull},
       7896561698498492029ull},
      {77, 8, 7, 1,
       {10439572239314505407ull, 10439572239314505407ull},
       14137159903383895983ull},
      {100, 32, 16, 4,
       {11634822055562738917ull, 17112558439577097950ull},
       3474205482569051352ull},
      {100, 7, 4, 2,
       {13876021269872972467ull, 13876021269872972467ull},
       11276942351278680786ull},
      {256, 32, 16, 4,
       {10766823911157236784ull, 7733275028971406438ull},
       16444264879631606053ull},
      {64, 8, 1, 2,
       {17906051060541263463ull, 17906051060541263463ull},
       14338555919535136889ull},
      {131, 16, 12, 5,
       {8432400038405228098ull, 8432400038405228098ull},
       10799306679363415436ull},
      {50, 3, 9, 2,
       {1577938265635398215ull, 1577938265635398215ull},
       3552760655546220244ull},
  };
  for (const auto& tc : cases) {
    const linalg::Matrix<double> a0 = linalg::random_spd(tc.n, 41);
    for (const bool threaded : {false, true}) {
      std::unique_ptr<dist::Backend> be;
      if (threaded) {
        be = std::make_unique<dist::ThreadedBackend>(3);
      } else {
        be = std::make_unique<dist::SerialSimBackend>();
      }
      linalg::Matrix<double> a = a0;
      dist::Machine m(tc.P, 3072, 65536, 1 << 24, dist::HwParams{},
                      std::move(be), std::make_unique<dist::ShmTransport>());
      dist::lu_left_looking(m, a.view(), tc.b, tc.s);
      Fnv bits, counters;
      bits.add_bits(a);
      for (std::size_t p = 0; p < m.nprocs(); ++p) {
        const dist::ProcTraffic& t = m.proc(p);
        for (const dist::ChanCount* ch :
             {&t.nw, &t.l3_read, &t.l3_write, &t.l2_read, &t.l2_write}) {
          counters.add(ch->words);
          counters.add(ch->messages);
        }
      }
      const dist::TransportStats ts = m.transport().stats();
      counters.add(ts.messages);
      counters.add(ts.words);
      counters.add(ts.verified);
      const std::string who = "n=" + std::to_string(tc.n) +
                              " b=" + std::to_string(tc.b) +
                              " P=" + std::to_string(tc.P) +
                              " s=" + std::to_string(tc.s) + " " +
                              m.backend().name();
      EXPECT_EQ(bits.value(), on_this_leg(tc.bits)) << who;
      EXPECT_EQ(counters.value(), tc.counters) << who;
    }
  }
}

}  // namespace
}  // namespace wa
