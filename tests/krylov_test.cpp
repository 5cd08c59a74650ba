// Tests for Section 8: CG, CA-CG, and the streaming write-avoiding
// CA-CG.  Key claims: (1) all three solve the system; (2) CA-CG
// matches CG's convergence; (3) the streaming variant cuts
// slow-memory writes by Theta(s) at <= ~2x reads.  Slow-memory words
// are counted on a one-rank Machine, whose iterates are bitwise the
// shared-memory solvers' (pinned in dist_krylov_test).

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "dist/krylov.hpp"
#include "dist/machine.hpp"
#include "krylov/cacg.hpp"
#include "krylov/cg.hpp"
#include "sparse/csr.hpp"

namespace wa::krylov {
namespace {

std::vector<double> rhs_for(const sparse::Csr& a, unsigned seed) {
  std::vector<double> x(a.n), b(a.n);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (auto& v : x) v = dist(rng);
  sparse::spmv(a, x, b);
  return b;
}

double rel_residual(const sparse::Csr& a, std::span<const double> b,
                    std::span<const double> x) {
  std::vector<double> ax(a.n);
  sparse::spmv(a, x, ax);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < a.n; ++i) {
    num += (b[i] - ax[i]) * (b[i] - ax[i]);
    den += b[i] * b[i];
  }
  return std::sqrt(num / den);
}

dist::Machine one_rank() { return dist::Machine(1, 192, 4096, 1 << 24); }

TEST(Cg, SolvesStencilSystem) {
  const auto a = sparse::stencil_1d(256, 1);
  const auto b = rhs_for(a, 1);
  std::vector<double> x(a.n, 0.0);
  const auto res = cg(a, b, x, 500, 1e-10);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(rel_residual(a, b, x), 1e-8);
}

TEST(Cg, WritesFourVectorsPerIteration) {
  // r and p once at setup, then x, r, p and w once per step.
  const auto a = sparse::stencil_1d(512, 1);
  const auto b = rhs_for(a, 2);
  std::vector<double> x(a.n, 0.0);
  dist::Machine m = one_rank();
  const auto res = dist::cg(m, a, b, x, 300, 1e-12);
  ASSERT_GT(res.iterations, 3u);
  EXPECT_EQ(m.proc(0).l3_write.words, 2 * a.n + 4 * a.n * res.iterations);
}

class CaCgSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, CaCgMode>> {};

TEST_P(CaCgSweep, SolvesToSameAccuracyAsCg) {
  const auto [s, mode] = GetParam();
  const auto a = sparse::stencil_2d(24, 24, 1);
  const auto b = rhs_for(a, 3);
  std::vector<double> x(a.n, 0.0);
  CaCgOptions opt;
  opt.s = s;
  opt.mode = mode;
  opt.tol = 1e-10;
  opt.max_outer = 400;
  const auto res = ca_cg(a, b, x, opt);
  EXPECT_TRUE(res.converged) << "s=" << s << " mode=" << int(mode);
  EXPECT_LT(rel_residual(a, b, x), 1e-7)
      << "s=" << s << " mode=" << int(mode);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CaCgSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 6),
                       ::testing::Values(CaCgMode::kStored,
                                         CaCgMode::kStreaming)),
    [](const auto& info) {
      return "s" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == CaCgMode::kStored ? "_stored"
                                                           : "_streaming");
    });

TEST(CaCg, MatchesCgIterateInExactArithmetic) {
  // One outer iteration of CA-CG with s inner steps must match s CG
  // steps (up to roundoff amplified by the basis conditioning).
  const auto a = sparse::stencil_1d(128, 1);
  const auto b = rhs_for(a, 4);
  const std::size_t s = 3;

  std::vector<double> x_cg(a.n, 0.0), x_ca(a.n, 0.0);
  cg(a, b, x_cg, s, 0.0);
  CaCgOptions opt;
  opt.s = s;
  opt.max_outer = 1;
  opt.tol = 0.0;
  ca_cg(a, b, x_ca, opt);

  double d = 0;
  for (std::size_t i = 0; i < a.n; ++i) {
    d = std::max(d, std::abs(x_cg[i] - x_ca[i]));
  }
  EXPECT_LT(d, 1e-8);
}

TEST(Section8, StreamingReducesWritesByThetaS) {
  const auto a = sparse::stencil_1d(4096, 1);
  const auto b = rhs_for(a, 5);
  const std::size_t s = 6;

  std::vector<double> x1(a.n, 0.0), x2(a.n, 0.0);
  CaCgOptions stored;
  stored.s = s;
  stored.mode = CaCgMode::kStored;
  stored.tol = 1e-9;
  stored.max_outer = 300;
  dist::Machine m_stored = one_rank();
  const auto r_stored = dist::ca_cg(m_stored, a, b, x1, stored);

  CaCgOptions streaming = stored;
  streaming.mode = CaCgMode::kStreaming;
  dist::Machine m_stream = one_rank();
  const auto r_stream = dist::ca_cg(m_stream, a, b, x2, streaming);

  ASSERT_GT(r_stored.iterations, s);
  ASSERT_GT(r_stream.iterations, s);

  const double w_stored = double(m_stored.proc(0).l3_write.words) /
                          double(r_stored.iterations);
  const double w_stream = double(m_stream.proc(0).l3_write.words) /
                          double(r_stream.iterations);
  // Stored: ~(2s+4)/s * n  writes/step; streaming: ~3n/s writes/step.
  EXPECT_GT(w_stored / w_stream, double(s) / 2.0);

  // The price: reads and flops at most ~2.5x (basis computed twice).
  const double reads_ratio = double(m_stream.proc(0).l3_read.words) /
                             double(m_stored.proc(0).l3_read.words);
  EXPECT_LT(reads_ratio, 2.5);
}

TEST(Section8, StreamingWritesPerStepApproachThreeNOverS) {
  const auto a = sparse::stencil_1d(8192, 1);
  const auto b = rhs_for(a, 6);
  const std::size_t s = 8;
  std::vector<double> x(a.n, 0.0);
  CaCgOptions opt;
  opt.s = s;
  opt.mode = CaCgMode::kStreaming;
  opt.tol = 1e-8;
  opt.max_outer = 100;
  dist::Machine m = one_rank();
  const auto res = dist::ca_cg(m, a, b, x, opt);
  ASSERT_GE(res.iterations, s);
  const double per_step =
      double(m.proc(0).l3_write.words) / double(res.iterations);
  // W12 = O(n/s) per step: 3n/s plus the initial setup amortized.
  EXPECT_LT(per_step, 5.0 * double(a.n) / double(s));
}

TEST(CaCg, RejectsZeroS) {
  const auto a = sparse::stencil_1d(16, 1);
  std::vector<double> b(16, 1.0), x(16, 0.0);
  CaCgOptions opt;
  opt.s = 0;
  EXPECT_THROW(ca_cg(a, b, x, opt), std::invalid_argument);
}

}  // namespace
}  // namespace wa::krylov
