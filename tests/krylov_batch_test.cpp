// Batched multi-RHS CG / CA-CG (krylov/batch.hpp, dist/krylov.hpp):
// the b = 1 batch is bitwise-identical to the single-RHS solvers --
// iterates, and on the Machine every counter -- per-RHS early exit
// leaves the remaining iterates bitwise-unchanged, the batched
// distributed path is backend-invariant and bitwise the per-RHS
// solvers across row-kernel group boundaries and CA-CG restarts, and
// the b-sweep counters match the closed-form amortization models:
// A-words and network messages per solve fall as 1/b while the
// per-RHS W12 and halo-word channels stay flat.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "dist/backend.hpp"
#include "dist/krylov.hpp"
#include "dist/machine.hpp"
#include "dist/partition.hpp"
#include "dist/planner.hpp"
#include "krylov/batch.hpp"
#include "krylov/cacg.hpp"
#include "krylov/cg.hpp"
#include "sparse/csr.hpp"

namespace wa {
namespace {

using krylov::CaCgBasis;
using krylov::CaCgMode;
using krylov::CaCgOptions;

dist::Machine make_machine(std::size_t P,
                           std::unique_ptr<dist::Backend> backend = nullptr) {
  return dist::Machine(P, 192, 4096, 1 << 24, dist::HwParams{},
                       std::move(backend));
}

/// Column-major n x nrhs panel of right-hand sides, each A * (smooth
/// random vector) with a distinct seed.
std::vector<double> panel_for(const sparse::Csr& A, std::size_t nrhs,
                              unsigned seed) {
  std::vector<double> B(A.n * nrhs);
  std::vector<double> xt(A.n);
  for (std::size_t j = 0; j < nrhs; ++j) {
    std::mt19937_64 rng(seed + 977u * unsigned(j));
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (auto& v : xt) v = dist(rng);
    sparse::spmv(A, xt, std::span<double>(B).subspan(j * A.n, A.n));
  }
  return B;
}

bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---- span sizes: a typed error from every entry point -----------------

TEST(KrylovSpans, ShortBOrXThrowsFromEveryEntryPoint) {
  // Shared and distributed, CG and CA-CG, single and batched: a b or x
  // one word short of n (n*nrhs for a panel) is refused up front
  // instead of being read past its end or solved on a truncated system.
  const auto A = sparse::stencil_1d(40, 1);
  const std::size_t n = A.n, nrhs = 2;
  CaCgOptions opt;
  opt.s = 4;
  const std::vector<double> full(n * nrhs, 1.0), shrt(n * nrhs - 1, 1.0);
  std::vector<double> xfull(n * nrhs, 0.0), xshrt(n * nrhs - 1, 0.0);
  const std::span<const double> b1(full.data(), n), bs1(shrt.data(), n - 1);
  const std::span<double> x1(xfull.data(), n), xs1(xshrt.data(), n - 1);
  dist::Machine m = make_machine(2);
  const auto part = dist::make_partition(2, A);

  for (int k = 0; k < 2; ++k) {
    // k = 0: short b, full x; k = 1: full b, short x.
    const auto b = k == 0 ? bs1 : b1;
    const auto x = k == 0 ? x1 : xs1;
    const std::span<const double> B =
        k == 0 ? std::span<const double>(shrt) : std::span<const double>(full);
    const std::span<double> X =
        k == 0 ? std::span<double>(xfull) : std::span<double>(xshrt);
    EXPECT_THROW(krylov::cg(A, b, x, 10, 1e-9), std::invalid_argument) << k;
    EXPECT_THROW(krylov::ca_cg(A, b, x, opt), std::invalid_argument) << k;
    EXPECT_THROW(krylov::cg_batch(A, B, X, nrhs, 10, 1e-9),
                 std::invalid_argument)
        << k;
    EXPECT_THROW(krylov::ca_cg_batch(A, B, X, nrhs, opt),
                 std::invalid_argument)
        << k;
    EXPECT_THROW(dist::cg(m, *part, A, b, x, 10, 1e-9), std::invalid_argument)
        << k;
    EXPECT_THROW(dist::ca_cg(m, *part, A, b, x, opt), std::invalid_argument)
        << k;
    EXPECT_THROW(dist::cg_batch(m, *part, A, B, X, nrhs, 10, 1e-9),
                 std::invalid_argument)
        << k;
    EXPECT_THROW(dist::ca_cg_batch(m, *part, A, B, X, nrhs, opt),
                 std::invalid_argument)
        << k;
  }
  // The refusals happen before any work: x is untouched, nothing is
  // charged.
  for (const double v : xfull) EXPECT_EQ(v, 0.0);
  for (std::size_t p = 0; p < 2; ++p) {
    EXPECT_EQ(m.proc(p).nw.words, 0u);
    EXPECT_EQ(m.proc(p).l3_read.words, 0u);
    EXPECT_EQ(m.proc(p).l3_write.words, 0u);
  }
}

// ---- shared-memory batch: b = 1 reduces exactly -------------------------

TEST(SharedBatch, CgB1BitwiseEqualSingle) {
  const auto A = sparse::stencil_1d(384, 2);
  const auto B = panel_for(A, 1, 11);
  std::vector<double> xs(A.n, 0.0), xb(A.n, 0.0);

  const auto solo = krylov::cg(A, B, xs, 200, 1e-10);
  const auto batch = krylov::cg_batch(A, B, xb, 1, 200, 1e-10);

  ASSERT_EQ(batch.rhs.size(), 1u);
  EXPECT_TRUE(bits_equal(xs, xb));
  EXPECT_EQ(solo.iterations, batch.rhs[0].iterations);
  EXPECT_EQ(solo.converged, batch.rhs[0].converged);
  EXPECT_EQ(solo.residual_norm, batch.rhs[0].residual_norm);
}

TEST(SharedBatch, CaCgB1BitwiseEqualSingle) {
  const auto A = sparse::stencil_1d(384, 1);
  const auto B = panel_for(A, 1, 7);
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    for (auto basis : {CaCgBasis::kMonomial, CaCgBasis::kNewton}) {
      CaCgOptions opt;
      opt.s = 4;
      opt.tol = 1e-10;
      opt.mode = mode;
      opt.basis = basis;
      std::vector<double> xs(A.n, 0.0), xb(A.n, 0.0);

      const auto solo = krylov::ca_cg(A, B, xs, opt);
      const auto batch = krylov::ca_cg_batch(A, B, xb, 1, opt);

      ASSERT_EQ(batch.rhs.size(), 1u);
      EXPECT_TRUE(bits_equal(xs, xb))
          << "mode=" << int(mode) << " basis=" << int(basis);
      EXPECT_EQ(solo.iterations, batch.rhs[0].iterations);
      EXPECT_EQ(solo.converged, batch.rhs[0].converged);
    }
  }
}

// ---- per-RHS early exit perturbs nothing --------------------------------

TEST(SharedBatch, EarlyExitLeavesOthersBitwise) {
  // RHS 0 is identically zero: it converges before the first
  // iteration and drops out of the batch, while RHS 1 runs the full
  // solve.  Independence means RHS 1's iterate is bitwise-equal to a
  // solo solve at every point after the dropout.
  const auto A = sparse::stencil_1d(384, 1);
  const std::size_t n = A.n;
  const auto hard = panel_for(A, 1, 23);
  std::vector<double> B(2 * n, 0.0);
  std::copy(hard.begin(), hard.end(), B.begin() + std::ptrdiff_t(n));

  {
    std::vector<double> xs(n, 0.0), xb(2 * n, 0.0);
    const auto solo = krylov::cg(A, hard, xs, 200, 1e-10);
    const auto batch = krylov::cg_batch(A, B, xb, 2, 200, 1e-10);
    EXPECT_TRUE(batch.rhs[0].converged);
    EXPECT_EQ(batch.rhs[0].iterations, 0u);
    EXPECT_EQ(solo.iterations, batch.rhs[1].iterations);
    EXPECT_TRUE(bits_equal(xs, std::span<const double>(xb).subspan(n, n)));
  }
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    CaCgOptions opt;
    opt.s = 4;
    opt.tol = 1e-10;
    opt.mode = mode;
    std::vector<double> xs(n, 0.0), xb(2 * n, 0.0);
    const auto solo = krylov::ca_cg(A, hard, xs, opt);
    const auto batch = krylov::ca_cg_batch(A, B, xb, 2, opt);
    EXPECT_TRUE(batch.rhs[0].converged);
    EXPECT_EQ(batch.rhs[0].iterations, 0u);
    EXPECT_EQ(solo.iterations, batch.rhs[1].iterations);
    EXPECT_TRUE(bits_equal(xs, std::span<const double>(xb).subspan(n, n)));
  }
}

// ---- distributed batch: b = 1 reduces exactly, bits and counters --------

void expect_counters_equal(const dist::Machine& a, const dist::Machine& b) {
  ASSERT_EQ(a.nprocs(), b.nprocs());
  for (std::size_t p = 0; p < a.nprocs(); ++p) {
    const dist::ProcTraffic& u = a.proc(p);
    const dist::ProcTraffic& v = b.proc(p);
    const auto eq = [&](const dist::ChanCount& c, const dist::ChanCount& d,
                        const char* ch) {
      EXPECT_EQ(c.words, d.words) << "proc " << p << " " << ch;
      EXPECT_EQ(c.messages, d.messages) << "proc " << p << " " << ch;
    };
    eq(u.nw, v.nw, "nw");
    eq(u.l3_read, v.l3_read, "l3_read");
    eq(u.l3_write, v.l3_write, "l3_write");
    eq(u.l2_read, v.l2_read, "l2_read");
    eq(u.l2_write, v.l2_write, "l2_write");
  }
}

TEST(DistBatch, B1BitwiseEqualSingle) {
  const auto A = sparse::stencil_1d(130, 1);
  const auto B = panel_for(A, 1, 5);
  for (std::size_t P : {std::size_t(1), std::size_t(4), std::size_t(6)}) {
    {
      dist::Machine ms = make_machine(P), mb = make_machine(P);
      std::vector<double> xs(A.n, 0.0), xb(A.n, 0.0);
      const auto solo = dist::cg(ms, A, B, xs, 200, 1e-10);
      const auto batch = dist::cg_batch(mb, A, B, xb, 1, 200, 1e-10);
      EXPECT_TRUE(bits_equal(xs, xb)) << "cg P=" << P;
      EXPECT_EQ(solo.iterations, batch.rhs[0].iterations);
      expect_counters_equal(ms, mb);
    }
    for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
      CaCgOptions opt;
      opt.s = 4;
      opt.tol = 1e-10;
      opt.mode = mode;
      dist::Machine ms = make_machine(P), mb = make_machine(P);
      std::vector<double> xs(A.n, 0.0), xb(A.n, 0.0);
      const auto solo = dist::ca_cg(ms, A, B, xs, opt);
      const auto batch = dist::ca_cg_batch(mb, A, B, xb, 1, opt);
      EXPECT_TRUE(bits_equal(xs, xb))
          << "ca_cg P=" << P << " mode=" << int(mode);
      EXPECT_EQ(solo.iterations, batch.rhs[0].iterations);
      expect_counters_equal(ms, mb);
    }
  }
}

// The distributed solvers walk A once per group of up to kRhsGroup
// active RHS; these batch sizes straddle every group boundary.
constexpr std::size_t kGroup = dist::kRhsGroup;
constexpr std::size_t kBatchSizes[] = {1, 3, kGroup, kGroup + 1,
                                       2 * kGroup + 1};

/// panel_for with RHS 1 zeroed: it converges at the first check, so
/// the active set regroups around it from the first iteration on.
std::vector<double> panel_with_zero(const sparse::Csr& A, std::size_t nrhs,
                                    unsigned seed) {
  std::vector<double> B = panel_for(A, nrhs, seed);
  if (nrhs > 1) {
    std::fill(B.begin() + std::ptrdiff_t(A.n),
              B.begin() + std::ptrdiff_t(2 * A.n), 0.0);
  }
  return B;
}

TEST(DistBatch, P1BitwiseEqualSharedBatch) {
  const sparse::Csr mats[] = {sparse::stencil_1d(130, 1),
                              sparse::small_world_graph(300, 2, 6, 3)};
  for (const sparse::Csr& A : mats) {
    for (const std::size_t nrhs : kBatchSizes) {
      const auto B = panel_with_zero(A, nrhs, 13);
      {
        dist::Machine m = make_machine(1);
        std::vector<double> xd(A.n * nrhs, 0.0), xs(A.n * nrhs, 0.0);
        const auto rd = dist::cg_batch(m, A, B, xd, nrhs, 200, 1e-10);
        const auto rs = krylov::cg_batch(A, B, xs, nrhs, 200, 1e-10);
        EXPECT_TRUE(bits_equal(xd, xs)) << "cg n=" << A.n << " b=" << nrhs;
        for (std::size_t j = 0; j < nrhs; ++j) {
          EXPECT_EQ(rd.rhs[j].iterations, rs.rhs[j].iterations)
              << "cg n=" << A.n << " b=" << nrhs << " rhs " << j;
        }
      }
      for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
        CaCgOptions opt;
        opt.s = 4;
        opt.tol = 1e-10;
        opt.mode = mode;
        dist::Machine m = make_machine(1);
        std::vector<double> xd(A.n * nrhs, 0.0), xs(A.n * nrhs, 0.0);
        const auto rd = dist::ca_cg_batch(m, A, B, xd, nrhs, opt);
        const auto rs = krylov::ca_cg_batch(A, B, xs, nrhs, opt);
        EXPECT_TRUE(bits_equal(xd, xs))
            << "n=" << A.n << " b=" << nrhs << " mode=" << int(mode);
        for (std::size_t j = 0; j < nrhs; ++j) {
          EXPECT_EQ(rd.rhs[j].iterations, rs.rhs[j].iterations)
              << "n=" << A.n << " b=" << nrhs << " mode=" << int(mode)
              << " rhs " << j;
        }
      }
    }
  }
}

TEST(DistBatch, RestartsBitwiseEqualSharedBatch) {
  // A monomial basis at s = 10 on a radius-2 stencil breaks down on
  // RHS 2 again and again (26 times per mode): its recovered residual
  // overshoots, the outer iteration rolls back to its entry iterates,
  // classical CG steps stand in for it, and it retires at the restart
  // cap.  RHS 3 repeats RHS 2, so every roll-back and fallback step
  // runs two RHS at once.  No other case runs that path against an
  // independent implementation.
  const auto A = sparse::stencil_1d(2048, 2);
  const std::size_t n = A.n, nrhs = 4;
  std::vector<double> B = panel_for(A, 3, 33);
  B.resize(nrhs * n);
  std::copy_n(B.begin() + std::ptrdiff_t(2 * n), n,
              B.begin() + std::ptrdiff_t(3 * n));
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    CaCgOptions opt;
    opt.s = 10;
    opt.tol = 1e-9;
    opt.max_outer = 400;
    opt.mode = mode;
    opt.basis = CaCgBasis::kMonomial;
    dist::Machine m = make_machine(1);
    std::vector<double> xd(A.n * nrhs, 0.0), xs(A.n * nrhs, 0.0);
    const auto rd = dist::ca_cg_batch(m, A, B, xd, nrhs, opt);
    const auto rs = krylov::ca_cg_batch(A, B, xs, nrhs, opt);
    EXPECT_TRUE(bits_equal(xd, xs)) << "mode=" << int(mode);
    const std::span<const double> xv(xd);
    EXPECT_TRUE(bits_equal(xv.subspan(2 * n, n), xv.subspan(3 * n, n)))
        << "mode=" << int(mode);
    for (std::size_t j = 0; j < nrhs; ++j) {
      EXPECT_EQ(rd.rhs[j].iterations, rs.rhs[j].iterations)
          << "mode=" << int(mode) << " rhs " << j;
      EXPECT_EQ(rd.rhs[j].converged, rs.rhs[j].converged)
          << "mode=" << int(mode) << " rhs " << j;
    }
  }
}

TEST(DistBatch, GraphBatchBitwiseEqualSolo) {
  // Each RHS of a batch one wider than a group, on the P = 4 graph
  // partition, is bitwise the same solve run alone: its group,
  // neighbours and the zero RHS that drops out change nothing.
  const auto A = sparse::small_world_graph(300, 2, 6, 3);
  const std::size_t n = A.n, nrhs = kGroup + 1;
  const auto B = panel_with_zero(A, nrhs, 19);
  const auto part = dist::make_partition(4, A);
  ASSERT_NE(part->graph(), nullptr);
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    CaCgOptions opt;
    opt.s = 4;
    opt.tol = 1e-10;
    opt.mode = mode;
    dist::Machine mb = make_machine(4);
    std::vector<double> xb(n * nrhs, 0.0);
    const auto batch = dist::ca_cg_batch(mb, *part, A, B, xb, nrhs, opt);
    for (std::size_t j = 0; j < nrhs; ++j) {
      dist::Machine ms = make_machine(4);
      std::vector<double> xs(n, 0.0);
      const auto solo = dist::ca_cg(
          ms, *part, A, std::span<const double>(B).subspan(j * n, n), xs, opt);
      EXPECT_TRUE(bits_equal(xs, std::span<const double>(xb).subspan(j * n, n)))
          << "mode=" << int(mode) << " rhs " << j;
      EXPECT_EQ(solo.iterations, batch.rhs[j].iterations)
          << "mode=" << int(mode) << " rhs " << j;
      EXPECT_EQ(solo.converged, batch.rhs[j].converged)
          << "mode=" << int(mode) << " rhs " << j;
    }
  }
}

TEST(DistBatch, BoxBatchBitwiseEqualSolo) {
  // The box-partition twin: a layered 3-D mesh on P = 4, whose
  // streaming bits depend on how each 12 x 12 x 8 tile is cut into
  // chunks.  With M2 = 16,384 words the default chunks grow past the
  // floor (2 mesh lines) to fit M2; the rule reads neither nrhs nor the
  // group, so each RHS of a 9-wide batch is bitwise the same solve run
  // alone.
  const auto A = sparse::poisson_3d(24, 24, 8);
  const std::size_t n = A.n, nrhs = kGroup + 1, P = 4;
  const auto B = panel_with_zero(A, nrhs, 23);
  const auto part = dist::make_partition(P, A);
  ASSERT_EQ(part->owned(0).dy(), 12u);
  const auto machine = [&] {
    return std::make_unique<dist::Machine>(P, 192, 16384, 1 << 24,
                                           dist::HwParams{});
  };
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    CaCgOptions opt;
    opt.s = 4;
    opt.tol = 1e-10;
    opt.mode = mode;
    const auto mb = machine();
    std::vector<double> xb(n * nrhs, 0.0);
    const auto batch = dist::ca_cg_batch(*mb, *part, A, B, xb, nrhs, opt);
    for (std::size_t j = 0; j < nrhs; ++j) {
      const auto ms = machine();
      std::vector<double> xs(n, 0.0);
      const auto bj = std::span<const double>(B).subspan(j * n, n);
      const auto solo = dist::ca_cg(*ms, *part, A, bj, xs, opt);
      EXPECT_TRUE(bits_equal(xs, std::span<const double>(xb).subspan(j * n, n)))
          << "mode=" << int(mode) << " rhs " << j;
      EXPECT_EQ(solo.iterations, batch.rhs[j].iterations)
          << "mode=" << int(mode) << " rhs " << j;
      EXPECT_EQ(solo.converged, batch.rhs[j].converged)
          << "mode=" << int(mode) << " rhs " << j;
      if (mode == CaCgMode::kStreaming && j == 0) {
        // The chunks did grow: cut at the floor, the solo reads more.
        CaCgOptions at_floor = opt;
        at_floor.block_rows = 256;
        const auto mf = machine();
        std::vector<double> xf(n, 0.0);
        dist::ca_cg(*mf, *part, A, bj, xf, at_floor);
        EXPECT_LT(ms->proc(0).l3_read.words, mf->proc(0).l3_read.words);
      }
    }
  }
}

TEST(DistBatch, EarlyExitLeavesOthersBitwise) {
  const auto A = sparse::stencil_1d(130, 1);
  const std::size_t n = A.n;
  const auto hard = panel_for(A, 1, 17);
  std::vector<double> B(2 * n, 0.0);
  std::copy(hard.begin(), hard.end(), B.begin() + std::ptrdiff_t(n));
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    CaCgOptions opt;
    opt.s = 4;
    opt.tol = 1e-10;
    opt.mode = mode;
    dist::Machine ms = make_machine(4), mb = make_machine(4);
    std::vector<double> xs(n, 0.0), xb(2 * n, 0.0);
    const auto solo = dist::ca_cg(ms, A, hard, xs, opt);
    const auto batch = dist::ca_cg_batch(mb, A, B, xb, 2, opt);
    EXPECT_TRUE(batch.rhs[0].converged);
    EXPECT_EQ(batch.rhs[0].iterations, 0u);
    EXPECT_EQ(solo.iterations, batch.rhs[1].iterations);
    EXPECT_TRUE(bits_equal(xs, std::span<const double>(xb).subspan(n, n)));
  }
}

TEST(DistBatch, CountersAndBitsIdenticalSerialVsThreaded) {
  const auto A = sparse::stencil_1d(130, 1);
  const std::size_t nrhs = 3;
  const auto B = panel_for(A, nrhs, 29);
  for (std::size_t P : {std::size_t(4), std::size_t(6)}) {
    for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
      CaCgOptions opt;
      opt.s = 4;
      opt.tol = 1e-10;
      opt.mode = mode;
      dist::Machine serial =
          make_machine(P, std::make_unique<dist::SerialSimBackend>());
      std::vector<double> x_serial(A.n * nrhs, 0.0);
      dist::ca_cg_batch(serial, A, B, x_serial, nrhs, opt);

      dist::Machine threaded =
          make_machine(P, std::make_unique<dist::ThreadedBackend>(4));
      std::vector<double> x_threaded(A.n * nrhs, 0.0);
      dist::ca_cg_batch(threaded, A, B, x_threaded, nrhs, opt);

      EXPECT_TRUE(bits_equal(x_serial, x_threaded))
          << "P=" << P << " mode=" << int(mode);
      expect_counters_equal(serial, threaded);
    }
  }
}

// ---- the amortization pin: counters vs closed forms ---------------------

struct BatchRun {
  std::uint64_t l3_read, l3_write, nw_words, nw_messages;
  std::uint64_t total_messages;
};

/// Fixed-outer batched CA-CG run; per-rank counters read at interior
/// rank 1, messages also summed machine-wide.
BatchRun run_batch(const sparse::Csr& A, std::size_t P, std::size_t b,
                   const CaCgOptions& opt, unsigned seed) {
  dist::Machine m = make_machine(P);
  const auto B = panel_for(A, b, seed);
  std::vector<double> X(A.n * b, 0.0);
  const auto res = dist::ca_cg_batch(m, A, B, X, b, opt);
  for (std::size_t j = 0; j < b; ++j) {
    // tol = 0 and a fixed outer budget: every RHS runs all s *
    // max_outer inner steps, so the counter decomposition below sees
    // the same event sequence at every b (no restarts slipped in).
    EXPECT_EQ(res.rhs[j].iterations, opt.s * opt.max_outer) << "rhs " << j;
  }
  const dist::ProcTraffic& t = m.proc(1);
  std::uint64_t msgs = 0;
  for (std::size_t p = 0; p < P; ++p) msgs += m.proc(p).nw.messages;
  return {t.l3_read.words, t.l3_write.words, t.nw.words, t.nw.messages, msgs};
}

TEST(DistBatchAmortization, CountersMatchClosedFormsAtB16) {
  const std::size_t n = 1 << 12, P = 4, s = 4, r = 1;
  const auto A = sparse::stencil_1d(n, r);
  CaCgOptions opt;
  opt.s = s;
  opt.tol = 0.0;  // never converge: fixed 5-outer event sequence
  opt.max_outer = 5;
  opt.mode = CaCgMode::kStored;
  const double outers = double(opt.max_outer);

  const BatchRun r1 = run_batch(A, P, 1, opt, 41);
  const BatchRun r16 = run_batch(A, P, 16, opt, 41);

  // Messages are per-event and b-independent: 16 solves ride the
  // exact same exchanges and allreduces one solve needs, so the
  // messages-per-solve amortization is exactly 16x >= 4x.
  EXPECT_EQ(r16.nw_messages, r1.nw_messages);
  EXPECT_EQ(r16.total_messages, r1.total_messages);
  EXPECT_GE(double(r1.total_messages) / (double(r16.total_messages) / 16.0),
            4.0);

  // Machine-wide message total against the per-outer closed form plus
  // the one-time setup (one depth-r exchange + two allreduces).
  const double rounds0 = double(dist::Machine::bcast_rounds(P));
  const auto rows = dist::make_partition(P, A, dist::PartitionKind::kRows1D);
  const std::size_t transfers_s = rows->halo(s * r).size();
  const std::size_t transfers_1 = rows->halo(r).size();
  const double msgs_model =
      2.0 * double(transfers_1) + 2.0 * (2.0 * double(P) * rounds0) +
      outers * dist::cacg_model_network_messages_per_outer(P, transfers_s);
  EXPECT_DOUBLE_EQ(double(r16.total_messages), msgs_model);

  // Per-RHS channels scale exactly linearly in b: W12 and network
  // words per solve are FLAT (each RHS writes and ships its own
  // panels), which is the honest reading of the 1/b claim.
  EXPECT_EQ(r16.l3_write, 16 * r1.l3_write);
  EXPECT_EQ(r16.nw_words, 16 * r1.nw_words);

  // Shared-vs-per-RHS read split: reads(b) = A_shared + b * V, so two
  // runs recover both components exactly.
  ASSERT_GT(16 * r1.l3_read, r16.l3_read);
  const double a_shared = double(16 * r1.l3_read - r16.l3_read) / 15.0;
  const double awords_measured_per_outer = a_shared / outers;
  const double awords_model_per_outer =
      dist::cacg_model_awords_per_outer(n, P, s, r);
  EXPECT_NEAR(awords_measured_per_outer, awords_model_per_outer,
              0.1 * awords_model_per_outer);

  // Acceptance: per-solve A-words at b = 16 within 1.3x the amortized
  // model and >= 4x below the b = 1 per-solve cost.
  const double awords_per_solve_b16 = a_shared / 16.0;
  EXPECT_LE(awords_per_solve_b16,
            1.3 * outers *
                dist::cacg_batch_model_awords_per_solve(n, P, s, r, opt.mode,
                                                        16));
  EXPECT_GE(a_shared / awords_per_solve_b16, 4.0);

  // W12 per solve per step within 1.3x the (flat) closed form; the
  // slack absorbs the one-time setup writes.
  const double steps = outers * double(s);
  const double w12_per_solve_per_step = double(r16.l3_write) / 16.0 / steps;
  const double w12_model = dist::cacg_model_writes_per_step(n, P, s, opt.mode);
  EXPECT_LE(w12_per_solve_per_step, 1.3 * w12_model);
  EXPECT_GE(w12_per_solve_per_step, w12_model);

  // Halo words per solve per outer: strip the allreduce share and the
  // one-time setup exchange from rank 1's network words, then pin the
  // remainder against the flat closed form exactly -- p's ghosts at
  // depth s*r and r's at (s-1)*r, sent and received: 2 (8 + 6) = 28.
  const double rounds = double(dist::Machine::bcast_rounds(P));
  const std::size_t mm = 2 * s + 1;
  const double gram = double(mm * (mm + 1) / 2);
  // Per solve: setup ships two allreduces of one word each, every
  // outer ships the Gram triangle + the recomputed delta.
  const double allred_outer = 2.0 * rounds * (gram + 1.0);
  const double allred_words = 2.0 * rounds * 2.0 + outers * allred_outer;
  const double setup_halo =
      2.0 * dist::halo_words_1d_model(n, P, r);  // sent + received, 1 vector
  const double halo_per_solve_per_outer =
      (double(r16.nw_words) / 16.0 - allred_words - setup_halo) / outers;
  const double halo_model =
      dist::cacg_model_network_words_per_outer(
          P, s, dist::halo_words_1d_model(n, P, s * r),
          dist::halo_words_1d_model(n, P, (s - 1) * r)) -
      allred_outer;
  EXPECT_DOUBLE_EQ(halo_per_solve_per_outer, halo_model);
  EXPECT_DOUBLE_EQ(halo_model, 2.0 * (2.0 * s * r + 2.0 * (s - 1) * r));
}

// ---- the request-level autotuner ----------------------------------------

TEST(KrylovAutotuner, CachesPlansByFingerprintAndBatch) {
  dist::KrylovAutotuner tuner{dist::HwParams{}};
  const auto A = sparse::stencil_1d(1 << 12, 1);
  const auto& p1 = tuner.plan(A, 4, 8);
  EXPECT_EQ(tuner.misses(), 1u);
  EXPECT_EQ(tuner.hits(), 0u);
  const auto& p2 = tuner.plan(A, 4, 8);
  EXPECT_EQ(tuner.misses(), 1u);
  EXPECT_EQ(tuner.hits(), 1u);
  EXPECT_EQ(p1.algorithm, p2.algorithm);
  // A different matrix with the SAME fingerprint is a hit, not a
  // re-plan: the cache keys on operator identity, not object address.
  const auto A_again = sparse::stencil_1d(1 << 12, 1);
  EXPECT_TRUE(dist::fingerprint(A) == dist::fingerprint(A_again));
  tuner.plan(A_again, 4, 8);
  EXPECT_EQ(tuner.hits(), 2u);
  // Changing the batch size or rank count re-tunes.
  tuner.plan(A, 4, 1);
  tuner.plan(A, 6, 8);
  EXPECT_EQ(tuner.misses(), 3u);
}

TEST(KrylovAutotuner, PlanMatchesOperatorGeometry) {
  dist::KrylovAutotuner tuner{dist::HwParams{}};
  const auto A1 = sparse::stencil_1d(1 << 12, 1);
  const auto A2 = sparse::stencil_2d_cross(64, 64, 1);
  EXPECT_EQ(tuner.plan(A1, 4, 8).partition, dist::PartitionKind::kRows1D);
  EXPECT_EQ(tuner.plan(A2, 4, 8).partition, dist::PartitionKind::kBlocks2D);
  const auto A3d = sparse::poisson_3d(16, 16, 4);
  EXPECT_EQ(tuner.plan(A3d, 4, 8).partition, dist::PartitionKind::kBlocks2D);
  EXPECT_EQ(tuner.plan(A1, 4, 8).backend, "threaded");
  EXPECT_EQ(tuner.plan(A1, 2, 8).backend, "serial");
  // Geometry-free operators plan onto the graph partition, scored
  // from the counted s-hop ghost words (the miss builds the
  // partition once; repeats hit the cache without re-partitioning).
  const auto A3 = sparse::random_spd_graph(1 << 10, 6, 3);
  EXPECT_EQ(tuner.plan(A3, 4, 8).partition, dist::PartitionKind::kGraph);
  const std::size_t misses = tuner.misses();
  tuner.plan(A3, 4, 8);
  EXPECT_EQ(tuner.misses(), misses);
}

TEST(KrylovAutotuner, SlowNvmPrefersWriteAvoidingCaCg) {
  // With NVM writes 30x the network beta, the streaming CA-CG's
  // Theta(s) write reduction dominates every candidate.
  dist::KrylovAutotuner tuner{dist::HwParams::slow_nvm()};
  const auto A = sparse::stencil_1d(1 << 14, 1);
  const auto& p = tuner.plan(A, 4, 8);
  EXPECT_EQ(p.algorithm, "ca-cg");
  EXPECT_EQ(p.mode, krylov::CaCgMode::kStreaming);
  EXPECT_GE(p.s, 2u);
  // Batching never makes the modelled per-solve step slower: the
  // shared A-stream and message latency only shrink with b.
  const double t1 = tuner.plan(A, 4, 1).predicted_seconds;
  const double t16 = tuner.plan(A, 4, 16).predicted_seconds;
  EXPECT_LE(t16, t1);
}

// ---- replication-factor (c) planning ------------------------------------

/// Brute force over every candidate replication factor: c | P,
/// c^3 <= P, and the 3c n^2 / P replica blocks fit in M3 words of
/// NVM; argmin of the dominant 2.5DMML3ooL2 beta cost.  The planner's
/// closed form must agree exactly.
std::size_t brute_force_c(std::size_t n, std::size_t P, std::size_t M2,
                          std::size_t M3, const dist::HwParams& hw) {
  std::size_t best = 1;
  double best_t = dist::dom_beta_cost_25dmml3ool2(n, P, M2, 1, hw);
  for (std::size_t c = 2; c <= P; ++c) {
    if (P % c != 0 || c * c * c > P) continue;
    if (3.0 * double(c) * double(n) * double(n) > double(M3) * double(P)) {
      continue;
    }
    const double t = dist::dom_beta_cost_25dmml3ool2(n, P, M2, c, hw);
    if (t < best_t) {
      best_t = t;
      best = c;
    }
  }
  return best;
}

TEST(ReplicationPlanning, MatchesBruteForceTradeoff) {
  const dist::HwParams hw{};
  for (const std::size_t P : {1u, 4u, 64u, 4096u}) {
    for (const std::size_t n : {1u << 10, 1u << 14}) {
      for (const std::size_t M3 : {std::size_t(1) << 20,
                                   std::size_t(1) << 26,
                                   std::size_t(1) << 34}) {
        EXPECT_EQ(dist::choose_replication(n, P, 1 << 22, M3, hw),
                  brute_force_c(n, P, 1 << 22, M3, hw))
            << "P=" << P << " n=" << n << " M3=" << M3;
      }
    }
  }
}

TEST(ReplicationPlanning, ReplicatesWhenMemoryAllows) {
  // P >> c^3 with ample NVM: Eq. (2)'s 1/sqrt(Pc) word shrink wins
  // and the planner deploys replicas.
  const dist::HwParams hw{};
  const std::size_t c =
      dist::choose_replication(1 << 14, 4096, 1 << 22, std::size_t(1) << 34,
                               hw);
  EXPECT_GT(c, 1u);
  EXPECT_EQ(4096 % c, 0u);
  EXPECT_LE(c * c * c, 4096u);
}

TEST(ReplicationPlanning, CapacityBoundForcesCDown) {
  // n = 4096, P = 64: one replica set is 3 n^2 / P = 786432 words.
  // M3 = 2^20 fits exactly one -- any c >= 2 would overflow NVM, so
  // the trade-off must stop at c = 1 no matter what the betas say.
  const dist::HwParams hw = dist::HwParams::slow_nvm();
  EXPECT_EQ(dist::choose_replication(4096, 64, 1 << 22,
                                     std::size_t(1) << 20, hw),
            1u);
  // Quadruple the capacity and the constraint releases.
  EXPECT_GE(dist::choose_replication(4096, 64, 1 << 22,
                                     std::size_t(1) << 22, hw),
            dist::choose_replication(4096, 64, 1 << 22,
                                     std::size_t(1) << 20, hw));
}

TEST(ReplicationPlanning, PlannerExposesTheClosedFormC) {
  const dist::HwParams hw{};
  dist::PlannerProblem prob;
  prob.n = 1 << 14;
  prob.P = 4096;
  prob.M3 = std::size_t(1) << 30;
  const dist::Planner planner(hw, prob);
  EXPECT_EQ(planner.best_replication(),
            dist::choose_replication(prob.n, prob.P, prob.M2, prob.M3, hw));
}

}  // namespace
}  // namespace wa
