// Tests for the distributed machine and the Section 7 algorithms:
// numerics of every parallel matmul/LU variant and the headline
// counter claims (W1 vs W2 writes to L2, Theorem 4 trade-off, LU
// NVM-write asymmetry).  Topology (ProcessGrid) and execution
// backend (serial vs threaded) specifics live in dist_grid_test.cpp;
// the cost-model regression guard in dist_cost_model_test.cpp.

#include <gtest/gtest.h>

#include "bounds/bounds.hpp"
#include "dist/cost_model.hpp"
#include "dist/lu.hpp"
#include "dist/machine.hpp"
#include "dist/mm25d.hpp"
#include "dist/summa.hpp"
#include "linalg/kernels.hpp"

namespace wa::dist {
namespace {

using linalg::Matrix;

Matrix<double> reference_product(const Matrix<double>& a,
                                 const Matrix<double>& b) {
  Matrix<double> c(a.rows(), b.cols(), 0.0);
  linalg::gemm_acc(c.view(), a.view(), b.view());
  return c;
}

Machine small_machine(std::size_t P = 16) {
  return Machine(P, /*M1=*/192, /*M2=*/4096, /*M3=*/1 << 22);
}

TEST(MachineTest, ValidatesConfig) {
  EXPECT_THROW(Machine(0, 10, 100, 1000), std::invalid_argument);
  EXPECT_THROW(Machine(4, 100, 100, 1000), std::invalid_argument);
}

TEST(MachineTest, SendCountsBothEndpoints) {
  auto m = small_machine(4);
  m.send(0, 1, 100);
  EXPECT_EQ(m.proc(0).nw.words, 100u);
  EXPECT_EQ(m.proc(1).nw.words, 100u);
  EXPECT_EQ(m.proc(2).nw.words, 0u);
}

TEST(MachineTest, BcastBinomialCost) {
  auto m = small_machine(4);
  m.bcast({0, 1, 2, 3}, 50);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(m.proc(p).nw.words, 100u);  // log2(4) * 50
    EXPECT_EQ(m.proc(p).nw.messages, 2u);
  }
}

TEST(MachineTest, ZeroWordTransfersChargeNothing) {
  auto m = small_machine(4);
  m.send(0, 1, 0);
  m.bcast({0, 1, 2, 3}, 0);
  m.reduce({0, 1, 2, 3}, 0);
  for (std::size_t p = 0; p < 4; ++p) {
    const ProcTraffic& t = m.proc(p);
    for (const ChanCount* ch :
         {&t.nw, &t.l3_read, &t.l3_write, &t.l2_read, &t.l2_write}) {
      EXPECT_EQ(ch->words, 0u) << "rank " << p;
      EXPECT_EQ(ch->messages, 0u) << "rank " << p;
    }
  }

  // mm_25d's chunked replication at P=16, c=4, n=3 cuts rank 15's
  // 1-word fiber block into four pieces, three of them empty: it must
  // cost the same 6 messages (A, B and C, two rounds each) as sending
  // the block whole.
  const std::size_t n = 3;
  Matrix<double> a(n, n), b(n, n);
  linalg::fill_random(a, 3);
  linalg::fill_random(b, 4);
  ProcTraffic rank15[2];
  for (const std::size_t chunk : {0u, 1u}) {
    auto mc = small_machine(16);
    Matrix<double> c(n, n, 0.0);
    mm_25d(mc, c.view(), a.view(), b.view(),
           Mm25dOptions{4, false, false, chunk});
    rank15[chunk] = mc.proc(15);
  }
  EXPECT_EQ(rank15[0].nw.messages, 6u);
  EXPECT_EQ(rank15[1].nw.messages, rank15[0].nw.messages);
  EXPECT_EQ(rank15[1].nw.words, rank15[0].nw.words);
}

TEST(MachineTest, CostUsesMaxOverProcessors) {
  auto m = small_machine(4);
  m.send(0, 1, 1000000);
  const double c = m.cost();
  EXPECT_GT(c, 0.0);
  EXPECT_DOUBLE_EQ(c, m.proc_cost(0));
}

TEST(MachineTest, RunLocalAbsorbsHierarchyTraffic) {
  auto m = small_machine(4);
  m.run_local(2, [](memsim::Hierarchy& h) {
    h.load(0, 10);
    h.store(0, 10);
  });
  EXPECT_EQ(m.proc(2).l2_read.words, 10u);
  EXPECT_EQ(m.proc(2).l2_write.words, 10u);
}

// ---- SUMMA (Model 1) ---------------------------------------------------

TEST(Summa2d, Numerics) {
  const std::size_t n = 32;
  auto m = small_machine(16);
  Matrix<double> a(n, n), b(n, n), c(n, n, 0.0);
  linalg::fill_random(a, 1);
  linalg::fill_random(b, 2);
  summa_2d(m, c.view(), a.view(), b.view());
  EXPECT_LT(max_abs_diff(c, reference_product(a, b)), 1e-11);
}

TEST(Summa2d, LocalL2WritesAreW2NotW1) {
  const std::size_t n = 64, P = 16;
  auto m = small_machine(P);
  Matrix<double> a(n, n), b(n, n), c(n, n, 0.0);
  summa_2d(m, c.view(), a.view(), b.view());
  // The paper: each processor writes its C block once per SUMMA step,
  // sqrt(P) times in total => n^2/sqrt(P) local L2 writes, not n^2/P.
  const std::uint64_t w = m.proc(0).l2_write.words;
  EXPECT_GE(w, std::uint64_t(n) * n / 4 / 1);  // ~ n^2/sqrt(P) = n^2/4
  EXPECT_GT(w, 2 * bounds::parallel_w1(n, P));
}

TEST(Summa2dHoarding, AttainsW1WithExtraMemory) {
  const std::size_t n = 64, P = 16;
  auto m = small_machine(P);
  Matrix<double> a(n, n), b(n, n), c(n, n, 0.0);
  linalg::fill_random(a, 3);
  linalg::fill_random(b, 4);
  summa_2d_hoarding(m, c.view(), a.view(), b.view());
  EXPECT_LT(max_abs_diff(c, reference_product(a, b)), 1e-11);
  // One local multiply => local C written to L2 exactly once.
  EXPECT_EQ(m.proc(0).l2_write.words, std::uint64_t(n) * n / P);
}

TEST(Summa2d, RunsOnNonSquarePWithIndivisibleN) {
  // P = 6 is factored into a 2 x 3 grid; n = 31 is divisible by
  // neither grid dimension (padded edge blocks).  The old subsystem
  // rejected both.
  const std::size_t n = 31;
  auto m = small_machine(6);
  Matrix<double> a(n, n), b(n, n), c(n, n, 0.0);
  linalg::fill_random(a, 14);
  linalg::fill_random(b, 15);
  summa_2d(m, c.view(), a.view(), b.view());
  EXPECT_LT(max_abs_diff(c, reference_product(a, b)), 1e-11);
  for (std::size_t p = 0; p < 6; ++p) EXPECT_GT(m.proc(p).nw.words, 0u);
}

TEST(Summa2d, NetworkWordsMatch2dModel) {
  const std::size_t n = 64, P = 16;
  auto m = small_machine(P);
  Matrix<double> a(n, n), b(n, n), c(n, n, 0.0);
  summa_2d(m, c.view(), a.view(), b.view());
  // 2 panels * sqrt(P) steps * log2(sqrt(P)) rounds * (n/sqrt(P))^2.
  const double model = 2.0 * 4 * 2 * (n / 4) * (n / 4);
  EXPECT_NEAR(double(m.proc(0).nw.words), model, model * 0.01);
}

// ---- 2.5D (Models 2.1/2.2) ---------------------------------------------

struct Mm25dCase {
  std::size_t P, c;
  bool use_l3, data_in_l3;
  const char* name;
};

class Mm25dSweep : public ::testing::TestWithParam<Mm25dCase> {};

TEST_P(Mm25dSweep, Numerics) {
  const auto& tc = GetParam();
  const std::size_t n = 48;
  auto m = small_machine(tc.P);
  Matrix<double> a(n, n), b(n, n), c(n, n, 0.0);
  linalg::fill_random(a, 5);
  linalg::fill_random(b, 6);
  Mm25dOptions opt;
  opt.c = tc.c;
  opt.use_l3 = tc.use_l3;
  opt.data_in_l3 = tc.data_in_l3;
  mm_25d(m, c.view(), a.view(), b.view(), opt);
  EXPECT_LT(max_abs_diff(c, reference_product(a, b)), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, Mm25dSweep,
    ::testing::Values(Mm25dCase{16, 1, false, false, "c1"},
                      Mm25dCase{64, 4, false, false, "c4_l2only"},
                      Mm25dCase{64, 4, true, false, "c4_via_l3"},
                      Mm25dCase{64, 4, true, true, "c4_ool2"},
                      Mm25dCase{64, 1, false, false, "P64_c1"}),
    [](const auto& info) { return info.param.name; });

TEST(Mm25d, ReplicationReducesNetworkWords) {
  // The replication overhead terms of Table 1 scale as c^2 log(c)/P,
  // so the 2.5D win requires P >> c^3 (the paper's regime).
  const std::size_t n = 128, P = 4096;
  Matrix<double> a(n, n), b(n, n);
  linalg::fill_random(a, 7);
  linalg::fill_random(b, 8);

  auto m1 = small_machine(P);
  Matrix<double> c1(n, n, 0.0);
  mm_25d(m1, c1.view(), a.view(), b.view(), Mm25dOptions{1, false, false, 0});

  auto m4 = small_machine(P);
  Matrix<double> c4(n, n, 0.0);
  mm_25d(m4, c4.view(), a.view(), b.view(), Mm25dOptions{4, false, false, 0});

  // The Cannon-phase traffic drops by ~sqrt(c); total including the
  // replication overhead must still drop for this problem size.
  EXPECT_LT(max_abs_diff(c1, c4), 1e-11);
  EXPECT_LT(double(m4.critical_path().nw.words),
            double(m1.critical_path().nw.words));
}

TEST(Mm25d, RejectsBadGeometry) {
  auto m = small_machine(16);
  Matrix<double> a(32, 32), b(32, 32), c(32, 32, 0.0);
  Mm25dOptions opt;
  opt.c = 3;  // 16 % 3 != 0
  EXPECT_THROW(mm_25d(m, c.view(), a.view(), b.view(), opt),
               std::invalid_argument);
}

// Theorem 4: an algorithm attaining the W2 network bound (2.5D ooL2)
// must write asymptotically more than W1 to NVM; SUMMAL3ooL2 attains
// W1 on NVM writes but pays in network words.
TEST(Theorem4, TradeoffIsRealized) {
  const std::size_t n = 64, P = 64;
  Matrix<double> a(n, n), b(n, n);
  linalg::fill_random(a, 9);
  linalg::fill_random(b, 10);

  auto m_25 = Machine(P, 48, 300, 1 << 22);
  Matrix<double> c_25(n, n, 0.0);
  mm_25d(m_25, c_25.view(), a.view(), b.view(),
         Mm25dOptions{4, true, true, 0});

  auto m_su = Machine(P, 48, 300, 1 << 22);
  Matrix<double> c_su(n, n, 0.0);
  summa_l3_ool2(m_su, c_su.view(), a.view(), b.view());

  EXPECT_LT(max_abs_diff(c_25, c_su), 1e-11);

  const double w1 = bounds::parallel_w1(n, P);
  // SUMMAL3ooL2 attains W1 on NVM writes (within a small constant)...
  EXPECT_LE(double(m_su.critical_path().l3_write.words), 2.0 * w1);
  // ...but moves far more network words than the 2.5D variant's
  // replication-assisted schedule would need per the W2 bound.
  EXPECT_GT(double(m_su.critical_path().nw.words),
            double(m_su.critical_path().l3_write.words));
  // The 2.5D ooL2 variant writes NVM well above W1 (Theorem 4).
  EXPECT_GT(double(m_25.critical_path().l3_write.words), 4.0 * w1);
}

// ---- LU (Section 7.2) --------------------------------------------------

TEST(LuLeftLooking, NumericsMatchReference) {
  const std::size_t n = 32;
  auto m = small_machine(16);
  auto a = linalg::random_spd(n, 11);
  auto ref = a;
  lu_left_looking(m, a.view(), /*b=*/2, /*s=*/2);
  linalg::lu_nopivot_unblocked(ref.view());
  EXPECT_LT(max_abs_diff(a, ref), 1e-8);
}

TEST(LuRightLooking, NumericsMatchReference) {
  const std::size_t n = 32;
  auto m = small_machine(16);
  auto a = linalg::random_spd(n, 12);
  auto ref = a;
  lu_right_looking(m, a.view(), /*b=*/4);
  linalg::lu_nopivot_unblocked(ref.view());
  EXPECT_LT(max_abs_diff(a, ref), 1e-8);
}

TEST(Lu, LeftLookingWritesEveryEntryToNvmExactlyOnce) {
  // The WA schedule's defining property, now checkable per rank:
  // summed over processors, the finished factors hit NVM exactly n^2
  // words -- no matter the grid shape or how n divides it.
  for (const std::size_t P : {1, 4, 6, 13, 16}) {
    const std::size_t n = 30;
    auto m = small_machine(P);
    auto a = linalg::random_spd(n, 17);
    lu_left_looking(m, a.view(), /*b=*/4, /*s=*/2);
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < P; ++p) total += m.proc(p).l3_write.words;
    EXPECT_EQ(total, std::uint64_t(n) * n) << "P=" << P;
  }
}

TEST(Lu, LeftLookingWritesLessNvmRightLookingLessNetwork) {
  const std::size_t n = 64, P = 16;
  auto a0 = linalg::random_spd(n, 13);

  auto m_ll = small_machine(P);
  auto a_ll = a0;
  lu_left_looking(m_ll, a_ll.view(), 2, 2);

  auto m_rl = small_machine(P);
  auto a_rl = a0;
  lu_right_looking(m_rl, a_rl.view(), 4);

  EXPECT_LT(max_abs_diff(a_ll, a_rl), 1e-8);

  const auto ll = m_ll.critical_path();
  const auto rl = m_rl.critical_path();
  // LL minimizes NVM writes; RL minimizes network words.
  EXPECT_LT(ll.l3_write.words, rl.l3_write.words);
  EXPECT_LT(rl.nw.words, ll.nw.words);
}

// ---- cost model sanity -------------------------------------------------

TEST(CostModel, Table1RowsOrdered) {
  const std::size_t n = 1 << 16, P = 1 << 20, M1 = 1 << 12, M2 = 1 << 18;
  const auto hw = HwParams{};
  const auto t2d = table1_2dmml2(n, P, M1);
  const auto t25_2 = table1_25dmml2(n, P, M1, 4);
  // Replication cuts the leading network term.
  EXPECT_LT(t25_2.nw_words, t2d.nw_words);
  const auto t25_3 = table1_25dmml3(n, P, M1, M2, 4, 16);
  EXPECT_LT(t25_3.nw_words, t25_2.nw_words);
  EXPECT_GT(t25_3.l3w_words, 0.0);
  EXPECT_GT(t25_3.time(hw), 0.0);
}

TEST(CostModel, Model21RatioMatchesPaperFormula) {
  const auto hw = HwParams::fast_nvm();
  const double r = model21_speedup_ratio(4, 16, hw);
  EXPECT_NEAR(r, 2.0 * hw.beta_nw /
                     (hw.beta_nw + 1.5 * hw.beta_23 + hw.beta_32),
              1e-12);
  // Fast NVM: replication through L3 predicted to win.
  EXPECT_GT(r, 1.0);
  // Slow NVM: it is predicted to lose.
  EXPECT_LT(model21_speedup_ratio(4, 16, HwParams::slow_nvm()), 1.0);
}

TEST(CostModel, Table2CrossoverDependsOnNvmSpeed) {
  // Needs n >> sqrt(P M2 / c3) for the 2.5D network saving to show.
  const std::size_t n = 1 << 17, P = 4096, M2 = 1 << 18;
  const std::size_t c3 = 16;
  // With very slow NVM writes, SUMMAL3ooL2 (few NVM writes) wins.
  {
    const auto hw = HwParams::slow_nvm();
    EXPECT_LT(dom_beta_cost_summal3ool2(n, P, M2, hw),
              dom_beta_cost_25dmml3ool2(n, P, M2, c3, hw));
  }
  // With NVM as fast as the network, the 2.5D variant wins.
  {
    auto hw = HwParams::fast_nvm();
    EXPECT_LT(dom_beta_cost_25dmml3ool2(n, P, M2, c3, hw),
              dom_beta_cost_summal3ool2(n, P, M2, hw));
  }
}

TEST(CostModel, LuDominantCostsMirrorTheTradeoff) {
  const std::size_t n = 1 << 13, P = 256, M2 = 1 << 16;
  const auto ll = lu_ll_cost(n, P, M2);
  const auto rl = lu_rl_cost(n, P, M2);
  EXPECT_LT(ll.l3w_words, rl.l3w_words);  // LL-LUNP: fewer NVM writes
  EXPECT_LT(rl.nw_words, ll.nw_words);    // RL-LUNP: fewer network words
}

}  // namespace
}  // namespace wa::dist
