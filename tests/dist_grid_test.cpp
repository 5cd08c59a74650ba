// Tests for the topology layer (ProcessGrid / ProcessGrid3D: rank
// mapping, padded block decomposition, k-panel refinement, irregular
// processor counts) and the execution layer (SerialSimBackend vs
// ThreadedBackend determinism, wall-clock accounting, capacity
// enforcement across threads) introduced by the dist refactor, plus
// the reduce-vs-bcast counter distinction.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/backend.hpp"
#include "dist/grid.hpp"
#include "dist/lu.hpp"
#include "dist/machine.hpp"
#include "dist/mm25d.hpp"
#include "dist/summa.hpp"
#include "linalg/kernels.hpp"
#include "linalg/local_kernels.hpp"

namespace wa::dist {
namespace {

using linalg::Matrix;

Matrix<double> reference_product(const Matrix<double>& a,
                                 const Matrix<double>& b) {
  Matrix<double> c(a.rows(), b.cols(), 0.0);
  linalg::gemm_acc(c.view(), a.view(), b.view());
  return c;
}

// ---- ProcessGrid -------------------------------------------------------

TEST(ProcessGrid2d, FactorsAnyPIntoNearSquareRectangles) {
  struct Case {
    std::size_t P, pr, pc;
  };
  for (const Case& tc : {Case{1, 1, 1}, Case{6, 2, 3}, Case{12, 3, 4},
                         Case{13, 1, 13}, Case{16, 4, 4}, Case{30, 5, 6},
                         Case{64, 8, 8}}) {
    ProcessGrid g(tc.P);
    EXPECT_EQ(g.rows(), tc.pr) << "P=" << tc.P;
    EXPECT_EQ(g.cols(), tc.pc) << "P=" << tc.P;
    EXPECT_EQ(g.size(), tc.P);
  }
  EXPECT_THROW(ProcessGrid(0), std::invalid_argument);
}

TEST(ProcessGrid2d, RankCoordinateRoundTrip) {
  ProcessGrid g(2, 3);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      const std::size_t p = g.rank(i, j);
      EXPECT_EQ(g.row_of(p), i);
      EXPECT_EQ(g.col_of(p), j);
    }
  }
  EXPECT_EQ(g.row_group(1), (std::vector<std::size_t>{3, 4, 5}));
  EXPECT_EQ(g.col_group(2), (std::vector<std::size_t>{2, 5}));
}

TEST(ProcessGrid2d, BalancedBlocksCoverEverythingOnce) {
  // n = 10 over 4 parts: sizes 3,3,2,2 at offsets 0,3,6,8.
  ProcessGrid g(4, 4);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const BlockRange b = g.row_block(10, i);
    EXPECT_EQ(b.off, covered);
    EXPECT_EQ(b.sz, i < 2 ? 3u : 2u);
    covered += b.sz;
  }
  EXPECT_EQ(covered, 10u);
  // Blocks may be empty when n < parts, but still sum to n.
  std::size_t total = 0;
  for (std::size_t i = 0; i < 4; ++i) total += g.row_block(3, i).sz;
  EXPECT_EQ(total, 3u);
}

TEST(ProcessGrid2d, BalancedBlockRejectsZeroParts) {
  EXPECT_THROW(balanced_block(10, 0, 0), std::invalid_argument);
  // The guard sits on the shared splitter, so every caller (grid
  // blocks, thread-pool slices) inherits it.
  EXPECT_EQ(balanced_block(10, 1, 0).sz, 10u);
}

TEST(ProcessGrid2d, CyclicBlocksDealRoundRobinAndClip) {
  // 26 items in 4-wide blocks over 2 owners: owner 0 gets blocks
  // {0, 2, 4, 6} = [0,4) [8,12) [16,20) [24,26), owner 1 the rest.
  const auto own0 = cyclic_blocks(26, 4, 2, 0);
  ASSERT_EQ(own0.size(), 4u);
  EXPECT_EQ(own0[0].off, 0u);
  EXPECT_EQ(own0[3].off, 24u);
  EXPECT_EQ(own0[3].sz, 2u);  // the padded edge block
  EXPECT_EQ(cyclic_words(26, 4, 2, 0), 14u);
  EXPECT_EQ(cyclic_words(26, 4, 2, 1), 12u);
  // A lo cut drops whole leading blocks and clips a straddled one.
  EXPECT_EQ(cyclic_words(26, 4, 2, 0, 8), 10u);
  EXPECT_EQ(cyclic_words(26, 4, 2, 0, 10), 8u);
  // Owners cover everything exactly once for any (n, b, parts).
  for (std::size_t parts : {1u, 3u, 5u}) {
    std::size_t total = 0;
    for (std::size_t o = 0; o < parts; ++o) {
      total += cyclic_words(31, 3, parts, o);
    }
    EXPECT_EQ(total, 31u);
  }
  EXPECT_THROW(cyclic_blocks(10, 0, 2, 0), std::invalid_argument);
  EXPECT_THROW(cyclic_blocks(10, 2, 0, 0), std::invalid_argument);
  // ProcessGrid exposes the same dealing per grid dimension.
  ProcessGrid g(2, 3);
  EXPECT_EQ(g.cyclic_row_owner(5), 1u);
  EXPECT_EQ(g.cyclic_col_owner(5), 2u);
  EXPECT_EQ(g.cyclic_row_words(26, 4, 0), 14u);
  EXPECT_EQ(g.cyclic_col_words(26, 4, 0) + g.cyclic_col_words(26, 4, 1) +
                g.cyclic_col_words(26, 4, 2),
            26u);
}

TEST(ProcessGrid2d, KPanelsRefineBothPartitionsOnRectangularGrids) {
  // pr = 2 cuts 10 at {5}; pc = 3 cuts it at {4, 7}: the refinement
  // is [0,4) [4,5) [5,7) [7,10), so every panel has a unique owner
  // column in A and owner row in B.
  ProcessGrid g(2, 3);
  const auto panels = g.k_panels(10);
  ASSERT_EQ(panels.size(), 4u);
  const std::size_t offs[] = {0, 4, 5, 7}, szs[] = {4, 1, 2, 3};
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(panels[t].off, offs[t]);
    EXPECT_EQ(panels[t].sz, szs[t]);
  }
  // Square grid with even divisions: exactly the classical panels.
  const auto classical = ProcessGrid(4, 4).k_panels(64);
  ASSERT_EQ(classical.size(), 4u);
  for (const auto& p : classical) EXPECT_EQ(p.sz, 16u);
}

TEST(ProcessGrid3d, LayersSplitStepsUnevenly) {
  ProcessGrid3D g(24, 4);  // 4 layers of a 2 x 3 grid
  EXPECT_EQ(g.layer().rows(), 2u);
  EXPECT_EQ(g.layer().cols(), 3u);
  EXPECT_EQ(g.fiber_group(1, 2), (std::vector<std::size_t>{5, 11, 17, 23}));
  // 6 steps over 4 layers: 2,2,1,1.
  std::size_t total = 0;
  for (std::size_t l = 0; l < 4; ++l) {
    const BlockRange s = g.layer_steps(6, l);
    EXPECT_EQ(s.sz, l < 2 ? 2u : 1u);
    total += s.sz;
  }
  EXPECT_EQ(total, 6u);
  EXPECT_THROW(ProcessGrid3D(16, 3), std::invalid_argument);
}

// ---- collective rounds at awkward group sizes --------------------------

TEST(BcastRounds, CoversDegenerateAndOffPowerGroupSizes) {
  EXPECT_EQ(Machine::bcast_rounds(1), 0u);
  EXPECT_EQ(Machine::bcast_rounds(2), 1u);
  EXPECT_EQ(Machine::bcast_rounds(3), 2u);
  EXPECT_EQ(Machine::bcast_rounds(8), 3u);
  EXPECT_EQ(Machine::bcast_rounds(9), 4u);
  EXPECT_EQ(Machine::bcast_rounds(16), 4u);
  EXPECT_EQ(Machine::bcast_rounds(17), 5u);
}

// ---- reduce vs bcast ---------------------------------------------------

TEST(ReduceVsBcast, ReduceChargesTheCombineBcastDoesNot) {
  Machine mb(4, 192, 4096, 1 << 22);
  mb.bcast({0, 1, 2, 3}, 50);
  Machine mr(4, 192, 4096, 1 << 22);
  mr.reduce({0, 1, 2, 3}, 50);
  for (std::size_t p = 0; p < 4; ++p) {
    // Identical network shape: log2(4) rounds of 50 words each.
    EXPECT_EQ(mb.proc(p).nw.words, 100u);
    EXPECT_EQ(mr.proc(p).nw.words, 100u);
    EXPECT_EQ(mb.proc(p).nw.messages, 2u);
    EXPECT_EQ(mr.proc(p).nw.messages, 2u);
    // Only the reduction merges partials: one L1 -> L2 write-back of
    // the combined words per round.
    EXPECT_EQ(mb.proc(p).l2_write.words, 0u);
    EXPECT_EQ(mr.proc(p).l2_write.words, 100u);
    EXPECT_EQ(mr.proc(p).l2_write.messages, 2u);
  }
}

// ---- irregular geometry end-to-end -------------------------------------

struct GeometryCase {
  std::size_t P, n;
  const char* name;
};

class IrregularGeometry : public ::testing::TestWithParam<GeometryCase> {};

TEST_P(IrregularGeometry, AllMatmulVariantsMatchReference) {
  const auto& tc = GetParam();
  Matrix<double> a(tc.n, tc.n), b(tc.n, tc.n);
  linalg::fill_random(a, 51);
  linalg::fill_random(b, 52);
  const auto ref = reference_product(a, b);
  const auto check = [&](const char* who, auto&& alg) {
    Machine m(tc.P, 192, 4096, 1 << 22);
    Matrix<double> c(tc.n, tc.n, 0.0);
    alg(m, c.view(), a.view(), b.view());
    EXPECT_LT(max_abs_diff(c, ref), 1e-11) << who;
    EXPECT_GT(m.cost(), 0.0) << who;
  };
  check("summa_2d", [](Machine& m, auto c, auto a2, auto b2) {
    summa_2d(m, c, a2, b2);
  });
  check("summa_2d_hoarding", [](Machine& m, auto c, auto a2, auto b2) {
    summa_2d_hoarding(m, c, a2, b2);
  });
  check("summa_l3_ool2", [](Machine& m, auto c, auto a2, auto b2) {
    summa_l3_ool2(m, c, a2, b2);
  });
  check("mm_25d_c1", [](Machine& m, auto c, auto a2, auto b2) {
    mm_25d(m, c, a2, b2);
  });
}

TEST_P(IrregularGeometry, BothLuVariantsMatchReference) {
  const auto& tc = GetParam();
  auto a0 = linalg::random_spd(tc.n, 53);
  auto ref = a0;
  linalg::lu_nopivot_unblocked(ref.view());
  Machine m_ll(tc.P, 192, 4096, 1 << 22);
  auto a_ll = a0;
  lu_left_looking(m_ll, a_ll.view(), /*b=*/2, /*s=*/2);
  EXPECT_LT(max_abs_diff(a_ll, ref), 1e-8);
  Machine m_rl(tc.P, 192, 4096, 1 << 22);
  auto a_rl = a0;
  lu_right_looking(m_rl, a_rl.view(), /*b=*/3);
  EXPECT_LT(max_abs_diff(a_rl, ref), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IrregularGeometry,
    ::testing::Values(
        GeometryCase{1, 17, "single_proc"},           // P = 1
        GeometryCase{5, 23, "prime_P_indivisible_n"}, // 1 x 5 grid
        GeometryCase{6, 32, "P6_even_n"},             // 2 x 3 grid
        GeometryCase{6, 33, "P6_odd_n"},              // n % 2, n % 3 != 0
        GeometryCase{30, 37, "squarefree_P"},         // 5 x 6 grid, prime n
        GeometryCase{16, 30, "square_P_padded_n"}),   // 4 | P, 4 !| 30
    [](const auto& info) { return info.param.name; });

TEST(IrregularGeometry25d, Mm25dWithLayersOnNonSquareLayerGrid) {
  // P = 24, c = 2: each layer is ProcessGrid(12) = 3 x 4.  12 is not
  // a perfect square, which the old code rejected outright, and 26 is
  // divisible by neither grid dimension.
  const std::size_t n = 26;
  Matrix<double> a(n, n), b(n, n);
  linalg::fill_random(a, 54);
  linalg::fill_random(b, 55);
  const auto ref = reference_product(a, b);
  for (const bool staged : {false, true}) {
    Machine m(24, 192, 4096, 1 << 22);
    Matrix<double> c(n, n, 0.0);
    Mm25dOptions opt;
    opt.c = 2;
    opt.use_l3 = staged;
    mm_25d(m, c.view(), a.view(), b.view(), opt);
    EXPECT_LT(max_abs_diff(c, ref), 1e-11);
  }
}

// ---- matmul known answers and counter bounds ---------------------------

enum class Matmul { kSumma2d, kHoarding, kL3OoL2, kMm25d };

/// One call of a matmul entry point; @p opt is read by mm_25d only.
struct MatmulCase {
  Matmul alg;
  std::size_t P, n;
  Mm25dOptions opt{};
};

std::string describe(const MatmulCase& tc) {
  static const char* const kNames[] = {"summa_2d", "summa_2d_hoarding",
                                       "summa_l3_ool2", "mm_25d"};
  std::string s = std::string(kNames[int(tc.alg)]) + " P=" +
                  std::to_string(tc.P) + " n=" + std::to_string(tc.n);
  if (tc.alg == Matmul::kMm25d) {
    s += " c=" + std::to_string(tc.opt.c) +
         (tc.opt.use_l3 ? " use_l3" : "") +
         (tc.opt.data_in_l3 ? " data_in_l3" : "") +
         " chunk_c2=" + std::to_string(tc.opt.chunk_c2);
  }
  return s;
}

void run_matmul(const MatmulCase& tc, Machine& m, Matrix<double>& c,
                const Matrix<double>& a, const Matrix<double>& b) {
  switch (tc.alg) {
    case Matmul::kSumma2d:
      summa_2d(m, c.view(), a.view(), b.view());
      break;
    case Matmul::kHoarding:
      summa_2d_hoarding(m, c.view(), a.view(), b.view());
      break;
    case Matmul::kL3OoL2:
      summa_l3_ool2(m, c.view(), a.view(), b.view());
      break;
    case Matmul::kMm25d:
      mm_25d(m, c.view(), a.view(), b.view(), tc.opt);
      break;
  }
}

/// FNV-1a over C's bits and every rank's words and messages on all
/// five channels.
std::uint64_t matmul_digest(const Machine& m, const Matrix<double>& c) {
  std::uint64_t h = 14695981039346656037ull;
  const auto add = [&h](std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t k = 0; k < c.rows() * c.cols(); ++k) {
    std::uint64_t u = 0;
    std::memcpy(&u, c.data() + k, sizeof u);
    add(u);
  }
  for (std::size_t p = 0; p < m.nprocs(); ++p) {
    const ProcTraffic& t = m.proc(p);
    for (const ChanCount* ch :
         {&t.nw, &t.l3_read, &t.l3_write, &t.l2_read, &t.l2_write}) {
      add(ch->words);
      add(ch->messages);
    }
  }
  return h;
}

/// Every rank's counters against the paper's bounds with known
/// constants, for its own share of the product: an m x n block of C
/// over k contraction indices (its layer's panel widths; all n for
/// hoarding, which multiplies once over the full panels).
///   (a) wherever C lives in L3, the rank writes at least its m*n
///       owned C words to L3 ("writes to slow memory >= output size");
///   (b) its L1 traffic l2_read + l2_write is at least
///       2*m*n*k/sqrt(M1) - 2*M1 (Smith, Lowery, Langou and van de
///       Geijn, "A tight I/O lower bound for matrix multiplication").
void expect_counters_meet_bounds(const MatmulCase& tc, const Machine& m) {
  const ProcessGrid3D g(tc.P, tc.alg == Matmul::kMm25d ? tc.opt.c : 1);
  const ProcessGrid& lg = g.layer();
  const std::vector<BlockRange> panels = lg.k_panels(tc.n);
  const bool c_in_l3 =
      tc.alg == Matmul::kL3OoL2 ||
      (tc.alg == Matmul::kMm25d && (tc.opt.use_l3 || tc.opt.data_in_l3));
  const double M1 = double(m.M1());
  for (std::size_t p = 0; p < tc.P; ++p) {
    const std::size_t lr = g.layer_rank_of(p);
    const double rows = double(lg.row_block(tc.n, lg.row_of(lr)).sz);
    const double cols = double(lg.col_block(tc.n, lg.col_of(lr)).sz);
    double k = double(tc.n);
    if (tc.alg != Matmul::kHoarding) {
      k = 0;
      const BlockRange steps = g.layer_steps(panels.size(), g.layer_of(p));
      for (std::size_t s = steps.off; s < steps.off + steps.sz; ++s) {
        k += double(panels[s].sz);
      }
    }
    const ProcTraffic& t = m.proc(p);
    if (c_in_l3) {
      EXPECT_GE(double(t.l3_write.words), rows * cols)
          << describe(tc) << " rank " << p;
    }
    EXPECT_GE(double(t.l2_read.words + t.l2_write.words),
              2.0 * rows * cols * k / std::sqrt(M1) - 2.0 * M1)
        << describe(tc) << " M1=" << m.M1() << " rank " << p;
  }
}

/// Pins the naive kernel for the scope (blocked gemm has no bitwise
/// contract) and restores the previous choice.
class NaiveKernels {
 public:
  NaiveKernels()
      : prev_(linalg::set_active_kernels(linalg::KernelImpl::kNaive)) {}
  ~NaiveKernels() { linalg::set_active_kernels(prev_); }
  NaiveKernels(const NaiveKernels&) = delete;
  NaiveKernels& operator=(const NaiveKernels&) = delete;

 private:
  linalg::KernelImpl prev_;
};

TEST(MatmulKnownAnswers, EveryEntryPointAndResidency) {
  // Every matmul entry point, and mm_25d's three residency options at
  // c in {1, 2, 3}.  The other matmul pins compare paths with each
  // other; these constants pin C's bits and all five per-rank channels
  // (words and messages) against fixed values, so a change that moves
  // every path alike still shows here.  Geometry: prime P = 7 (1 x 7
  // grid), P = 6 (2 x 3) and P = 12, with n = 13, which no grid edge
  // above 1 divides; at P = 12, c = 3 gives 2 x 2 layers (3 does not
  // divide 2, so one layer gets no steps), and chunk_c2 = 2 does not
  // divide 3.
  // The values assume IEEE doubles with no FMA contraction (the x86-64
  // baseline codegen).
  std::vector<MatmulCase> cases;
  const bool policies[][2] = {{false, false}, {true, false}, {false, true}};
  for (const std::size_t P : {7u, 6u}) {
    for (const Matmul alg :
         {Matmul::kSumma2d, Matmul::kHoarding, Matmul::kL3OoL2}) {
      cases.push_back({alg, P, 13});
    }
    for (const auto& pol : policies) {
      cases.push_back({Matmul::kMm25d, P, 13, {1, pol[0], pol[1], 0}});
    }
  }
  for (const std::size_t c : {1u, 2u, 3u}) {
    for (const auto& pol : policies) {
      cases.push_back({Matmul::kMm25d, 12, 13, {c, pol[0], pol[1], 2}});
    }
  }

  const NaiveKernels naive;
  std::vector<std::uint64_t> got;
  for (const MatmulCase& tc : cases) {
    Matrix<double> a(tc.n, tc.n), b(tc.n, tc.n);
    linalg::fill_random(a, 91);
    linalg::fill_random(b, 92);
    std::vector<std::uint64_t> digests;
    for (const bool threaded : {false, true}) {
      Machine m(tc.P, 32, 4096, 1 << 22, HwParams{},
                threaded ? std::unique_ptr<Backend>(
                               std::make_unique<ThreadedBackend>(3))
                         : std::make_unique<SerialSimBackend>());
      Matrix<double> c(tc.n, tc.n, 0.0);
      run_matmul(tc, m, c, a, b);
      expect_counters_meet_bounds(tc, m);
      digests.push_back(matmul_digest(m, c));
    }
    EXPECT_EQ(digests[0], digests[1]) << describe(tc);
    got.push_back(digests[0]);
  }
  // In case order; summa_2d and mm_25d at c = 1 share a value.
  const std::vector<std::uint64_t> want = {
      0x379412fc248adf06ull, 0x5d306ad4f757b791ull, 0xad4257c5f027d2f1ull,
      0x379412fc248adf06ull, 0xec2f532915c15f06ull, 0x6b2590b168830d5full,
      0xcb1963253a9da24cull, 0x85d6b9cb0a484473ull, 0xf852679fde8b48afull,
      0xcb1963253a9da24cull, 0x901c71cf3baeb20cull, 0xa20af6fd17a29cc2ull,
      0xd8aeb708a5c5fd98ull, 0x7c73fd8d8c81f798ull, 0xfab99c66d06ffcc6ull,
      0x4ee1788adfd8f166ull, 0xfb6e0401170aebe6ull, 0xa01e8b4580b3d81cull,
      0x3aff395a27bb453bull, 0x16c1dbe8298c25fbull, 0x47703cffef998603ull};
  ASSERT_EQ(got.size(), want.size());
#if defined(__x86_64__)
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k], want[k]) << describe(cases[k]) << std::hex
                               << " got 0x" << got[k];
  }
#endif
}

TEST(MatmulBounds, EveryRankMeetsThePaperBounds) {
  // The bound checks of the known-answer test over a wider sweep: P
  // including primes, n indivisible by the grid edges, several L1
  // sizes, and an L2 small enough that summa_2d_hoarding and
  // summa_l3_ool2 refuse some shapes.  A refusal must come before any
  // broadcast or charge.
  const bool policies[][2] = {{false, false}, {true, false}, {false, true}};
  for (const std::size_t P : {1u, 4u, 5u, 6u, 12u}) {
    for (const std::size_t n : {7u, 13u, 24u}) {
      std::vector<MatmulCase> cases;
      for (const Matmul alg :
           {Matmul::kSumma2d, Matmul::kHoarding, Matmul::kL3OoL2}) {
        cases.push_back({alg, P, n});
      }
      for (const std::size_t c : {1u, 2u, 3u, 4u}) {
        if (P % c != 0) continue;
        for (const auto& pol : policies) {
          cases.push_back({Matmul::kMm25d, P, n, {c, pol[0], pol[1], 0}});
        }
      }
      Matrix<double> a(n, n), b(n, n);
      linalg::fill_random(a, 93);
      linalg::fill_random(b, 94);
      for (const std::size_t M1 : {8u, 48u, 192u}) {
        for (const std::size_t M2 : {300u, 4096u}) {
          for (const MatmulCase& tc : cases) {
            Machine m(P, M1, M2, 1 << 22);
            Matrix<double> c(n, n, 0.0);
            bool refused = false;
            try {
              run_matmul(tc, m, c, a, b);
            } catch (const std::invalid_argument&) {
              refused = true;
            }
            if (!refused) {
              expect_counters_meet_bounds(tc, m);
              continue;
            }
            EXPECT_TRUE(tc.alg == Matmul::kHoarding ||
                        tc.alg == Matmul::kL3OoL2)
                << describe(tc) << " M2=" << M2;
            for (std::size_t p = 0; p < P; ++p) {
              const ProcTraffic& t = m.proc(p);
              EXPECT_EQ(t.nw.words + t.l3_read.words + t.l3_write.words +
                            t.l2_read.words + t.l2_write.words,
                        0u)
                  << describe(tc) << " M2=" << M2 << " rank " << p;
            }
          }
        }
      }
    }
  }
}

// ---- execution backends ------------------------------------------------

TEST(Backends, FactoryKnowsBothNamesAndRejectsOthers) {
  EXPECT_STREQ(make_backend("serial")->name(), "serial");
  EXPECT_STREQ(make_backend("threaded", 3)->name(), "threaded");
  EXPECT_THROW(make_backend("cuda"), std::invalid_argument);
}

// Every channel counter of every processor, and the numerical result,
// must be byte-identical between the serial simulator and the thread
// pool: the threaded backend spreads ranks over threads but never
// reorders charging within a rank.
template <class Alg>
void expect_backend_determinism(std::size_t P, std::size_t n, Alg&& alg) {
  Matrix<double> a(n, n), b(n, n);
  linalg::fill_random(a, 61);
  linalg::fill_random(b, 62);

  Machine serial(P, 192, 4096, 1 << 22, HwParams{},
                 std::make_unique<SerialSimBackend>());
  Matrix<double> c_serial(n, n, 0.0);
  alg(serial, c_serial.view(), a.view(), b.view());

  Machine threaded(P, 192, 4096, 1 << 22, HwParams{},
                   std::make_unique<ThreadedBackend>(4));
  Matrix<double> c_threaded(n, n, 0.0);
  alg(threaded, c_threaded.view(), a.view(), b.view());

  for (std::size_t p = 0; p < P; ++p) {
    const ProcTraffic& s = serial.proc(p);
    const ProcTraffic& t = threaded.proc(p);
    const auto eq = [&](const ChanCount& x, const ChanCount& y,
                        const char* ch) {
      EXPECT_EQ(x.words, y.words) << "proc " << p << " " << ch;
      EXPECT_EQ(x.messages, y.messages) << "proc " << p << " " << ch;
    };
    eq(s.nw, t.nw, "nw");
    eq(s.l3_read, t.l3_read, "l3_read");
    eq(s.l3_write, t.l3_write, "l3_write");
    eq(s.l2_read, t.l2_read, "l2_read");
    eq(s.l2_write, t.l2_write, "l2_write");
  }
  // Numerics are bitwise identical, not merely close: each rank owns
  // its output block and accumulates in the same order.
  EXPECT_EQ(std::memcmp(c_serial.data(), c_threaded.data(),
                        n * n * sizeof(double)),
            0);
}

TEST(Backends, ThreadedCountersBitIdenticalForSumma) {
  expect_backend_determinism(
      16, 48, [](Machine& m, auto c, auto a, auto b) { summa_2d(m, c, a, b); });
  expect_backend_determinism(6, 33, [](Machine& m, auto c, auto a, auto b) {
    summa_l3_ool2(m, c, a, b);
  });
}

TEST(Backends, ThreadedCountersBitIdenticalForMm25d) {
  expect_backend_determinism(24, 26, [](Machine& m, auto c, auto a, auto b) {
    Mm25dOptions opt;
    opt.c = 2;
    opt.use_l3 = true;
    mm_25d(m, c, a, b, opt);
  });
}

// The per-rank LU rewrite must behave exactly like the matmuls under
// the thread pool: every channel counter of every processor and every
// output bit identical to the serial simulator, for both schedules,
// on every grid shape (square, non-square, prime => 1 x P, P = 1) and
// with n indivisible by the grid edges or the panel width.
struct LuBackendCase {
  std::size_t P, n;
  const char* name;
};

class LuBackends : public ::testing::TestWithParam<LuBackendCase> {};

TEST_P(LuBackends, CountersAndBitsIdenticalSerialVsThreaded) {
  const auto& tc = GetParam();
  auto a0 = linalg::random_spd(tc.n, 63);
  auto ref = a0;
  linalg::lu_nopivot_unblocked(ref.view());

  const auto sweep = [&](const char* who, auto&& lu) {
    Machine serial(tc.P, 192, 4096, 1 << 22, HwParams{},
                   std::make_unique<SerialSimBackend>());
    auto a_serial = a0;
    lu(serial, a_serial.view());

    Machine threaded(tc.P, 192, 4096, 1 << 22, HwParams{},
                     std::make_unique<ThreadedBackend>(4));
    auto a_threaded = a0;
    lu(threaded, a_threaded.view());

    // Numerics agree with the unblocked reference...
    EXPECT_LT(max_abs_diff(a_serial, ref), 1e-8) << who;
    // ...and are bitwise identical across backends: every tile is
    // owned by exactly one rank and accumulated in a fixed order.
    EXPECT_EQ(std::memcmp(a_serial.data(), a_threaded.data(),
                          tc.n * tc.n * sizeof(double)),
              0)
        << who;
    for (std::size_t p = 0; p < tc.P; ++p) {
      const ProcTraffic& s = serial.proc(p);
      const ProcTraffic& t = threaded.proc(p);
      const auto eq = [&](const ChanCount& x, const ChanCount& y,
                          const char* ch) {
        EXPECT_EQ(x.words, y.words) << who << " proc " << p << " " << ch;
        EXPECT_EQ(x.messages, y.messages)
            << who << " proc " << p << " " << ch;
      };
      eq(s.nw, t.nw, "nw");
      eq(s.l3_read, t.l3_read, "l3_read");
      eq(s.l3_write, t.l3_write, "l3_write");
      eq(s.l2_read, t.l2_read, "l2_read");
      eq(s.l2_write, t.l2_write, "l2_write");
    }
  };
  sweep("lu_right_looking", [](Machine& m, linalg::MatrixView<double> a) {
    lu_right_looking(m, a, /*b=*/4);
  });
  sweep("lu_left_looking", [](Machine& m, linalg::MatrixView<double> a) {
    lu_left_looking(m, a, /*b=*/3, /*s=*/2);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Grids, LuBackends,
    ::testing::Values(LuBackendCase{1, 19, "single_proc"},
                      LuBackendCase{4, 26, "square_P"},
                      LuBackendCase{6, 26, "P6_rectangular"},
                      LuBackendCase{7, 23, "prime_P"}),
    [](const auto& info) { return info.param.name; });

/// Runs jobs as SerialSimBackend does and records each job's rank
/// count.
class RecordingBackend final : public Backend {
 public:
  const char* name() const override { return "recording"; }
  void run(const std::vector<std::size_t>& ranks,
           const std::vector<std::size_t>& capacities, const LocalFn& fn,
           const Sink& sink) override {
    widths.push_back(ranks.size());
    run_serially(ranks, capacities, fn, sink);
  }
  std::vector<std::size_t> widths;
};

TEST(LuSchedule, LeftLookingChainStepsRunOnTheColumnGroup) {
  // P = 16 (4 x 4), n = 256, b = 32: eight block columns on 4-rank
  // column groups.  Block column jb runs the 16-rank refetch (jb > 0),
  // then its U chain: the one-rank solve of tile 0, then one step per
  // tile q < jb - 1 on the ranks owning a tile in (q, jb), which is
  // min(jb - 1 - q, 4) of them; then the 4-rank below update, the
  // one-rank diagonal factor and the 4-rank solve.  So one-rank jobs
  // come only from the first tile's solve, the last step and the
  // diagonal factor.  The charge-only transport runs no job of its
  // own.
  auto recording = std::make_unique<RecordingBackend>();
  const RecordingBackend& rec = *recording;
  Machine m(16, 192, 4096, 1 << 22, HwParams{}, std::move(recording),
            std::make_unique<SimTransport>());
  auto a = linalg::random_spd(256, 5);
  lu_left_looking(m, a.view(), 32, 4);

  std::vector<std::size_t> want;
  for (std::size_t jb = 0; jb < 8; ++jb) {
    if (jb > 0) want.insert(want.end(), {16, 1});
    for (std::size_t q = 0; q + 1 < jb; ++q) {
      want.push_back(std::min<std::size_t>(jb - 1 - q, 4));
    }
    want.insert(want.end(), {4, 1, 4});
  }
  EXPECT_EQ(rec.widths, want);
  EXPECT_EQ(rec.widths.size(), 59u);
  EXPECT_EQ(std::count(rec.widths.begin(), rec.widths.end(), 1u), 21);
}

TEST(Backends, ErrorPathChargesTheSameRanksAsSerial) {
  // Rank 5 of 8 throws: both backends must have charged exactly the
  // ranks a serial run reaches before the throw (0..4) and nothing
  // after, so error-handling code sees identical machine state.
  const auto run = [](Machine& m) {
    EXPECT_THROW(m.run_local_each([](std::size_t p, memsim::Hierarchy& h) {
      if (p == 5) throw std::runtime_error("rank 5 fails");
      h.load(0, 7);
    }),
                 std::runtime_error);
  };
  Machine serial(8, 192, 4096, 1 << 22, HwParams{},
                 std::make_unique<SerialSimBackend>());
  run(serial);
  Machine threaded(8, 192, 4096, 1 << 22, HwParams{},
                   std::make_unique<ThreadedBackend>(4));
  run(threaded);
  for (std::size_t p = 0; p < 8; ++p) {
    EXPECT_EQ(serial.proc(p).l2_read.words, p < 5 ? 7u : 0u) << p;
    EXPECT_EQ(threaded.proc(p).l2_read.words, serial.proc(p).l2_read.words)
        << p;
  }
}

TEST(Backends, ThreadedEnforcesCapacitiesAndPropagatesErrors) {
  Machine m(8, 192, 4096, 1 << 22, HwParams{},
            std::make_unique<ThreadedBackend>(4));
  EXPECT_THROW(
      m.run_local_each([](std::size_t, memsim::Hierarchy& h) {
        h.load(0, 193);  // over L1 capacity, on every rank
      }),
      memsim::CapacityError);
}

// ---- Persistent-pool regressions ---------------------------------------
// The pool is spawned once and parked between jobs; these pin the three
// behaviours that a fork-join implementation got for free.

TEST(Backends, PersistentPoolServesManyJobsInRankOrder) {
  // Varying widths exercise park/wake and jobs narrower than the pool
  // repeatedly on one pool; the sink must still see every job's ranks
  // in rank order (that ordering is what keeps counters byte-identical
  // to the serial backend).
  ThreadedBackend be(4);
  const std::vector<std::size_t> caps = {192, 4096, std::size_t(1) << 22};
  for (std::size_t round = 0; round < 40; ++round) {
    const std::size_t width = 1 + round % 9;  // includes the serial path
    std::vector<std::size_t> ranks(width);
    std::iota(ranks.begin(), ranks.end(), std::size_t{0});
    std::vector<std::size_t> seen;
    be.run(
        ranks, caps,
        [](std::size_t p, memsim::Hierarchy& h) { h.load(0, p + 1); },
        [&](std::size_t p, const memsim::Hierarchy& h) {
          seen.push_back(p);
          EXPECT_EQ(h.loads_words(0), p + 1) << "round " << round;
        });
    EXPECT_EQ(seen, ranks) << "round " << round;
  }
}

TEST(Backends, NestedRunFromInsideAWorkerExecutesInline) {
  // A local phase that itself fans out through the same backend must
  // run serially inline on the worker instead of waiting on the pool's
  // done-barrier while holding it hostage (deadlock).
  ThreadedBackend be(4);
  const std::vector<std::size_t> caps = {192, 4096, std::size_t(1) << 22};
  const std::vector<std::size_t> outer = {0, 1, 2, 3, 4, 5};
  const std::vector<std::size_t> inner = {0, 1};
  std::atomic<std::uint64_t> inner_words{0};
  be.run(
      outer, caps,
      [&](std::size_t, memsim::Hierarchy& h) {
        h.load(0, 1);
        be.run(
            inner, caps,
            [](std::size_t, memsim::Hierarchy& hh) { hh.load(0, 3); },
            [&](std::size_t, const memsim::Hierarchy& hh) {
              inner_words += hh.loads_words(0);
            });
      },
      [](std::size_t, const memsim::Hierarchy&) {});
  // 6 outer ranks x 2 inner ranks x 3 words each.
  EXPECT_EQ(inner_words.load(), 6u * 2u * 3u);
}

TEST(Backends, PoolOutlivesAThrowingJobAndServesTheNext) {
  // An error must not poison the parked pool: the next job on the same
  // backend still runs every rank and charges correctly.
  Machine m(8, 192, 4096, 1 << 22, HwParams{},
            std::make_unique<ThreadedBackend>(4));
  EXPECT_THROW(m.run_local_each([](std::size_t p, memsim::Hierarchy& h) {
    if (p == 3) throw std::runtime_error("rank 3 fails");
    h.load(0, 2);
  }),
               std::runtime_error);
  m.run_local_each([](std::size_t, memsim::Hierarchy& h) { h.load(0, 5); });
  for (std::size_t p = 0; p < 8; ++p) {
    // Ranks before the failing one kept the first job's charge; every
    // rank got the second job's.
    EXPECT_EQ(m.proc(p).l2_read.words, (p < 3 ? 2u : 0u) + 5u) << p;
  }
}

TEST(Backends, UnsortedRankListsMergeInListOrder) {
  // LU's group phases pass rank lists that are neither sorted nor
  // contiguous.  The sink must see them in list order, and a throw at
  // list position 2 (rank 7) must leave exactly the ranks listed before
  // it (13 and 2) charged, on both backends.
  const std::vector<std::size_t> list = {13, 2, 7, 4, 11};
  const auto machine = [](std::unique_ptr<Backend> be) {
    return Machine(16, 192, 4096, 1 << 22, HwParams{}, std::move(be));
  };
  Machine serial = machine(std::make_unique<SerialSimBackend>());
  Machine threaded = machine(std::make_unique<ThreadedBackend>(2));
  for (Machine* m : {&serial, &threaded}) {
    std::vector<std::size_t> seen;
    m->backend().run(
        list, {192, 4096, std::size_t(1) << 22},
        [](std::size_t p, memsim::Hierarchy& h) { h.load(0, p + 1); },
        [&](std::size_t p, const memsim::Hierarchy& h) {
          seen.push_back(p);
          EXPECT_EQ(h.loads_words(0), p + 1) << m->backend().name();
        });
    EXPECT_EQ(seen, list) << m->backend().name();

    EXPECT_THROW(m->run_local_on(list,
                                 [](std::size_t p, memsim::Hierarchy& h) {
                                   if (p == 7) {
                                     throw std::runtime_error("rank 7 fails");
                                   }
                                   h.load(0, 3);
                                 }),
                 std::runtime_error);
  }
  for (std::size_t p = 0; p < 16; ++p) {
    EXPECT_EQ(serial.proc(p).l2_read.words, p == 13 || p == 2 ? 3u : 0u)
        << p;
    EXPECT_EQ(threaded.proc(p).l2_read.words, serial.proc(p).l2_read.words)
        << p;
  }
}

// ---- Poll, then park ---------------------------------------------------
// Between jobs an idle worker polls for the next one, and the caller
// for the check-ins, for ThreadedBackend::kSpin before parking.

/// Busy-waits @p gap, so that gaps shorter than kSpin are kept.
void busy_wait(std::chrono::microseconds gap) {
  const auto until = std::chrono::steady_clock::now() + gap;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(Backends, JobsAcrossGapsAroundTheSpinSinkInListOrder) {
  // Gaps shorter than kSpin find the workers polling; longer ones
  // find them parked.  Either way every job sinks every rank, in
  // list order.
  using std::chrono::microseconds;
  static_assert(microseconds(10) < ThreadedBackend::kSpin &&
                ThreadedBackend::kSpin < microseconds(1000));
  ThreadedBackend be(3);
  const std::vector<std::size_t> caps = {192, 4096, std::size_t(1) << 22};
  const std::vector<std::size_t> ranks = {5, 0, 3, 1, 4, 2};
  for (const microseconds gap : {microseconds(0), microseconds(10),
                                 microseconds(1000), microseconds(10000)}) {
    for (std::size_t job = 0; job < 8; ++job) {
      busy_wait(gap);
      std::vector<std::size_t> seen;
      be.run(
          ranks, caps,
          [](std::size_t p, memsim::Hierarchy& h) { h.load(0, p + 1); },
          [&](std::size_t p, const memsim::Hierarchy& h) {
            seen.push_back(p);
            EXPECT_EQ(h.loads_words(0), p + 1);
          });
      EXPECT_EQ(seen, ranks) << "gap " << gap.count() << " us, job " << job;
    }
  }
}

TEST(Backends, DestroyingAPoolRightAfterAJobReturnsPromptly) {
  // The workers are still polling when the destructor runs; stopping
  // must end the poll, not wait it out or miss it.
  const std::vector<std::size_t> caps = {192, 4096, std::size_t(1) << 22};
  for (std::size_t round = 0; round < 50; ++round) {
    auto be = std::make_unique<ThreadedBackend>(3);
    std::size_t sunk = 0;
    be->run(
        {0, 1, 2, 3}, caps, [](std::size_t, memsim::Hierarchy&) {},
        [&](std::size_t, const memsim::Hierarchy&) { ++sunk; });
    EXPECT_EQ(sunk, 4u);
    const auto t0 = std::chrono::steady_clock::now();
    be.reset();
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1))
        << "round " << round;
  }
}

TEST(Backends, NestedRunBetweenPolledJobsRunsOnTheOuterRanksThread) {
  // Back-to-back jobs keep the workers polling; a run() called from
  // inside a rank still executes inline, on that rank's thread, and
  // sinks in list order.
  ThreadedBackend be(3);
  const std::vector<std::size_t> caps = {192, 4096, std::size_t(1) << 22};
  const std::vector<std::size_t> outer = {0, 1, 2, 3, 4, 5};
  const std::vector<std::size_t> inner = {2, 0, 1};
  std::atomic<std::size_t> off_thread{0}, out_of_order{0};
  for (std::size_t job = 0; job < 20; ++job) {
    be.run(
        outer, caps,
        [&](std::size_t, memsim::Hierarchy&) {
          const std::thread::id self = std::this_thread::get_id();
          std::vector<std::size_t> seen;
          be.run(
              inner, caps,
              [&](std::size_t, memsim::Hierarchy&) {
                if (std::this_thread::get_id() != self) ++off_thread;
              },
              [&](std::size_t p, const memsim::Hierarchy&) {
                seen.push_back(p);
              });
          if (seen != inner) ++out_of_order;
        },
        [](std::size_t, const memsim::Hierarchy&) {});
  }
  EXPECT_EQ(off_thread.load(), 0u);
  EXPECT_EQ(out_of_order.load(), 0u);
}

// ---- Dynamic claiming --------------------------------------------------
// The pool workers and the calling thread claim ranks one at a time.
// Each rank below blocks until other ranks make progress, with a
// bounded wait, so a schedule that runs too few ranks at once, or that
// queues ranks behind a slow one, shows up as a timeout, not a hang.

constexpr auto kRendezvous = std::chrono::seconds(2);

TEST(Backends, CallingThreadClaimsRanks) {
  // Two pool workers plus the caller: three ranks that each wait for
  // all three to arrive can only meet if the caller runs one of them.
  ThreadedBackend be(2);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t arrived = 0;
  std::size_t timeouts = 0;
  be.run(
      {0, 1, 2}, {192, 4096, std::size_t(1) << 22},
      [&](std::size_t, memsim::Hierarchy&) {
        std::unique_lock<std::mutex> lock(mu);
        ++arrived;
        cv.notify_all();
        if (!cv.wait_for(lock, kRendezvous, [&] { return arrived == 3; })) {
          ++timeouts;
        }
      },
      [](std::size_t, const memsim::Hierarchy&) {});
  EXPECT_EQ(timeouts, 0u);
}

TEST(Backends, SlowRankDoesNotHoldLaterRanks) {
  // Rank 0 waits until ranks 1..7 have finished: the other two threads
  // must claim all of them while rank 0's thread is busy.
  ThreadedBackend be(2);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t finished = 0;
  bool timed_out = false;
  std::vector<std::size_t> ranks(8);
  std::iota(ranks.begin(), ranks.end(), std::size_t{0});
  std::vector<std::size_t> seen;
  be.run(
      ranks, {192, 4096, std::size_t(1) << 22},
      [&](std::size_t p, memsim::Hierarchy& h) {
        h.load(0, p + 1);
        std::unique_lock<std::mutex> lock(mu);
        if (p == 0) {
          timed_out = !cv.wait_for(lock, kRendezvous,
                                   [&] { return finished == 7; });
        } else {
          ++finished;
          cv.notify_all();
        }
      },
      [&](std::size_t p, const memsim::Hierarchy& h) {
        seen.push_back(p);
        EXPECT_EQ(h.loads_words(0), p + 1);
      });
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(seen, ranks);
}

TEST(Backends, WallClockAccumulatesAcrossLocalPhases) {
  Machine m(4, 192, 4096, 1 << 22);
  EXPECT_EQ(m.local_wall_seconds(), 0.0);
  m.run_local_each([](std::size_t, memsim::Hierarchy& h) { h.load(0, 8); });
  const double first = m.local_wall_seconds();
  EXPECT_GT(first, 0.0);
  m.run_local_all([](memsim::Hierarchy& h) { h.load(0, 8); });
  EXPECT_GT(m.local_wall_seconds(), first);
}

}  // namespace
}  // namespace wa::dist
