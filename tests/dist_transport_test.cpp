// Tests for the data-movement seam (dist/transport.hpp): ShmTransport
// delivery/verification semantics, the WA_TRANSPORT env contract
// (library throws, benches exit 2), the calibration fit, and the
// headline acceptance pin of the seam -- SUMMA, 2.5D, LU (LL+RL), and
// distributed CG/CA-CG produce bitwise-identical results and
// byte-identical counters whether the transport merely charges (sim)
// or really moves every payload between rank arenas (shm).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "dist/calibrate.hpp"
#include "dist/krylov.hpp"
#include "dist/lu.hpp"
#include "dist/machine.hpp"
#include "dist/mm25d.hpp"
#include "dist/payload_digest.hpp"
#include "dist/summa.hpp"
#include "dist/transport.hpp"
#include "linalg/kernels.hpp"
#include "sparse/csr.hpp"

namespace wa::dist {
namespace {

using linalg::Matrix;

// ---------------------------------------------------------------------
// ShmTransport unit semantics.

TEST(ShmTransportTest, SendDeliversPayloadBitwise) {
  ShmTransport tp;
  tp.attach(4);
  std::vector<double> payload = {1.5, -2.25, 3.125, 0.0, 1e-300};
  tp.send(1, 3, payload.size(), payload.data());
  const std::vector<double>& arena = tp.arena(3);
  ASSERT_GE(arena.size(), payload.size());
  EXPECT_EQ(0, std::memcmp(arena.data(), payload.data(),
                           payload.size() * sizeof(double)));
  const TransportStats st = tp.stats();
  EXPECT_EQ(st.messages, 1u);
  EXPECT_EQ(st.words, payload.size());
  EXPECT_EQ(st.verified, payload.size());
}

TEST(ShmTransportTest, SendWithoutPayloadMovesSyntheticWords) {
  ShmTransport tp;
  tp.attach(2);
  tp.send(0, 1, 64, nullptr);
  const TransportStats st = tp.stats();
  EXPECT_EQ(st.messages, 1u);
  EXPECT_EQ(st.words, 64u);
  EXPECT_EQ(st.verified, 64u);  // synthetic bytes are verified too
  // Deterministic pattern: the same send stages the same bytes.
  const std::vector<double> first = tp.arena(1);
  tp.send(0, 1, 64, nullptr);
  EXPECT_EQ(0, std::memcmp(first.data(), tp.arena(1).data(),
                           64 * sizeof(double)));
}

TEST(ShmTransportTest, BcastReachesEveryParticipant) {
  ShmTransport tp;
  tp.attach(6);
  std::vector<std::size_t> group = {0, 1, 2, 3, 4, 5};
  std::vector<double> payload(33);
  std::iota(payload.begin(), payload.end(), 0.5);
  tp.bcast(group, payload.size(), payload.data());
  for (std::size_t p = 1; p < 6; ++p) {
    EXPECT_EQ(0, std::memcmp(tp.arena(p).data(), payload.data(),
                             payload.size() * sizeof(double)))
        << "rank " << p;
  }
  // Binomial fan-out: g-1 deliveries of `words` each.
  const TransportStats st = tp.stats();
  EXPECT_EQ(st.messages, 5u);
  EXPECT_EQ(st.words, 5u * payload.size());
  EXPECT_EQ(st.verified, st.words);
}

TEST(ShmTransportTest, ReduceCombinesElementwise) {
  ShmTransport tp;
  tp.attach(4);
  std::vector<std::size_t> group = {0, 1, 2, 3};
  std::vector<double> payload = {1.0, 2.0, -3.0};
  // Every participant stages the same payload, so the gathered root
  // value is g * payload, combined by real elementwise adds.
  tp.reduce(group, payload.size(), payload.data());
  const std::vector<double>& root = tp.arena(0);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_DOUBLE_EQ(root[i], 4.0 * payload[i]) << i;
  }
  EXPECT_EQ(tp.stats().messages, 3u);
}

TEST(ShmTransportTest, ConcurrentRoundsDeliverAndVerify) {
  // Tiny parallel threshold forces the threaded sender/receiver path
  // on an 8-rank broadcast (rounds with up to 4 concurrent hops).
  ShmTransport tp(/*parallel_words=*/16);
  tp.attach(8);
  std::vector<std::size_t> group(8);
  std::iota(group.begin(), group.end(), std::size_t{0});
  std::vector<double> payload(1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = double(i) * 0.75 - 100.0;
  }
  tp.bcast(group, payload.size(), payload.data());
  for (std::size_t p = 1; p < 8; ++p) {
    EXPECT_EQ(0, std::memcmp(tp.arena(p).data(), payload.data(),
                             payload.size() * sizeof(double)))
        << "rank " << p;
  }
  const TransportStats st = tp.stats();
  EXPECT_EQ(st.messages, 7u);
  EXPECT_EQ(st.verified, 7u * payload.size());
}

TEST(ShmTransportTest, ZeroWordAndSelfTransfersAreNoOps) {
  ShmTransport tp;
  tp.attach(2);
  tp.send(0, 1, 0, nullptr);
  tp.send(1, 1, 8, nullptr);
  tp.bcast({0}, 8, nullptr);
  tp.reduce({1}, 8, nullptr);
  const TransportStats st = tp.stats();
  EXPECT_EQ(st.messages, 0u);
  EXPECT_EQ(st.words, 0u);
}

TEST(ShmTransportTest, RejectsUnattachedRanks) {
  ShmTransport tp;
  tp.attach(2);
  EXPECT_THROW(tp.send(0, 5, 4, nullptr), std::out_of_range);
  EXPECT_THROW(tp.arena(2), std::out_of_range);
}

// ---------------------------------------------------------------------
// The delivery digest: its detection guarantee, exhaustively on an
// 18-word buffer (four full lanes plus a two-word tail in lane 0).

constexpr std::size_t kDigestWords = 18;

std::vector<double> digest_buffer() {
  std::vector<double> v(kDigestWords);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = double(i) * 0.75 - 5.0;
  return v;
}

std::uint64_t digest_of(const std::vector<double>& v) {
  return detail::payload_digest(v.data(), v.size());
}

void flip_bit(std::vector<double>& v, std::size_t bit) {
  std::uint64_t u;
  std::memcpy(&u, &v[bit / 64], sizeof u);
  u ^= std::uint64_t{1} << (bit % 64);
  std::memcpy(&v[bit / 64], &u, sizeof u);
}

TEST(PayloadDigestTest, KnownAnswer) {
  // Pinned so a change to the digest is a deliberate one.
  EXPECT_EQ(digest_of(digest_buffer()), 243125576431893433ull);
}

TEST(PayloadDigestTest, EverySingleAndDoubleBitFlipChangesDigest) {
  std::vector<double> v = digest_buffer();
  const std::uint64_t clean = digest_of(v);
  const std::size_t bits = kDigestWords * 64;
  std::size_t missed = 0, tried = 0;
  for (std::size_t b1 = 0; b1 < bits; ++b1) {
    flip_bit(v, b1);
    missed += digest_of(v) == clean;
    ++tried;
    for (std::size_t b2 = b1 + 1; b2 < bits; ++b2) {
      flip_bit(v, b2);
      missed += digest_of(v) == clean;
      ++tried;
      flip_bit(v, b2);
    }
    flip_bit(v, b1);
  }
  EXPECT_EQ(tried, bits + bits * (bits - 1) / 2);  // 1,152 + 662,976
  EXPECT_EQ(missed, 0u);
}

TEST(PayloadDigestTest, EverySwapAndTruncationChangesDigest) {
  const std::vector<double> v = digest_buffer();
  const std::uint64_t clean = digest_of(v);
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (std::size_t j = i + 1; j < v.size(); ++j) {
      ASSERT_NE(v[i], v[j]);
      std::vector<double> s = v;
      std::swap(s[i], s[j]);
      EXPECT_NE(digest_of(s), clean) << "swap " << i << "," << j;
    }
  }
  // Dropping the last word, at every length down to the empty payload.
  for (std::size_t n = v.size(); n > 0; --n) {
    EXPECT_NE(detail::payload_digest(v.data(), n - 1),
              detail::payload_digest(v.data(), n))
        << "truncation " << n << " -> " << n - 1;
  }
}

// ---------------------------------------------------------------------
// Selection: make_transport / WA_TRANSPORT / bench::env_transport.

TEST(TransportSelectTest, MakeTransportByName) {
  EXPECT_STREQ(make_transport("")->name(), "sim");
  EXPECT_STREQ(make_transport("sim")->name(), "sim");
  EXPECT_STREQ(make_transport("shm")->name(), "shm");
  EXPECT_FALSE(make_transport("sim")->moves_data());
  EXPECT_TRUE(make_transport("shm")->moves_data());
  EXPECT_THROW(make_transport("bogus"), std::invalid_argument);
  if (!mpi_transport_available()) {
    EXPECT_THROW(make_transport("mpi"), std::invalid_argument);
  }
}

class TransportEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* old = std::getenv("WA_TRANSPORT");
    if (old != nullptr) saved_ = old;
  }
  void TearDown() override {
    if (saved_.empty()) {
      unsetenv("WA_TRANSPORT");
    } else {
      setenv("WA_TRANSPORT", saved_.c_str(), 1);
    }
  }
  std::string saved_;
};

TEST_F(TransportEnvTest, EnvSelectsTransport) {
  unsetenv("WA_TRANSPORT");
  EXPECT_STREQ(transport_from_env()->name(), "sim");
  setenv("WA_TRANSPORT", "shm", 1);
  EXPECT_STREQ(transport_from_env()->name(), "shm");
  setenv("WA_TRANSPORT", "nope", 1);
  EXPECT_THROW(transport_from_env(), std::invalid_argument);
}

TEST_F(TransportEnvTest, BenchEnvTransportExitsTwoOnGarbage) {
  setenv("WA_TRANSPORT", "garbage", 1);
  EXPECT_EXIT({ auto t = bench::env_transport(); (void)t; },
              ::testing::ExitedWithCode(2), "unknown transport");
}

TEST_F(TransportEnvTest, MachineDefaultsToEnvTransport) {
  setenv("WA_TRANSPORT", "shm", 1);
  Machine m(2, 32, 64, 128);
  EXPECT_STREQ(m.transport().name(), "shm");
  unsetenv("WA_TRANSPORT");
  Machine m2(2, 32, 64, 128);
  EXPECT_STREQ(m2.transport().name(), "sim");
}

// ---------------------------------------------------------------------
// Machine-level movement: charged collectives really deliver bytes.

TEST(MachineTransportTest, ChargedSendDeliversThroughMachine) {
  Machine m(4, 32, 64, 128, HwParams{}, nullptr,
            std::make_unique<ShmTransport>());
  std::vector<double> payload = {3.0, 1.0, 4.0, 1.0, 5.0};
  m.send(0, 2, payload.size(), payload.data());
  const auto* shm = dynamic_cast<const ShmTransport*>(&m.transport());
  ASSERT_NE(shm, nullptr);
  EXPECT_EQ(0, std::memcmp(shm->arena(2).data(), payload.data(),
                           payload.size() * sizeof(double)));
  // The charge itself is transport-independent.
  EXPECT_EQ(m.proc(0).nw.words, payload.size());
  EXPECT_EQ(m.proc(2).nw.words, payload.size());
}

TEST(MachineTransportTest, SetTransportAttachesToMachineWidth) {
  Machine m(3, 32, 64, 128);
  m.set_transport(std::make_unique<ShmTransport>());
  // All three ranks addressable: a group collective must not throw,
  // and the binomial tree on 3 ranks makes exactly 2 deliveries.
  m.bcast({0, 1, 2}, 7);
  EXPECT_EQ(dynamic_cast<const ShmTransport*>(&m.transport())->stats().words,
            14u);
  EXPECT_THROW(m.set_transport(nullptr), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Calibration fit.

TEST(CalibrateTest, FitRecoversExactCoefficients) {
  const double alpha = 3e-6, beta = 2.5e-9;
  std::vector<CommSample> samples;
  for (double msgs : {4.0, 16.0, 64.0, 256.0}) {
    const double words = 1000.0 * msgs + 500.0;
    samples.push_back({msgs, words, alpha * msgs + beta * words});
  }
  const AlphaBeta fit = fit_alpha_beta(samples);
  EXPECT_NEAR(fit.alpha, alpha, 1e-9 * alpha);
  EXPECT_NEAR(fit.beta, beta, 1e-9 * beta);
  EXPECT_LT(fit.residual, 1e-12);
}

TEST(CalibrateTest, DegenerateFitFallsBackToBandwidth) {
  // All samples proportional: latency and bandwidth inseparable.
  std::vector<CommSample> samples = {{1.0, 100.0, 2e-7},
                                     {2.0, 200.0, 4e-7},
                                     {4.0, 400.0, 8e-7}};
  const AlphaBeta fit = fit_alpha_beta(samples);
  EXPECT_DOUBLE_EQ(fit.alpha, 0.0);
  EXPECT_NEAR(fit.beta, 2e-9, 1e-15);
  EXPECT_TRUE(fit_alpha_beta({}).alpha == 0.0 && fit_alpha_beta({}).beta == 0.0);
}

TEST(CalibrateTest, FittedHwReplacesMeasuredChannels) {
  AlphaBeta net{5e-6, 3e-9, 0.0};
  const HwParams hw = fitted_hw(net, 2e-9, 6e-9);
  EXPECT_DOUBLE_EQ(hw.alpha_nw, 5e-6);
  EXPECT_DOUBLE_EQ(hw.beta_nw, 3e-9);
  EXPECT_DOUBLE_EQ(hw.beta_32, 2e-9);
  EXPECT_DOUBLE_EQ(hw.beta_23, 6e-9);
  // Zero measurements keep the defaults.
  const HwParams kept = fitted_hw(AlphaBeta{}, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(kept.beta_nw, HwParams{}.beta_nw);
}

// ---------------------------------------------------------------------
// The acceptance pin: bitwise-identical results and byte-identical
// counters between sim and shm for every distributed family, on
// P in {1, 4, 6} including indivisible n.

Machine machine_with(std::size_t P, const char* transport) {
  return Machine(P, /*M1=*/192, /*M2=*/4096, /*M3=*/std::size_t(1) << 24,
                 HwParams{}, nullptr, make_transport(transport));
}

/// Run @p algo under sim and shm and require byte-identical counters
/// and bitwise-identical numerics (the outputs are compared by the
/// caller via the returned buffers' bytes).
template <class Algo>
void expect_sim_shm_identical(std::size_t P, Algo&& algo) {
  Machine msim = machine_with(P, "sim");
  Machine mshm = machine_with(P, "shm");
  const std::vector<double> out_sim = algo(msim);
  const std::vector<double> out_shm = algo(mshm);
  ASSERT_EQ(out_sim.size(), out_shm.size());
  EXPECT_EQ(0, std::memcmp(out_sim.data(), out_shm.data(),
                           out_sim.size() * sizeof(double)))
      << "bitwise divergence at P=" << P;
  EXPECT_TRUE(bench::same_counters(msim, mshm)) << "counters at P=" << P;
  // shm really moved words for any schedule with cross-rank traffic.
  if (P > 1) {
    const auto* shm = dynamic_cast<const ShmTransport*>(&mshm.transport());
    ASSERT_NE(shm, nullptr);
    const TransportStats st = shm->stats();
    EXPECT_GT(st.words, 0u);
    EXPECT_EQ(st.verified, st.words);  // every delivery checksum-clean
  }
}

std::vector<double> flat(const Matrix<double>& m) {
  return std::vector<double>(m.data(), m.data() + m.rows() * m.cols());
}

TEST(SimShmIdentityTest, SummaAllVariants) {
  for (const std::size_t P : {1u, 4u, 6u}) {
    for (const std::size_t n : {12u, 13u}) {  // 13: indivisible everywhere
      auto a = linalg::random_spd(n, 3);
      auto b = linalg::random_spd(n, 5);
      expect_sim_shm_identical(P, [&](Machine& m) {
        Matrix<double> c(n, n, 0.0);
        summa_2d(m, c.view(), a.view(), b.view());
        return flat(c);
      });
      expect_sim_shm_identical(P, [&](Machine& m) {
        Matrix<double> c(n, n, 0.0);
        summa_2d_hoarding(m, c.view(), a.view(), b.view());
        return flat(c);
      });
      expect_sim_shm_identical(P, [&](Machine& m) {
        Matrix<double> c(n, n, 0.0);
        summa_l3_ool2(m, c.view(), a.view(), b.view());
        return flat(c);
      });
    }
  }
}

TEST(SimShmIdentityTest, Mm25d) {
  for (const std::size_t P : {1u, 4u, 6u}) {
    const std::size_t n = 13;
    auto a = linalg::random_spd(n, 7);
    auto b = linalg::random_spd(n, 9);
    Mm25dOptions opt;
    opt.c = P == 1 ? 1 : 2;
    opt.use_l3 = true;
    expect_sim_shm_identical(P, [&](Machine& m) {
      Matrix<double> c(n, n, 0.0);
      mm_25d(m, c.view(), a.view(), b.view(), opt);
      return flat(c);
    });
  }
}

TEST(SimShmIdentityTest, LuBothSchedules) {
  for (const std::size_t P : {1u, 4u, 6u}) {
    const std::size_t n = 13;  // indivisible by b and the grids
    auto a0 = linalg::random_spd(n, 11);
    expect_sim_shm_identical(P, [&](Machine& m) {
      auto a = a0;
      lu_right_looking(m, a.view(), /*b=*/3);
      return flat(a);
    });
    expect_sim_shm_identical(P, [&](Machine& m) {
      auto a = a0;
      lu_left_looking(m, a.view(), /*b=*/3, /*s=*/2);
      return flat(a);
    });
  }
}

TEST(SimShmIdentityTest, DistributedKrylov) {
  const sparse::Csr A = sparse::stencil_2d(7, 5);  // 35 nodes: indivisible
  std::vector<double> b(A.n, 1.0);
  for (const std::size_t P : {1u, 4u, 6u}) {
    expect_sim_shm_identical(P, [&](Machine& m) {
      std::vector<double> x(A.n, 0.0);
      cg(m, A, b, x, /*max_iters=*/25, /*tol=*/1e-10);
      return x;
    });
    for (const auto mode :
         {krylov::CaCgMode::kStored, krylov::CaCgMode::kStreaming}) {
      expect_sim_shm_identical(P, [&](Machine& m) {
        std::vector<double> x(A.n, 0.0);
        krylov::CaCgOptions opt;
        opt.s = 2;
        opt.max_outer = 12;
        opt.tol = 1e-10;
        opt.mode = mode;
        ca_cg(m, A, b, x, opt);
        return x;
      });
    }
  }
}

// ---------------------------------------------------------------------
// TSan-targeted stress: the tiny parallel threshold forces every
// collective round onto concurrent sender/receiver thread pairs while
// the threaded backend's persistent pool runs the local phases -- the
// maximal-concurrency configuration the WA_SANITIZE=thread CI leg is
// built to vet.  The reference is the fully serial charge-only run:
// counters and bits must survive both axes at once, and every word
// that moved must checksum-verify end to end.

template <class Algo>
void expect_stress_identical(std::size_t P, Algo&& algo) {
  Machine ref(P, /*M1=*/192, /*M2=*/4096, /*M3=*/std::size_t(1) << 24,
              HwParams{}, std::make_unique<SerialSimBackend>(),
              std::make_unique<SimTransport>());
  Machine hot(P, /*M1=*/192, /*M2=*/4096, /*M3=*/std::size_t(1) << 24,
              HwParams{}, std::make_unique<ThreadedBackend>(4),
              std::make_unique<ShmTransport>(/*parallel_words=*/8));
  const std::vector<double> out_ref = algo(ref);
  const std::vector<double> out_hot = algo(hot);
  ASSERT_EQ(out_ref.size(), out_hot.size());
  EXPECT_EQ(0, std::memcmp(out_ref.data(), out_hot.data(),
                           out_ref.size() * sizeof(double)))
      << "bitwise divergence under threaded backend + threaded rounds";
  EXPECT_TRUE(bench::same_counters(ref, hot));
  const auto* shm = dynamic_cast<const ShmTransport*>(&hot.transport());
  ASSERT_NE(shm, nullptr);
  const TransportStats st = shm->stats();
  EXPECT_GT(st.words, 0u);
  EXPECT_EQ(st.verified, st.words);  // every delivery checksum-clean
}

TEST(ShmStressTest, ConcurrentLargeRoundsAcrossAllFamilies) {
  const std::size_t P = 8, n = 24;
  auto a = linalg::random_spd(n, 13);
  auto b = linalg::random_spd(n, 17);
  expect_stress_identical(P, [&](Machine& m) {
    Matrix<double> c(n, n, 0.0);
    summa_2d(m, c.view(), a.view(), b.view());
    return flat(c);
  });
  expect_stress_identical(P, [&](Machine& m) {
    Matrix<double> c(n, n, 0.0);
    Mm25dOptions opt;
    opt.c = 2;
    opt.use_l3 = true;
    mm_25d(m, c.view(), a.view(), b.view(), opt);
    return flat(c);
  });
  expect_stress_identical(P, [&](Machine& m) {
    auto f = a;
    lu_right_looking(m, f.view(), /*b=*/4);
    return flat(f);
  });
  expect_stress_identical(P, [&](Machine& m) {
    auto f = a;
    lu_left_looking(m, f.view(), /*b=*/4, /*s=*/2);
    return flat(f);
  });
  const sparse::Csr A = sparse::stencil_2d(6, 6);  // 36 nodes on P = 8
  const std::vector<double> rhs(A.n, 1.0);
  expect_stress_identical(P, [&](Machine& m) {
    std::vector<double> x(A.n, 0.0);
    cg(m, A, rhs, x, /*max_iters=*/20, /*tol=*/1e-10);
    return x;
  });
  expect_stress_identical(P, [&](Machine& m) {
    std::vector<double> x(A.n, 0.0);
    krylov::CaCgOptions opt;
    opt.s = 2;
    opt.max_outer = 10;
    opt.tol = 1e-10;
    ca_cg(m, A, rhs, x, opt);
    return x;
  });
}

}  // namespace
}  // namespace wa::dist
