// Tests for the data-movement seam (dist/transport.hpp): ShmTransport
// delivery/verification semantics, batched sends (send_all) landing
// exactly what one-by-one sends land, the WA_TRANSPORT env contract
// (library throws, benches exit 2), the calibration fit, and the
// headline acceptance pin of the seam -- SUMMA, 2.5D, LU (LL+RL), and
// distributed CG/CA-CG produce bitwise-identical results and
// byte-identical counters whether the transport merely charges (sim)
// or really moves every payload between rank arenas (shm).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "dist/calibrate.hpp"
#include "dist/detail.hpp"
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
  // 6 ranks end on a partial round; 8 ranks run full rounds of up to
  // four hops.  Binomial fan-out: g-1 deliveries of `words` each.
  struct Case {
    std::size_t P, words;
  };
  for (const Case c : {Case{6, 33}, Case{8, 1024}}) {
    ShmTransport tp;
    tp.attach(c.P);
    std::vector<std::size_t> group(c.P);
    std::iota(group.begin(), group.end(), std::size_t{0});
    std::vector<double> payload(c.words);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = double(i) * 0.75 - 100.0;
    }
    tp.bcast(group, payload.size(), payload.data());
    for (std::size_t p = 1; p < c.P; ++p) {
      EXPECT_EQ(0, std::memcmp(tp.arena(p).data(), payload.data(),
                               payload.size() * sizeof(double)))
          << "P=" << c.P << " rank " << p;
    }
    const TransportStats st = tp.stats();
    EXPECT_EQ(st.messages, c.P - 1);
    EXPECT_EQ(st.words, (c.P - 1) * payload.size());
    EXPECT_EQ(st.verified, st.words);
  }
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
  SerialSimBackend serial;
  EXPECT_THROW(tp.send(0, 5, 4, nullptr), std::out_of_range);
  // Every entry point checks its ranks before its zero-word and self
  // early returns, and a batch checks all of them before moving any.
  EXPECT_THROW(tp.send(0, 5, 0, nullptr), std::out_of_range);
  EXPECT_THROW(tp.send(5, 5, 4, nullptr), std::out_of_range);
  EXPECT_THROW(tp.bcast({5}, 4, nullptr), std::out_of_range);
  EXPECT_THROW(tp.bcast({0, 5}, 0, nullptr), std::out_of_range);
  EXPECT_THROW(tp.reduce({5}, 4, nullptr), std::out_of_range);
  EXPECT_THROW(tp.reduce({1, 5}, 0, nullptr), std::out_of_range);
  EXPECT_THROW(tp.send_all({{0, 1, 4}, {0, 5, 0}}, serial),
               std::out_of_range);
  EXPECT_THROW(tp.arena(2), std::out_of_range);
  EXPECT_EQ(tp.stats().messages, 0u);
  EXPECT_TRUE(tp.arena(1).empty());
}

/// The bytes a send without a payload moves from rank @p src: the
/// one-word formula the transport's four-lane generator must match.
std::vector<double> synthetic_words(std::size_t src, std::size_t words) {
  std::vector<double> v(words);
  for (std::size_t i = 0; i < words; ++i) {
    v[i] = double((src * 2654435761ull + i * 40503ull) & 0xFFFFull) * 1e-3;
  }
  return v;
}

TEST(ShmTransportTest, SyntheticPayloadIsTheOneWordFormula) {
  // 37 words end on a one-word tail; 70,001 words step the
  // generator's 32-bit keys through several wraps, and rank 7's key
  // product already wraps 32 bits.
  ShmTransport tp;
  tp.attach(8);
  for (const std::size_t words : {std::size_t{37}, std::size_t{70001}}) {
    for (const std::size_t src : {std::size_t{3}, std::size_t{7}}) {
      const std::vector<double> want = synthetic_words(src, words);
      tp.send(src, 0, words, nullptr);
      EXPECT_EQ(0, std::memcmp(tp.arena(0).data(), want.data(),
                               words * sizeof(double)))
          << "send from " << src << ", " << words << " words";
      // A broadcast tree starts from the same pattern.
      tp.bcast({src, 1}, words, nullptr);
      EXPECT_EQ(0, std::memcmp(tp.arena(1).data(), want.data(),
                               words * sizeof(double)))
          << "bcast from " << src << ", " << words << " words";
    }
  }
}

// ---------------------------------------------------------------------
// Batched sends: Machine::send_all lands exactly what one-by-one sends
// land, on either backend.

/// Forwards every call to a ShmTransport but keeps Transport's default
/// send_all, the path a wrapping transport that does not override it
/// takes.
class ForwardingTransport final : public Transport {
 public:
  const char* name() const override { return "forwarding"; }
  bool moves_data() const override { return true; }
  void attach(std::size_t P) override { inner_.attach(P); }
  void send(std::size_t src, std::size_t dst, std::size_t words,
            const double* payload) override {
    inner_.send(src, dst, words, payload);
  }
  void bcast(const std::vector<std::size_t>& group, std::size_t words,
             const double* payload) override {
    inner_.bcast(group, words, payload);
  }
  void reduce(const std::vector<std::size_t>& group, std::size_t words,
              const double* payload) override {
    inner_.reduce(group, words, payload);
  }
  TransportStats stats() const override { return inner_.stats(); }
  const ShmTransport& inner() const { return inner_; }

 private:
  ShmTransport inner_;
};

const ShmTransport& shm_of(const Machine& m) {
  if (const auto* fwd = dynamic_cast<const ForwardingTransport*>(
          &m.transport())) {
    return fwd->inner();
  }
  return dynamic_cast<const ShmTransport&>(m.transport());
}

/// Every arena, byte for byte and in size, the movement stats and
/// every rank's counters of @p got equal @p want's.
void expect_same_movement(const Machine& want, const Machine& got,
                          const char* what) {
  const ShmTransport& a = shm_of(want);
  const ShmTransport& b = shm_of(got);
  for (std::size_t p = 0; p < want.nprocs(); ++p) {
    ASSERT_EQ(a.arena(p).size(), b.arena(p).size()) << what << " rank " << p;
    if (a.arena(p).empty()) continue;  // memcmp may not take null
    EXPECT_EQ(0, std::memcmp(a.arena(p).data(), b.arena(p).data(),
                             a.arena(p).size() * sizeof(double)))
        << what << " rank " << p;
  }
  EXPECT_EQ(a.stats().messages, b.stats().messages) << what;
  EXPECT_EQ(a.stats().words, b.stats().words) << what;
  EXPECT_EQ(a.stats().verified, b.stats().verified) << what;
  EXPECT_TRUE(bench::same_counters(want, got)) << what;
}

Machine shm_machine(std::unique_ptr<Backend> backend,
                    std::unique_ptr<Transport> transport =
                        std::make_unique<ShmTransport>()) {
  return Machine(6, 32, 64, 128, HwParams{}, std::move(backend),
                 std::move(transport));
}

TEST(ShmSendAllTest, LandsExactlyWhatOneByOneSendsLand) {
  std::vector<double> payload(41);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = double(i) * 0.5 - 3.0;
  }
  const std::vector<Transfer> batch = {
      // One source to three destinations.
      {0, 1, 50},
      {0, 2, 20},
      {0, 3, 64},
      // Three sources into rank 4, each shorter than the one before,
      // so every later delivery leaves an earlier one's tail.
      {1, 4, 90},
      {2, 4, 60},
      {3, 4, 30},
      // A payload-carrying transfer, also shorter than rank 3's first.
      {5, 3, 41, payload.data()},
      // A self and a zero-word transfer: charged and moved nothing.
      {5, 5, 16},
      {2, 0, 0},
  };

  Machine serial = shm_machine(std::make_unique<SerialSimBackend>());
  for (const Transfer& t : batch) serial.send(t.src, t.dst, t.words, t.payload);
  const ShmTransport& ref = shm_of(serial);
  ASSERT_EQ(ref.arena(4).size(), 90u);
  EXPECT_EQ(0, std::memcmp(ref.arena(4).data() + 60,
                           synthetic_words(1, 90).data() + 60,
                           30 * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(ref.arena(3).data(), payload.data(),
                           payload.size() * sizeof(double)));
  EXPECT_EQ(ref.stats().messages, 7u);
  EXPECT_EQ(ref.stats().words, 355u);
  EXPECT_EQ(ref.stats().verified, 355u);
  EXPECT_TRUE(ref.arena(0).empty());
  EXPECT_TRUE(ref.arena(5).empty());

  Machine on_serial = shm_machine(std::make_unique<SerialSimBackend>());
  on_serial.send_all(batch);
  expect_same_movement(serial, on_serial, "send_all on SerialSimBackend");

  Machine on_pool = shm_machine(std::make_unique<ThreadedBackend>(3));
  on_pool.send_all(batch);
  expect_same_movement(serial, on_pool, "send_all on ThreadedBackend(3)");

  Machine by_default = shm_machine(std::make_unique<ThreadedBackend>(3),
                                   std::make_unique<ForwardingTransport>());
  by_default.send_all(batch);
  expect_same_movement(serial, by_default, "Transport's default send_all");
}

TEST(ShmSendAllTest, OutOfRangeRankChargesAndMovesNothing) {
  const std::vector<std::vector<Transfer>> bad = {
      {{0, 1, 50}, {1, 2, 8}, {2, 6, 8}},  // a bad destination last
      {{0, 1, 50}, {6, 2, 0}, {2, 3, 8}},  // a bad zero-word source
      {{0, 1, 50}, {7, 7, 8}},             // a bad self transfer
  };
  const auto expect_untouched = [](const Machine& m) {
    for (std::size_t p = 0; p < m.nprocs(); ++p) {
      EXPECT_EQ(m.proc(p).nw.words, 0u) << m.backend().name();
      EXPECT_EQ(m.proc(p).nw.messages, 0u) << m.backend().name();
      EXPECT_EQ(m.proc(p).l2_write.words, 0u) << m.backend().name();
      EXPECT_TRUE(shm_of(m).arena(p).empty()) << m.backend().name();
    }
    EXPECT_EQ(shm_of(m).stats().messages, 0u);
    EXPECT_EQ(m.comm_wall_seconds(), 0.0);
  };
  for (const std::vector<Transfer>& batch : bad) {
    Machine ms[] = {shm_machine(std::make_unique<SerialSimBackend>()),
                    shm_machine(std::make_unique<ThreadedBackend>(3))};
    for (Machine& m : ms) {
      EXPECT_THROW(m.send_all(batch), std::out_of_range) << m.backend().name();
      expect_untouched(m);
    }
  }
  // A one-member collective has no rounds, yet its member is checked
  // like every other endpoint; a valid one charges and moves nothing.
  Machine ms[] = {shm_machine(std::make_unique<SerialSimBackend>()),
                  shm_machine(std::make_unique<ThreadedBackend>(3))};
  std::vector<double> payload(8, 1.0);
  const Machine::Tiles tile = {
      linalg::ConstMatrixView<double>(payload.data(), 1, 8, 8)};
  for (Machine& m : ms) {
    EXPECT_THROW(m.bcast({6}, 8), std::out_of_range) << m.backend().name();
    EXPECT_THROW(m.reduce({7}, 8), std::out_of_range) << m.backend().name();
    m.bcast({5}, tile);
    m.reduce({5}, tile);
    expect_untouched(m);
  }
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

TEST(PayloadDigestTest, CorruptedDeliveryLeavesArenaUntouched) {
  const std::vector<double> sent = digest_buffer();
  const std::uint64_t digest = digest_of(sent);
  std::vector<double> garbled = sent;
  flip_bit(garbled, 5 * 64 + 17);  // one bit flipped after digesting
  for (const bool combine : {false, true}) {
    // Shorter than the delivery, so a premature resize would show.
    const std::vector<double> before = {1.0, -2.0, 4.5};
    std::vector<double> arena = before;
    EXPECT_FALSE(detail::land_verified(arena, garbled.data(), garbled.size(),
                                       digest, combine));
    ASSERT_EQ(arena.size(), before.size()) << "combine=" << combine;
    EXPECT_EQ(0, std::memcmp(arena.data(), before.data(),
                             before.size() * sizeof(double)))
        << "combine=" << combine;

    // The clean delivery lands: it overwrites, or adds elementwise.
    ASSERT_TRUE(detail::land_verified(arena, sent.data(), sent.size(),
                                      digest, combine));
    ASSERT_EQ(arena.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      const double want =
          combine && i < before.size() ? before[i] + sent[i] : sent[i];
      EXPECT_EQ(arena[i], want) << "combine=" << combine << " word " << i;
    }
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
// Movement tied to charging: under ShmTransport every charged event
// moves a closed-form number of words, (g-1) w for a collective among
// g ranks and w for a send, and a collective's tiles land row-major,
// back to back.

/// A Machine of 9 ranks over ShmTransport, on ThreadedBackend(3) when
/// @p pool is set and on SerialSimBackend otherwise.
Machine shm_machine9(bool pool) {
  std::unique_ptr<Backend> backend;
  if (pool) {
    backend = std::make_unique<ThreadedBackend>(3);
  } else {
    backend = std::make_unique<SerialSimBackend>();
  }
  return Machine(9, 32, 64, 128, HwParams{}, std::move(backend),
                 std::make_unique<ShmTransport>());
}

/// Checks what one collective call among @p group charged and moved,
/// from the counters @p before and the stats @p moved_before it: each
/// member ceil(log2 g) rounds of @p w words (and, for a reduce, as
/// many L1 -> L2 combine words), no other rank anything, and g-1
/// deliveries of @p w words.
void expect_moved_as_charged(const Machine& m, const ProcTraffic* before,
                             const TransportStats& moved_before,
                             const std::vector<std::size_t>& group,
                             std::size_t w, bool reduce, const char* what) {
  const std::size_t g = group.size();
  const std::uint64_t rounds = Machine::bcast_rounds(g);
  const TransportStats st = shm_of(m).stats();
  EXPECT_EQ(st.messages - moved_before.messages, g - 1) << what;
  EXPECT_EQ(st.words - moved_before.words, (g - 1) * w) << what;
  EXPECT_EQ(st.verified - moved_before.verified, (g - 1) * w) << what;
  for (std::size_t p = 0; p < m.nprocs(); ++p) {
    const bool member = std::find(group.begin(), group.end(), p) != group.end();
    const std::uint64_t words = member ? rounds * w : 0;
    const std::uint64_t msgs = member ? rounds : 0;
    const ProcTraffic& t = m.proc(p);
    EXPECT_EQ(t.nw.words - before[p].nw.words, words) << what << " rank " << p;
    EXPECT_EQ(t.nw.messages - before[p].nw.messages, msgs)
        << what << " rank " << p;
    EXPECT_EQ(t.l2_write.words - before[p].l2_write.words,
              reduce ? words : 0)
        << what << " rank " << p;
    EXPECT_EQ(t.l2_write.messages - before[p].l2_write.messages,
              reduce ? msgs : 0)
        << what << " rank " << p;
  }
}

TEST(MachineMovementTest, EveryCollectiveMovesWhatItCharges) {
  for (const bool pool : {false, true}) {
    Machine m = shm_machine9(pool);
    for (std::size_t g = 1; g <= 9; ++g) {
      // A scrambled group, so the root is not rank 0 and the members
      // are not a prefix.
      std::vector<std::size_t> group(g);
      for (std::size_t i = 0; i < g; ++i) group[i] = (2 * i + 5) % 9;
      for (const std::size_t w : {std::size_t{1}, std::size_t{37}}) {
        // The tile form carries a strided column of a w x 3 matrix.
        Matrix<double> src(w, 3);
        for (std::size_t i = 0; i < w; ++i) {
          for (std::size_t j = 0; j < 3; ++j) src(i, j) = double(3 * i + j);
        }
        const Machine::Tiles tiles = {src.block(0, 1, w, 1)};
        for (int call = 0; call < 4; ++call) {
          const bool reduce = call >= 2;
          const bool tiled = call % 2 == 1;
          const std::string what = std::string(m.backend().name()) +
                                   (reduce ? " reduce" : " bcast") +
                                   (tiled ? " tiles" : " words") +
                                   " g=" + std::to_string(g) +
                                   " w=" + std::to_string(w);
          std::vector<ProcTraffic> before(m.nprocs());
          for (std::size_t p = 0; p < m.nprocs(); ++p) before[p] = m.proc(p);
          const TransportStats moved = shm_of(m).stats();
          if (reduce) {
            tiled ? m.reduce(group, tiles) : m.reduce(group, w);
          } else {
            tiled ? m.bcast(group, tiles) : m.bcast(group, w);
          }
          expect_moved_as_charged(m, before.data(), moved, group, w, reduce,
                                  what.c_str());
        }
      }
    }
  }
}

TEST(MachineMovementTest, SendAllMovesOnlyWhatItCharges) {
  std::vector<double> payload(23, 0.25);
  const std::vector<Transfer> batch = {
      {0, 1, 10},  {1, 0, 10},  // a pair in both directions
      {2, 2, 40},                // self: charged and moved nothing
      {3, 4, 0},                 // zero words: nothing
      {0, 1, 7},                 // the same endpoints again
      {5, 1, 23, payload.data()},
      {8, 8, 0},                 // self and empty
      {6, 7, 3},
  };
  std::vector<std::uint64_t> want(9, 0);
  std::uint64_t messages = 0, words = 0;
  for (const Transfer& t : batch) {
    if (t.src == t.dst || t.words == 0) continue;
    want[t.src] += t.words;
    want[t.dst] += t.words;
    messages += 1;
    words += t.words;
  }
  ASSERT_EQ(messages, 5u);
  ASSERT_EQ(words, 53u);
  for (const bool pool : {false, true}) {
    Machine m = shm_machine9(pool);
    m.send_all(batch);
    const TransportStats st = shm_of(m).stats();
    EXPECT_EQ(st.messages, messages) << m.backend().name();
    EXPECT_EQ(st.words, words) << m.backend().name();
    EXPECT_EQ(st.verified, words) << m.backend().name();
    for (std::size_t p = 0; p < m.nprocs(); ++p) {
      EXPECT_EQ(m.proc(p).nw.words, want[p]) << m.backend().name() << " " << p;
    }
  }
}

/// @p tiles concatenated row-major, back to back.
std::vector<double> row_major(const Machine::Tiles& tiles) {
  std::vector<double> out;
  for (const auto& t : tiles) {
    for (std::size_t i = 0; i < t.rows(); ++i) {
      for (std::size_t j = 0; j < t.cols(); ++j) out.push_back(t(i, j));
    }
  }
  return out;
}

/// Small integers, so sums of a few of them are exact.
Matrix<double> numbered(std::size_t rows, std::size_t cols, double base) {
  Matrix<double> a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      a(i, j) = base + double(i * cols + j);
    }
  }
  return a;
}

TEST(MachineMovementTest, TilesLandRowMajorBackToBack) {
  const Matrix<double> a = numbered(7, 9, 1.0);
  const Matrix<double> b = numbered(6, 5, 100.0);
  const std::vector<std::size_t> group = {4, 0, 7, 2, 5};
  struct Case {
    const char* name;
    Machine::Tiles tiles;
  };
  const Case cases[] = {
      // Two strided views into larger matrices.
      {"two strided tiles", {a.block(1, 2, 3, 4), b.block(2, 1, 4, 3)}},
      // One contiguous tile goes to the transport unpacked.
      {"one contiguous tile", {b.view()}},
  };
  for (const Case& c : cases) {
    const std::vector<double> want = row_major(c.tiles);
    for (const bool pool : {false, true}) {
      Machine m = shm_machine9(pool);
      m.bcast(group, c.tiles);
      for (std::size_t p : group) {
        const std::vector<double>& got = shm_of(m).arena(p);
        ASSERT_EQ(got.size(), want.size()) << c.name << " rank " << p;
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 want.size() * sizeof(double)))
            << c.name << " rank " << p;
      }
      // A reduce stages the same bytes on every member and adds them
      // up the tree: the root ends with |group| times the tiles.
      m.reduce(group, c.tiles);
      const std::vector<double>& root = shm_of(m).arena(group.front());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(root[i], double(group.size()) * want[i])
            << c.name << " word " << i;
      }
    }
  }
}

TEST(WordRangeTest, ViewsCoverExactlyTheWordRange) {
  // Blocks of every shape up to 5 x 5, strided inside a larger matrix.
  const Matrix<double> big = numbered(8, 9, 0.5);
  for (std::size_t rows = 1; rows <= 5; ++rows) {
    for (std::size_t cols = 1; cols <= 5; ++cols) {
      const auto blk = big.block(2, 3, rows, cols);
      const std::vector<double> all = row_major({blk});
      for (std::size_t off = 0; off <= rows * cols; ++off) {
        for (std::size_t w = 0; off + w <= rows * cols; ++w) {
          const Machine::Tiles views = detail::word_range(blk, off, w);
          EXPECT_LE(views.size(), 3u);
          for (const auto& v : views) EXPECT_GT(v.rows() * v.cols(), 0u);
          const std::vector<double> got = row_major(views);
          const std::vector<double> want(all.begin() + off,
                                         all.begin() + off + w);
          EXPECT_EQ(got, want) << rows << "x" << cols << " [" << off << ", "
                               << off + w << ")";
        }
      }
      EXPECT_THROW(detail::word_range(blk, 1, rows * cols), std::out_of_range);
    }
  }
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

TEST(CalibrateTest, ClampedCoefficientRefitsTheOther) {
  // seconds = 4e-9 * w - 2e-6 * m: the unconstrained alpha is negative.
  // Clamping it to zero while keeping the unconstrained beta = 4e-9
  // leaves an RMS residual of 6.6e-5 s; refitting beta alone under
  // alpha = 0 gives the constrained optimum, beta = 3.60e-9 at 4.1e-6 s.
  std::vector<CommSample> samples;
  double ws = 0, ww = 0;
  for (double msgs : {1.0, 4.0, 16.0, 64.0}) {
    const double words = 5000.0 * msgs + 20000.0 / msgs;
    const double secs = 4e-9 * words - 2e-6 * msgs;
    samples.push_back({msgs, words, secs});
    ws += words * secs;
    ww += words * words;
  }
  const AlphaBeta fit = fit_alpha_beta(samples);
  EXPECT_EQ(fit.alpha, 0.0);
  EXPECT_NEAR(fit.beta, ws / ww, 1e-12 * (ws / ww));
  EXPECT_NEAR(fit.beta, 3.603e-9, 1e-12);
  EXPECT_NEAR(fit.residual, 4.101e-6, 1e-9);

  // The mirror case: a negative beta clamps to zero, alpha is refit.
  for (CommSample& c : samples) std::swap(c.messages, c.words);
  const AlphaBeta mirror = fit_alpha_beta(samples);
  EXPECT_EQ(mirror.beta, 0.0);
  EXPECT_NEAR(mirror.alpha, fit.beta, 1e-12 * fit.beta);
  EXPECT_NEAR(mirror.residual, fit.residual, 1e-9 * fit.residual);
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
// TSan-targeted stress: the threaded backend's persistent pool runs
// every local phase while the orchestration thread moves and verifies
// every charged transfer through the shm transport -- the
// configuration the WA_SANITIZE=thread CI leg is built to vet.  The
// reference is the fully serial charge-only run: counters and bits
// must survive both axes at once, and every word that moved must
// checksum-verify end to end.

template <class Algo>
void expect_stress_identical(std::size_t P, Algo&& algo) {
  Machine ref(P, /*M1=*/192, /*M2=*/4096, /*M3=*/std::size_t(1) << 24,
              HwParams{}, std::make_unique<SerialSimBackend>(),
              std::make_unique<SimTransport>());
  Machine hot(P, /*M1=*/192, /*M2=*/4096, /*M3=*/std::size_t(1) << 24,
              HwParams{}, std::make_unique<ThreadedBackend>(4),
              std::make_unique<ShmTransport>());
  const std::vector<double> out_ref = algo(ref);
  const std::vector<double> out_hot = algo(hot);
  ASSERT_EQ(out_ref.size(), out_hot.size());
  EXPECT_EQ(0, std::memcmp(out_ref.data(), out_hot.data(),
                           out_ref.size() * sizeof(double)))
      << "bitwise divergence under threaded backend + shm transport";
  EXPECT_TRUE(bench::same_counters(ref, hot));
  const auto* shm = dynamic_cast<const ShmTransport*>(&hot.transport());
  ASSERT_NE(shm, nullptr);
  const TransportStats st = shm->stats();
  EXPECT_GT(st.words, 0u);
  EXPECT_EQ(st.verified, st.words);  // every delivery checksum-clean
}

TEST(ShmStressTest, ThreadedBackendAcrossAllFamilies) {
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
