#include "dist/transport.hpp"

#include <chrono>
#include <cstring>
#include <initializer_list>

#include "dist/backend.hpp"
#include "dist/payload_digest.hpp"

namespace wa::dist {
namespace detail {
namespace {

/// One digest step: bijective in @p h for fixed @p w and in @p w for
/// fixed @p h (xor, odd multiply and xorshift are each invertible).
inline std::uint64_t digest_step(std::uint64_t h, std::uint64_t w) {
  h = (h ^ w) * 0x9E3779B97F4A7C15ull;
  return h ^ (h >> 29);
}

/// A double's bit pattern (memcpy: alias-safe, no reinterpret_cast).
inline std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

}  // namespace

std::uint64_t payload_digest(const double* data, std::size_t words) {
  // Distinct lane seeds, so lanes holding equal words stay distinct.
  std::uint64_t l0 = 0x243F6A8885A308D3ull, l1 = 0x13198A2E03707344ull,
                l2 = 0xA4093822299F31D0ull, l3 = 0x082EFA98EC4E6C89ull;
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    l0 = digest_step(l0, bits(data[i]));
    l1 = digest_step(l1, bits(data[i + 1]));
    l2 = digest_step(l2, bits(data[i + 2]));
    l3 = digest_step(l3, bits(data[i + 3]));
  }
  for (; i < words; ++i) l0 = digest_step(l0, bits(data[i]));
  // Each lane enters the fold as a w, never as the h: step(l0, l1)
  // xors equal differences in l0 and l1 away, and a flip of any word's
  // top bit leaves the same difference in whichever lane it feeds.
  std::uint64_t h = 0x452821E638D01377ull;
  for (const std::uint64_t lane : {l0, l1, l2, l3}) h = digest_step(h, lane);
  return digest_step(h, words);
}

bool land_verified(std::vector<double>& arena, const double* data,
                   std::size_t words, std::uint64_t digest, bool combine) {
  // Verify first: a corrupted delivery must leave the arena untouched.
  if (payload_digest(data, words) != digest) return false;
  if (arena.size() < words) arena.resize(words);
  if (combine) {
    for (std::size_t i = 0; i < words; ++i) arena[i] += data[i];
  } else {
    std::memcpy(arena.data(), data, words * sizeof(double));
  }
  return true;
}

}  // namespace detail

/// Accumulates elapsed wall-clock into stats_.seconds on destruction.
class ShmTransport::OpTimer {
 public:
  explicit OpTimer(ShmTransport& tp)
      : tp_(tp), start_(std::chrono::steady_clock::now()) {}
  ~OpTimer() {
    const double dt = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    const MutexLock lock(tp_.stats_mu_);
    tp_.stats_.seconds += dt;
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  ShmTransport& tp_;
  std::chrono::steady_clock::time_point start_;
};

void ShmTransport::attach(std::size_t P) {
  P_ = P;
  arenas_.assign(P, {});
}

void ShmTransport::check_rank(std::size_t p) const {
  if (p >= P_) {
    throw std::out_of_range(
        "ShmTransport: rank out of range (attach the transport to a "
        "machine first)");
  }
}

const std::vector<double>& ShmTransport::arena(std::size_t p) const {
  check_rank(p);
  return arenas_[p];
}

namespace {

/// The payload a send without one moves, so the copy cost -- and the
/// integrity check -- are still real: word i from rank @p src is
/// ((src * 2654435761 + i * 40503) mod 2^16) * 1e-3.  Four lanes each
/// step their key by 4 * 40503 in 32-bit arithmetic, which keeps the
/// low 16 bits exact, so every word is bitwise the one-word formula's.
void synthetic_payload(std::size_t src, double* out, std::size_t words) {
  constexpr std::uint32_t kStride = 40503u;
  const auto word = [](std::uint32_t key) {
    return double(std::int32_t(key & 0xFFFFu)) * 1e-3;
  };
  const auto base = std::uint32_t(src * 2654435761ull);
  std::uint32_t k0 = base, k1 = base + kStride, k2 = base + 2 * kStride,
                k3 = base + 3 * kStride;
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4) {
    out[i] = word(k0);
    out[i + 1] = word(k1);
    out[i + 2] = word(k2);
    out[i + 3] = word(k3);
    k0 += 4 * kStride;
    k1 += 4 * kStride;
    k2 += 4 * kStride;
    k3 += 4 * kStride;
  }
  for (; i < words; ++i) out[i] = word(base + std::uint32_t(i) * kStride);
}

[[noreturn]] void throw_corrupted() {
  throw std::runtime_error(
      "ShmTransport: delivery checksum mismatch (transport corrupted "
      "a transfer the model charged)");
}

}  // namespace

void ShmTransport::stage(std::size_t src, std::size_t words,
                         const double* payload) {
  std::vector<double>& a = arenas_[src];
  if (a.size() < words) a.resize(words);
  if (payload != nullptr) {
    std::memcpy(a.data(), payload, words * sizeof(double));
  } else {
    synthetic_payload(src, a.data(), words);
  }
}

void ShmTransport::deliver(const Transfer& t, bool combine, Msg& msg) {
  // Sender side: the sender's bytes go into the heap message (one real
  // copy, or the pattern written there); receiver side: verify and
  // land them in dst's arena (a second real copy, or the add).
  msg.data.resize(t.words);
  if (t.payload != nullptr) {
    std::memcpy(msg.data.data(), t.payload, t.words * sizeof(double));
  } else {
    synthetic_payload(t.src, msg.data.data(), t.words);
  }
  msg.digest = detail::payload_digest(msg.data.data(), t.words);
  if (!detail::land_verified(arenas_[t.dst], msg.data.data(), t.words,
                             msg.digest, combine)) {
    throw_corrupted();
  }
  const MutexLock lock(stats_mu_);
  stats_.messages += 1;
  stats_.words += t.words;
  stats_.verified += t.words;
}

void ShmTransport::send(std::size_t src, std::size_t dst, std::size_t words,
                        const double* payload) {
  check_rank(src);
  check_rank(dst);
  if (words == 0 || src == dst) return;
  const OpTimer t(*this);
  Msg msg;
  deliver(Transfer{src, dst, words, payload}, /*combine=*/false, msg);
}

void ShmTransport::send_all(const std::vector<Transfer>& transfers,
                            Backend& backend) {
  for (const Transfer& t : transfers) {
    check_rank(t.src);
    check_rank(t.dst);
  }
  // Group the deliveries by destination, keeping list order within
  // each: a destination's job then writes only its own arena, in the
  // order serial sends would, and no delivery reads any arena.
  std::vector<std::vector<const Transfer*>> inbox(P_);
  std::vector<std::size_t> dsts;
  for (const Transfer& t : transfers) {
    if (t.words == 0 || t.src == t.dst) continue;
    if (inbox[t.dst].empty()) dsts.push_back(t.dst);
    inbox[t.dst].push_back(&t);
  }
  if (dsts.empty()) return;
  // A delivery charges nothing (the Machine charged it), so the job's
  // hierarchies take any valid shape and its sink drops them.
  const std::vector<std::size_t> uncharged = {1, 2};
  const OpTimer timer(*this);
  backend.run(
      dsts, uncharged,
      [this, &inbox](std::size_t dst, memsim::Hierarchy&) {
        Msg msg;
        for (const Transfer* t : inbox[dst]) {
          deliver(*t, /*combine=*/false, msg);
        }
      },
      [](std::size_t, const memsim::Hierarchy&) {});
}

void ShmTransport::bcast(const std::vector<std::size_t>& group,
                         std::size_t words, const double* payload) {
  for (std::size_t p : group) check_rank(p);
  const std::size_t g = group.size();
  if (g < 2 || words == 0) return;
  const OpTimer t(*this);
  stage(group.front(), words, payload);
  // The binomial tree the Machine charges: in round r every rank with
  // group index < 2^r that has the data forwards it to index + 2^r.
  // A round's senders and receivers are disjoint, so each hop reads
  // bytes no hop of its round writes.
  Msg msg;
  for (std::size_t step = 1; step < g; step *= 2) {
    for (std::size_t i = 0; i < step && i + step < g; ++i) {
      const std::size_t src = group[i];
      deliver({src, group[i + step], words, arenas_[src].data()},
              /*combine=*/false, msg);
    }
  }
}

void ShmTransport::reduce(const std::vector<std::size_t>& group,
                          std::size_t words, const double* payload) {
  for (std::size_t p : group) check_rank(p);
  const std::size_t g = group.size();
  if (g < 2 || words == 0) return;
  const OpTimer t(*this);
  // Every participant contributes a partial; the representative
  // payload (or the synthetic pattern) seeds each arena, and every
  // hop performs the real elementwise combine the Machine charges as
  // L1 -> L2 merge traffic.
  for (std::size_t p : group) stage(p, words, payload);
  Msg msg;
  for (std::size_t step = 1; step < g; step *= 2) {
    for (std::size_t i = 0; i + step < g; i += 2 * step) {
      const std::size_t src = group[i + step];
      deliver({src, group[i], words, arenas_[src].data()},
              /*combine=*/true, msg);
    }
  }
}

TransportStats ShmTransport::stats() const {
  const MutexLock lock(stats_mu_);
  return stats_;
}

}  // namespace wa::dist
