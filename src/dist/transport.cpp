#include "dist/transport.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <initializer_list>
#include <thread>
#include <utility>

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
  boxes_.clear();
  boxes_.reserve(P);
  for (std::size_t p = 0; p < P; ++p) {
    boxes_.push_back(std::make_unique<Mailbox>());
  }
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

const double* ShmTransport::stage(std::size_t src, std::size_t words,
                                  const double* payload) {
  std::vector<double>& a = arenas_[src];
  if (a.size() < words) a.resize(words);
  if (payload != nullptr) {
    std::memcpy(a.data(), payload, words * sizeof(double));
  } else {
    // The true bytes are staged later by the algorithm; move a
    // deterministic pattern of the same size so the copy cost -- and
    // the integrity check -- are still real.
    for (std::size_t i = 0; i < words; ++i) {
      a[i] = double((src * 2654435761ull + i * 40503ull) & 0xFFFFull) * 1e-3;
    }
  }
  return a.data();
}

void ShmTransport::push(std::size_t dst, Msg msg) {
  Mailbox& box = *boxes_[dst];
  {
    const MutexLock lock(box.mu);
    box.q.push_back(std::move(msg));
  }
  box.cv.notify_one();
}

ShmTransport::Msg ShmTransport::pop(std::size_t dst) {
  Mailbox& box = *boxes_[dst];
  const MutexLock lock(box.mu);
  // condition_variable_any waits on the annotated Mutex itself; the
  // predicate always runs with the lock re-acquired (assert_held tells
  // the static analysis so).
  if (!box.cv.wait_for(box.mu, std::chrono::seconds(30), [&box] {
        box.mu.assert_held();
        return !box.q.empty();
      })) {
    throw std::runtime_error(
        "ShmTransport: mailbox wait timed out (a charged transfer was "
        "never delivered)");
  }
  Msg msg = std::move(box.q.front());
  box.q.pop_front();
  return msg;
}

namespace {

[[noreturn]] void throw_corrupted() {
  throw std::runtime_error(
      "ShmTransport: delivery checksum mismatch (transport corrupted "
      "a transfer the model charged)");
}

}  // namespace

ShmTransport::Msg ShmTransport::package(std::size_t src,
                                        std::size_t words) const {
  Msg msg;
  msg.data.assign(arenas_[src].data(), arenas_[src].data() + words);
  msg.digest = detail::payload_digest(msg.data.data(), words);
  return msg;
}

bool ShmTransport::land(std::size_t dst, const Msg& got, std::size_t words,
                        bool combine) {
  // Verify first: a corrupted delivery must leave the arena untouched.
  if (detail::payload_digest(got.data.data(), words) != got.digest) {
    return false;
  }
  std::vector<double>& a = arenas_[dst];
  if (a.size() < words) a.resize(words);
  if (combine) {
    for (std::size_t i = 0; i < words; ++i) a[i] += got.data[i];
  } else {
    std::memcpy(a.data(), got.data.data(), words * sizeof(double));
  }
  const MutexLock lock(stats_mu_);
  stats_.messages += 1;
  stats_.words += words;
  stats_.verified += words;
  return true;
}

void ShmTransport::hop(std::size_t src, std::size_t dst, std::size_t words,
                       bool combine) {
  // Sender side: the rank-private source bytes leave src's arena
  // through a heap message (one real copy); receiver side: dequeue,
  // verify, and land them in dst's arena (a second real copy).
  push(dst, package(src, words));
  if (!land(dst, pop(dst), words, combine)) throw_corrupted();
}

void ShmTransport::run_round(
    const std::vector<std::pair<std::size_t, std::size_t>>& hops,
    std::size_t words, bool combine) {
  if (hops.size() > 1 && words >= parallel_words_) {
    // Real concurrency for the big rounds: every hop gets a blocking
    // receiver thread (parked on the mailbox condvar) and a sender
    // thread that wakes it.  Sources and destinations within one
    // binomial round are disjoint, so the arena writes cannot race.
    std::vector<std::thread> workers;
    workers.reserve(2 * hops.size());
    std::atomic<bool> corrupted{false};
    for (const auto& [src, dst] : hops) {
      const std::size_t s = src, d = dst;
      workers.emplace_back([this, d, words, combine, &corrupted] {
        // Throwing on a worker would terminate; flag a corrupted
        // delivery and let the joining thread raise the error.
        if (!land(d, pop(d), words, combine)) corrupted.store(true);
      });
      workers.emplace_back(
          [this, s, d, words] { push(d, package(s, words)); });
    }
    for (auto& w : workers) w.join();
    if (corrupted.load()) throw_corrupted();
    return;
  }
  for (const auto& [src, dst] : hops) hop(src, dst, words, combine);
}

void ShmTransport::send(std::size_t src, std::size_t dst, std::size_t words,
                        const double* payload) {
  if (words == 0 || src == dst) return;
  check_rank(src);
  check_rank(dst);
  const OpTimer t(*this);
  stage(src, words, payload);
  hop(src, dst, words, /*combine=*/false);
}

void ShmTransport::bcast(const std::vector<std::size_t>& group,
                         std::size_t words, const double* payload) {
  const std::size_t g = group.size();
  if (g < 2 || words == 0) return;
  for (std::size_t p : group) check_rank(p);
  const OpTimer t(*this);
  stage(group.front(), words, payload);
  // Grow destination arenas before any round runs concurrently.
  for (std::size_t p : group) {
    if (arenas_[p].size() < words) arenas_[p].resize(words);
  }
  // The binomial tree the Machine charges: in round r every rank with
  // group index < 2^r that has the data forwards it to index + 2^r.
  for (std::size_t step = 1; step < g; step *= 2) {
    std::vector<std::pair<std::size_t, std::size_t>> hops;
    for (std::size_t i = 0; i < step && i + step < g; ++i) {
      hops.emplace_back(group[i], group[i + step]);
    }
    run_round(hops, words, /*combine=*/false);
  }
}

void ShmTransport::reduce(const std::vector<std::size_t>& group,
                          std::size_t words, const double* payload) {
  const std::size_t g = group.size();
  if (g < 2 || words == 0) return;
  for (std::size_t p : group) check_rank(p);
  const OpTimer t(*this);
  // Every participant contributes a partial; the representative
  // payload (or the synthetic pattern) seeds each arena, and every
  // hop performs the real elementwise combine the Machine charges as
  // L1 -> L2 merge traffic.
  for (std::size_t p : group) stage(p, words, payload);
  for (std::size_t step = 1; step < g; step *= 2) {
    std::vector<std::pair<std::size_t, std::size_t>> hops;
    for (std::size_t i = 0; i + step < g; i += 2 * step) {
      hops.emplace_back(group[i + step], group[i]);
    }
    run_round(hops, words, /*combine=*/true);
  }
}

TransportStats ShmTransport::stats() const {
  const MutexLock lock(stats_mu_);
  return stats_;
}

}  // namespace wa::dist
