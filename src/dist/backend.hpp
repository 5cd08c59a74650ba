#pragma once
// wa::dist -- the execution layer of the distributed machine model.
//
// A Backend decides *how* the per-processor local phases of a
// distributed algorithm are executed; the Machine only owns the
// counters they charge.  Two implementations:
//
//   SerialSimBackend  the original counter simulator: local phases
//                     run one after another on the calling thread
//                     (replicated symmetric phases are simulated once
//                     and their counters copied).
//   ThreadedBackend   runs the per-rank local phases -- numerics and
//                     charging -- on a persistent std::thread pool
//                     (workers park on a condvar between jobs) plus
//                     the calling thread.  Every thread claims the
//                     next position of the job's rank list from one
//                     shared counter until the list runs out, so a
//                     slow rank never holds up the ranks behind it.
//                     Each finished hierarchy lands in the slot of its
//                     list position and the caller sinks the slots in
//                     list order after the job's check-in barrier, so
//                     channel counters are byte-identical to the
//                     serial backend while the numerics get real
//                     wall-clock parallelism.
//
// A local phase receives (rank, Hierarchy&): the hierarchy enforces
// L1/L2 capacities exactly as before; the finished hierarchy is
// delivered to a sink that absorbs it into the rank's counters.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/annotations.hpp"
#include "memsim/hierarchy.hpp"

namespace wa::dist {

class Backend {
 public:
  /// One rank's local phase: numerics plus charging against a fresh
  /// capacity-enforcing hierarchy.
  using LocalFn = std::function<void(std::size_t, memsim::Hierarchy&)>;
  /// A rank-agnostic (symmetric) charging phase.
  using PhaseFn = std::function<void(memsim::Hierarchy&)>;
  /// Receives each finished hierarchy for counter absorption.
  using Sink = std::function<void(std::size_t, const memsim::Hierarchy&)>;

  virtual ~Backend() = default;
  virtual const char* name() const = 0;

  /// Execute @p fn once per rank in @p ranks, each against a fresh
  /// Hierarchy with @p capacities, delivering every finished
  /// hierarchy to @p sink.
  virtual void run(const std::vector<std::size_t>& ranks,
                   const std::vector<std::size_t>& capacities,
                   const LocalFn& fn, const Sink& sink) = 0;

  /// Identical charging-only phase on every rank: any backend yields
  /// the same counters, so the shared implementation simulates once
  /// and replicates (O(1) simulations for a P-way symmetric phase).
  virtual void run_replicated(const std::vector<std::size_t>& ranks,
                              const std::vector<std::size_t>& capacities,
                              const PhaseFn& fn, const Sink& sink) {
    if (ranks.empty()) return;
    memsim::Hierarchy h(capacities);
    fn(h);
    for (std::size_t p : ranks) sink(p, h);
  }

 protected:
  /// The one serial execution loop, shared by SerialSimBackend and
  /// ThreadedBackend's single-rank and nested-run fallback so they
  /// cannot diverge.
  static void run_serially(const std::vector<std::size_t>& ranks,
                           const std::vector<std::size_t>& capacities,
                           const LocalFn& fn, const Sink& sink) {
    for (std::size_t p : ranks) {
      memsim::Hierarchy h(capacities);
      fn(p, h);
      sink(p, h);
    }
  }
};

/// The original serial counter simulator (see file comment).
class SerialSimBackend final : public Backend {
 public:
  const char* name() const override { return "serial"; }

  void run(const std::vector<std::size_t>& ranks,
           const std::vector<std::size_t>& capacities, const LocalFn& fn,
           const Sink& sink) override {
    run_serially(ranks, capacities, fn, sink);
  }
};

/// Persistent-pool threaded backend (see file comment).  Worker
/// threads are spawned once, on the first parallel run -- LU's many
/// small per-step phases do not pay a thread spawn+join per phase.
/// Between jobs a worker polls for the next one for kSpin, then parks
/// on a condition variable; the caller likewise polls for the
/// workers' check-ins for kSpin before it parks, so back-to-back
/// short jobs skip a parked thread's wake-up.  A job runs on up to
/// threads() + 1 threads: the pool workers and the calling thread
/// claim list positions dynamically, one rank at a time, so each rank
/// still runs alone on one thread in a fresh hierarchy.  The caller
/// sinks the finished hierarchies in list order and stops at the first
/// failed position, rethrowing its error, so counters and error
/// semantics are exactly SerialSimBackend's regardless of scheduling.
/// The pool's job state is mutex-guarded with compile-time-checked
/// lock discipline (dist/annotations.hpp); a run() issued from inside
/// a rank's local phase (a nested phase), on a worker or on the
/// claiming caller, executes serially inline instead of deadlocking
/// the pool.
class ThreadedBackend final : public Backend {
 public:
  /// @param threads  pool size (the caller also runs ranks); 0 means
  ///                 default_threads().
  explicit ThreadedBackend(std::size_t threads = 0)
      : threads_(threads != 0 ? threads : default_threads()) {}
  ~ThreadedBackend() override;

  ThreadedBackend(const ThreadedBackend&) = delete;
  ThreadedBackend& operator=(const ThreadedBackend&) = delete;

  const char* name() const override { return "threaded"; }
  std::size_t threads() const { return threads_; }

  /// How long an idle worker polls for the next job, and the caller
  /// for the workers' check-ins, before parking.
  static constexpr std::chrono::microseconds kSpin{20};

  void run(const std::vector<std::size_t>& ranks,
           const std::vector<std::size_t>& capacities, const LocalFn& fn,
           const Sink& sink) override;

  /// One worker per core but the caller's: a job then keeps every
  /// core busy with one thread.
  static std::size_t default_threads() {
    const unsigned hc = std::thread::hardware_concurrency();
    return std::max<std::size_t>(1, (hc != 0 ? hc : 4) - 1);
  }

 private:
  /// One list position's outcome: its finished hierarchy, or the
  /// error its local phase threw.  Written by the one thread that
  /// claimed the position, read by the caller after the job's
  /// check-in barrier.
  struct Slot {
    std::optional<memsim::Hierarchy> done;
    std::exception_ptr error;
  };

  /// The job the pool is currently executing.  Pointees live on the
  /// caller's stack; run() does not return until every worker has
  /// checked in, so they outlive all worker access.
  struct Job {
    const std::vector<std::size_t>* ranks = nullptr;
    const std::vector<std::size_t>* capacities = nullptr;
    const LocalFn* fn = nullptr;
    std::vector<Slot>* slots = nullptr;
    std::atomic<std::size_t>* next = nullptr;  ///< next unclaimed position
  };

  static void claim(const Job& job);
  void worker_loop();
  void start_pool() WA_REQUIRES(mu_);

  Mutex mu_;
  std::condition_variable_any work_cv_;  ///< caller -> workers: new job
  std::condition_variable_any done_cv_;  ///< workers -> caller: all done
  Job job_ WA_GUARDED_BY(mu_);
  std::uint64_t epoch_ WA_GUARDED_BY(mu_) = 0;
  std::size_t unfinished_ WA_GUARDED_BY(mu_) = 0;
  bool stop_ WA_GUARDED_BY(mu_) = false;
  // Mirrors of epoch_ and unfinished_ for the polls, stored under mu_
  // next to the field they mirror.  A poll only decides when to take
  // mu_: everything it waits for is then read under mu_ as before.
  std::atomic<std::uint64_t> epoch_mirror_{0};
  std::atomic<std::size_t> unfinished_mirror_{0};
  // Only the owning thread mutates pool_ (lazy start, destructor
  // join); workers never touch it.
  std::vector<std::thread> pool_;
  std::size_t threads_;
};

/// Backend by name, for tools and benches: "serial" or "threaded"
/// (with an optional pool size, 0 = ThreadedBackend::default_threads()).
inline std::unique_ptr<Backend> make_backend(const std::string& name,
                                             std::size_t threads = 0) {
  if (name.empty() || name == "serial") {
    return std::make_unique<SerialSimBackend>();
  }
  if (name == "threaded") return std::make_unique<ThreadedBackend>(threads);
  throw std::invalid_argument("make_backend: unknown backend '" + name +
                              "' (expected serial|threaded)");
}

/// Thread count requested via WA_THREADS: 0 when unset, empty, or 0
/// (all meaning "pick a default").  Negative or non-numeric values
/// are rejected rather than wrapped or silently defaulted.
inline std::size_t threads_from_env() {
  const char* threads = std::getenv("WA_THREADS");
  if (threads == nullptr || *threads == '\0') return 0;
  char* end = nullptr;
  const long count = std::strtol(threads, &end, 10);
  if (*end != '\0' || count < 0) {
    throw std::invalid_argument(
        "threads_from_env: WA_THREADS must be a non-negative integer, got '" +
        std::string(threads) + "'");
  }
  return std::size_t(count);
}

/// Backend selected by the WA_BACKEND (serial|threaded) and
/// WA_THREADS environment variables; serial when unset.
inline std::unique_ptr<Backend> backend_from_env() {
  const char* name = std::getenv("WA_BACKEND");
  return make_backend(name != nullptr ? name : "serial", threads_from_env());
}

}  // namespace wa::dist
