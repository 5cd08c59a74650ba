#include "dist/backend.hpp"

#include <chrono>
#include <thread>
#include <utility>

namespace wa::dist {
namespace {

/// Set on every thread while it may run ranks of a job: pool workers
/// for their lifetime, the calling thread while it claims.  A nested
/// run() issued from inside a local phase must execute inline
/// (serially) instead of enqueueing on the pool it is already running
/// on, which would deadlock the check-in barrier.
thread_local bool t_in_pool_worker = false;

/// Calls @p ready until it holds or ThreadedBackend::kSpin has
/// passed, yielding between calls.  The scheduler may have queued the
/// very thread this one waits for on the same CPU (it places a woken
/// thread next to its waker); a poll that only paused would then hold
/// that thread off for the whole kSpin, on every job.
template <class Ready>
void poll(const Ready& ready) {
  const auto until =
      std::chrono::steady_clock::now() + ThreadedBackend::kSpin;
  while (!ready() && std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
  }
}

/// Marks the calling thread as a rank runner for one claim loop.
class ClaimScope {
 public:
  ClaimScope() { t_in_pool_worker = true; }
  ~ClaimScope() { t_in_pool_worker = false; }
  ClaimScope(const ClaimScope&) = delete;
  ClaimScope& operator=(const ClaimScope&) = delete;
};

}  // namespace

ThreadedBackend::~ThreadedBackend() {
  {
    const MutexLock lock(mu_);
    stop_ = true;
    // A new epoch also ends every worker's poll.
    epoch_mirror_.store(++epoch_);
  }
  work_cv_.notify_all();
  for (std::thread& th : pool_) th.join();
}

void ThreadedBackend::start_pool() {
  pool_.reserve(threads_);
  for (std::size_t t = 0; t < threads_; ++t) {
    pool_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadedBackend::claim(const Job& job) {
  // Each claimed rank runs alone on this thread against its own
  // hierarchy and slot; only the position counter is shared, so local
  // phases may freely run numerics on disjoint matrix blocks.
  const std::size_t n = job.ranks->size();
  for (std::size_t i = (*job.next)++; i < n; i = (*job.next)++) {
    Slot& slot = (*job.slots)[i];
    try {
      memsim::Hierarchy h(*job.capacities);
      (*job.fn)((*job.ranks)[i], h);
      slot.done.emplace(std::move(h));
    } catch (...) {
      slot.error = std::current_exception();
    }
  }
}

void ThreadedBackend::worker_loop() {
  t_in_pool_worker = true;
  std::uint64_t seen = 0;
  for (;;) {
    poll([this, &seen] { return epoch_mirror_.load() != seen; });
    Job job;
    {
      const MutexLock lock(mu_);
      work_cv_.wait(mu_, [this, &seen] {
        mu_.assert_held();
        return stop_ || epoch_ != seen;
      });
      if (stop_) return;
      seen = epoch_;
      job = job_;
    }

    claim(job);

    bool last = false;
    {
      const MutexLock lock(mu_);
      last = --unfinished_ == 0;
      unfinished_mirror_.store(unfinished_);
    }
    if (last) done_cv_.notify_one();
  }
}

void ThreadedBackend::run(const std::vector<std::size_t>& ranks,
                          const std::vector<std::size_t>& capacities,
                          const LocalFn& fn, const Sink& sink) {
  if (ranks.size() <= 1 || t_in_pool_worker) {
    run_serially(ranks, capacities, fn, sink);
    return;
  }

  std::vector<Slot> slots(ranks.size());
  std::atomic<std::size_t> next{0};
  const Job job{&ranks, &capacities, &fn, &slots, &next};
  {
    const MutexLock lock(mu_);
    if (pool_.empty()) start_pool();
    job_ = job;
    unfinished_ = pool_.size();
    unfinished_mirror_.store(unfinished_);
    epoch_mirror_.store(++epoch_);
  }
  work_cv_.notify_all();
  {
    const ClaimScope claiming;
    claim(job);
  }
  poll([this] { return unfinished_mirror_.load() == 0; });
  {
    const MutexLock lock(mu_);
    done_cv_.wait(mu_, [this] {
      mu_.assert_held();
      return unfinished_ == 0;
    });
  }

  // Sink in list order: every rank's hierarchy lands in its own
  // counter slot, so the result is byte-identical to a serial run
  // regardless of which thread ran which rank.  Sinking up to the
  // first failed position and rethrowing there charges exactly the
  // ranks a serial run would have charged before throwing; later
  // results are discarded, just as a serial run would never have
  // reached them.
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (slots[i].error) std::rethrow_exception(slots[i].error);
    sink(ranks[i], *slots[i].done);
  }
}

}  // namespace wa::dist
