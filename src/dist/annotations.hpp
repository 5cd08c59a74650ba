#pragma once
// wa::dist -- compile-time lock-discipline annotations.
//
// Clang's -Wthread-safety analysis proves, at compile time, that every
// access to a guarded member happens with the right mutex held -- the
// static complement of the TSan leg (WA_SANITIZE=thread), which checks
// the same discipline dynamically.  The macros below expand to the
// official thread-safety attributes under Clang and to nothing under
// GCC/MSVC, so annotated code builds everywhere and the Clang CI legs
// (built with -Wthread-safety -Werror=thread-safety) are the gate.
//
// libstdc++'s std::mutex / std::lock_guard carry no capability
// attributes, so the analysis cannot follow them; Mutex and MutexLock
// below are thin annotated wrappers (the pattern from the Clang
// thread-safety docs and Abseil).  Annotated state in this repo:
// ShmTransport's movement stats (dist/transport.hpp) and
// ThreadedBackend's persistent-pool job state (dist/backend.hpp).

#include <mutex>

#if defined(__clang__)
#define WA_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define WA_THREAD_ANNOTATION_(x)
#endif

#define WA_CAPABILITY(x) WA_THREAD_ANNOTATION_(capability(x))
#define WA_SCOPED_CAPABILITY WA_THREAD_ANNOTATION_(scoped_lockable)
#define WA_GUARDED_BY(x) WA_THREAD_ANNOTATION_(guarded_by(x))
#define WA_PT_GUARDED_BY(x) WA_THREAD_ANNOTATION_(pt_guarded_by(x))
#define WA_REQUIRES(...) \
  WA_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define WA_ACQUIRE(...) \
  WA_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define WA_RELEASE(...) \
  WA_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define WA_TRY_ACQUIRE(...) \
  WA_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define WA_EXCLUDES(...) WA_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define WA_ASSERT_CAPABILITY(x) WA_THREAD_ANNOTATION_(assert_capability(x))
#define WA_NO_THREAD_SAFETY_ANALYSIS \
  WA_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace wa::dist {

/// std::mutex wrapped as an annotated capability.  BasicLockable, so
/// it also serves as the lock object of a
/// std::condition_variable_any wait.
class WA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() WA_ACQUIRE() { mu_.lock(); }
  void unlock() WA_RELEASE() { mu_.unlock(); }
  bool try_lock() WA_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Tells the analysis this mutex is held in a context it cannot see
  /// through -- a condition-variable wait predicate, which the condvar
  /// always evaluates with the lock re-acquired.  No runtime effect.
  void assert_held() WA_ASSERT_CAPABILITY(this) {}

 private:
  std::mutex mu_;
};

/// RAII lock over Mutex, visible to the analysis as a scoped
/// capability (std::lock_guard carries no annotations).
class WA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) WA_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() WA_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace wa::dist
