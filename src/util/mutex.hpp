#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "util/thread_safety.hpp"

/// Annotated locking primitives, the repo-wide replacements for bare
/// std::mutex / std::condition_variable in lock-protected structures.
///
/// libstdc++'s std::mutex carries no capability attributes, so clang's
/// -Wthread-safety analysis cannot prove anything about code that locks
/// it. These thin wrappers add the attributes (zero overhead for Mutex —
/// it is exactly a std::mutex) and establish the one locking idiom the
/// analysis can follow end-to-end:
///
///   class Account {
///     util::Mutex mu_;
///     long balance_ OPM_GUARDED_BY(mu_) = 0;
///    public:
///     void deposit(long v) {
///       util::MutexLock lock(mu_);
///       balance_ += v;                    // proven: mu_ is held
///     }
///   };
///
/// Condition waits spell the predicate loop out (the analysis cannot see
/// inside a predicate lambda):
///
///   util::MutexLock lock(mu_);
///   while (!ready_) cv_.wait(mu_);
///
/// CondVar wraps std::condition_variable_any because the std::unique_lock
/// required by plain std::condition_variable is itself unannotated.
namespace opm::util {

/// An annotated std::mutex. Same size, same cost; lock()/unlock() carry
/// the acquire/release capability attributes the analysis needs.
class OPM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() OPM_ACQUIRE() { m_.lock(); }
  void unlock() OPM_RELEASE() { m_.unlock(); }
  bool try_lock() OPM_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex m_;
};

/// RAII lock for Mutex; the scoped-capability guard the analysis tracks.
/// (std::lock_guard would compile but is invisible to the analysis.)
class OPM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) OPM_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() OPM_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable for Mutex. wait()/wait_for() require the mutex held
/// (annotated), atomically release it while blocked, and reacquire before
/// returning — callers re-check their predicate in an explicit loop.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) OPM_REQUIRES(mu) { cv_.wait(mu); }

  template <typename Rep, typename Period>
  void wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& d)
      OPM_REQUIRES(mu) {
    cv_.wait_for(mu, d);
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace opm::util
