// Annotated synchronization primitives (DESIGN.md §13).
//
// Thin, zero-overhead wrappers over the std primitives that carry Clang
// Thread Safety Analysis capabilities (util/thread_annotations.h). The
// project invariant — enforced by tools/fpsm_lint — is that ALL locking
// outside util/ goes through these types: a raw std::mutex is invisible to
// the analysis, so one unannotated lock re-opens the class of bugs the
// `tsa` build exists to make unrepresentable.
//
//   Mutex mu;
//   int counter FPSM_GUARDED_BY(mu);
//
//   void bump() FPSM_EXCLUDES(mu) {
//     MutexLock lock(mu);   // RAII; analysis tracks the scope
//     ++counter;            // OK: mu held
//   }
//
// CondVar deliberately has no predicate-lambda wait: Clang's analysis is
// intraprocedural, so a predicate closure would read guarded fields in a
// context the analysis cannot see the lock in. Callers write the standard
// while-loop instead, which keeps every guarded read inside the annotated
// critical section (see OnlineUpdater::compactorLoop for the canonical
// shape).
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "util/thread_annotations.h"

namespace fpsm {

class CondVar;

/// Exclusive mutex carrying the "mutex" capability. Same cost and semantics
/// as the std::mutex it wraps.
class FPSM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FPSM_ACQUIRE() { m_.lock(); }
  void unlock() FPSM_RELEASE() { m_.unlock(); }
  bool tryLock() FPSM_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;  // wait() needs the native handle to sleep on
  std::mutex m_;
};

/// Reader/writer mutex carrying the "shared_mutex" capability.
class FPSM_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() FPSM_ACQUIRE() { m_.lock(); }
  void unlock() FPSM_RELEASE() { m_.unlock(); }
  bool tryLock() FPSM_TRY_ACQUIRE(true) { return m_.try_lock(); }

  void lockShared() FPSM_ACQUIRE_SHARED() { m_.lock_shared(); }
  void unlockShared() FPSM_RELEASE_SHARED() { m_.unlock_shared(); }
  bool tryLockShared() FPSM_TRY_ACQUIRE_SHARED(true) {
    return m_.try_lock_shared();
  }

 private:
  std::shared_mutex m_;
};

/// RAII exclusive lock over Mutex — the annotated std::lock_guard.
class FPSM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) FPSM_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() FPSM_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive lock over SharedMutex (writer side).
class FPSM_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) FPSM_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterLock() FPSM_RELEASE() { mu_.unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared lock over SharedMutex (reader side).
class FPSM_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) FPSM_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lockShared();
  }
  ~ReaderLock() FPSM_RELEASE_GENERIC() { mu_.unlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to Mutex. Every wait entry point REQUIRES the
/// mutex, so the analysis proves the wait happens inside the critical
/// section that guards the predicate state. The mutex is re-held on return
/// (standard condvar contract), which the analysis models as "capability
/// unchanged across the call".
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, sleeps, and re-acquires `mu` before return.
  void wait(Mutex& mu) FPSM_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with the caller's MutexLock
  }

  /// wait() with a timeout duration. Returns std::cv_status::timeout when
  /// the duration elapsed without a notification.
  template <typename Rep, typename Period>
  std::cv_status waitFor(Mutex& mu,
                         std::chrono::duration<Rep, Period> timeout)
      FPSM_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(native, timeout);
    native.release();
    return status;
  }

  /// wait() with an absolute deadline — the building block for
  /// predicate-loop waits that must not extend their overall timeout when
  /// woken spuriously.
  template <typename Clock, typename Duration>
  std::cv_status waitUntil(Mutex& mu,
                           std::chrono::time_point<Clock, Duration> deadline)
      FPSM_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status;
  }

  void notifyOne() { cv_.notify_one(); }
  void notifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace fpsm
