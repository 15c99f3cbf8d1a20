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
// There is no condition-variable wrapper: no code outside util/ waits on a
// lock. Compaction runs on its caller's thread (OnlineUpdater::compactNow()).
#pragma once

#include <mutex>
#include <shared_mutex>

#include "util/thread_annotations.h"

namespace fpsm {

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

}  // namespace fpsm
