// RCU-style published pointer: writers build a fresh immutable object off
// to the side and publish it with a single pointer swap; readers take a
// reference-counted snapshot and keep using it for as long as they like.
// Retired versions are reclaimed by the last reader's shared_ptr release —
// the classic read-copy-update lifetime rule without explicit grace
// periods.
//
// The shared_ptr is guarded by a mutex whose critical section is only the
// pointer copy / swap (the control-block refcount bump is the expensive
// part either way). libstdc++'s std::atomic<std::shared_ptr> is the same
// locked-pointer scheme internally, but its reader unlock is a relaxed RMW
// (GCC 12 _Sp_atomic::load), which is a data race on _M_ptr under the C++
// memory model and is flagged by ThreadSanitizer; a real mutex makes the
// protocol provably data-race-free. Retired versions are destroyed outside
// the critical section so grammar teardown never stalls readers.
//
// The publish/pin protocol under thread-safety analysis (DESIGN.md §13):
// the pointer slot ptr_ is FPSM_GUARDED_BY(mutex_) — every load, store,
// and swap of the *slot* is proven to happen under the lock. The slot is
// deliberately NOT FPSM_PT_GUARDED_BY(mutex_): the whole point of RCU is
// that a pinned snapshot is dereferenced lock-free after load() returns,
// which is sound because T is const (immutable once published) and the
// returned shared_ptr keeps the version alive. Pinning copies the pointer
// under the lock; dereferencing the pin needs no capability at all.
//
// This is the serving layer's only synchronization primitive between the
// score path and the publish path (see src/serve/tenant_meter.h).
#pragma once

#include <memory>
#include <utility>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fpsm {

template <typename T>
class RcuPtr {
 public:
  RcuPtr() = default;
  explicit RcuPtr(std::shared_ptr<const T> initial)
      : ptr_(std::move(initial)) {}

  RcuPtr(const RcuPtr&) = delete;
  RcuPtr& operator=(const RcuPtr&) = delete;

  /// Reader side: acquire a snapshot. The returned shared_ptr pins the
  /// version alive for the caller's lifetime of use; dereferencing the pin
  /// is lock-free (see header comment).
  std::shared_ptr<const T> load() const FPSM_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    return ptr_;
  }

  /// Writer side: publish a new version. Readers that loaded before the
  /// store keep the old version; readers that load after see the new one.
  void store(std::shared_ptr<const T> next) FPSM_EXCLUDES(mutex_) {
    exchange(std::move(next));  // displaced version destroyed here, unlocked
  }

  /// Publish and return the displaced version (for writer-side bookkeeping).
  std::shared_ptr<const T> exchange(std::shared_ptr<const T> next)
      FPSM_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    std::swap(ptr_, next);
    return next;
  }

 private:
  mutable Mutex mutex_;
  std::shared_ptr<const T> ptr_ FPSM_GUARDED_BY(mutex_);
};

}  // namespace fpsm
