// Buffer between the accept path and compaction.
//
// The paper's update phase folds every accepted password into the grammar
// immediately; under concurrent traffic that would serialize scorers
// behind a writer lock. UpdateQueue instead makes accepting a cheap
// append: occurrences are coalesced per password under a single mutex and
// drained in batches by OnlineUpdater's compaction, which folds them into
// a new grammar generation. The trade-off (scores lag accepted passwords
// by at most one compaction) is documented in DESIGN.md §7.
//
// Locking discipline (proven by the `tsa` build, DESIGN.md §13): every
// field is FPSM_GUARDED_BY(mutex_); the public surface FPSM_EXCLUDES it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fpsm {

class UpdateQueue {
 public:
  /// One drained batch: distinct passwords with coalesced counts, in
  /// unspecified order.
  using Batch = std::vector<std::pair<std::string, std::uint64_t>>;

  /// Records n more occurrences of pw. Thread-safe; never blocks on
  /// compaction beyond the queue mutex. Throws InvalidArgument, leaving the
  /// queue unchanged, when the pending total would overflow 64 bits.
  void push(std::string_view pw, std::uint64_t n = 1) FPSM_EXCLUDES(mutex_);

  /// Atomically takes the entire pending batch (empty if nothing pending).
  Batch drain() FPSM_EXCLUDES(mutex_);

  /// Distinct pending passwords.
  std::size_t pendingDistinct() const FPSM_EXCLUDES(mutex_);

  /// Total pending occurrences (sum of counts).
  std::uint64_t pendingTotal() const FPSM_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  StringMap<std::uint64_t> pending_ FPSM_GUARDED_BY(mutex_);
  std::uint64_t total_ FPSM_GUARDED_BY(mutex_) = 0;
};

}  // namespace fpsm
