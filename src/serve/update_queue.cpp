#include "serve/update_queue.h"

#include "util/error.h"

namespace fpsm {

void UpdateQueue::push(std::string_view pw, std::uint64_t n) {
  if (n == 0) return;
  const MutexLock lock(mutex_);
  // Every pending count is at most total_, so a total that fits means the
  // coalesced count fits too; checking first leaves the queue untouched.
  const std::uint64_t total = checkedCountAdd(total_, n, "UpdateQueue::push");
  const auto it = pending_.find(pw);
  if (it == pending_.end()) {
    pending_.emplace(std::string(pw), n);
  } else {
    it->second += n;
  }
  total_ = total;
}

UpdateQueue::Batch UpdateQueue::drain() {
  StringMap<std::uint64_t> taken;
  {
    const MutexLock lock(mutex_);
    taken.swap(pending_);
    total_ = 0;
  }
  Batch batch;
  batch.reserve(taken.size());
  for (auto& [pw, n] : taken) {
    batch.emplace_back(pw, n);
  }
  return batch;
}

std::size_t UpdateQueue::pendingDistinct() const {
  const MutexLock lock(mutex_);
  return pending_.size();
}

std::uint64_t UpdateQueue::pendingTotal() const {
  const MutexLock lock(mutex_);
  return total_;
}

}  // namespace fpsm
