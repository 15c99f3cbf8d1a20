// Span recording for the traced run.
//
// Every call the suite makes into a layer of the library can be wrapped in
// a Span. A span records its name, start, end, the span that was open
// around it on the same thread (its parent) and the id of the request it
// serves. Spans go to a ring buffer that each recording thread allocates
// once, at its first span, so recording allocates nothing after that; when
// a ring wraps, the oldest spans are overwritten and counted as dropped.
// The untraced run never enables the tracer, so its spans cost one relaxed
// load each.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "util/mutex.h"

namespace fpsm::suite {

class Tracer {
 public:
  struct Record {
    const char* name;
    std::uint64_t startNs;
    std::uint64_t endNs;
    std::uint64_t request;
    std::uint64_t id;      ///< (thread << 40) | per-thread sequence, from 1
    std::uint64_t parent;  ///< 0 = no enclosing span
  };

  static Tracer& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Spans started so far across all threads, and those overwritten since.
  /// Call only while no thread is recording.
  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  /// Writes every retained span as Chrome trace-event JSON ("ph": "X"),
  /// with id, parent and request in each event's args.
  void writeJson(const std::string& path) const;

  struct Ring;
  /// The calling thread's ring, allocated on first use.
  Ring& ring();

 private:
  static constexpr std::size_t kRingSpans = 8192;

  std::atomic<bool> enabled_{false};
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Ring>> rings_ FPSM_GUARDED_BY(mutex_);
};

/// One thread's spans. Only the owning thread writes it; the tracer reads
/// it after the recording threads have been joined.
struct Tracer::Ring {
  explicit Ring(std::uint64_t thread) : thread(thread), slots(kRingSpans) {}
  std::uint64_t thread;
  std::vector<Record> slots;
  std::uint64_t next = 0;    ///< spans started on this thread
  std::uint64_t openId = 0;  ///< innermost open span
};

/// RAII span around one call into a layer.
class Span {
 public:
  Span(const char* name, std::uint64_t request = 0) {
    Tracer& tracer = Tracer::instance();
    if (!tracer.enabled()) return;
    ring_ = &tracer.ring();
    const std::uint64_t seq = ++ring_->next;
    slot_ = &ring_->slots[(seq - 1) % ring_->slots.size()];
    id_ = (ring_->thread << 40) | seq;
    parent_ = ring_->openId;
    ring_->openId = id_;
    *slot_ = Tracer::Record{name, nowNs(), 0, request, id_, parent_};
  }
  ~Span() {
    if (ring_ == nullptr) return;
    // A span with more than a ring's worth of children has had its slot
    // overwritten; it is then simply lost (counted as dropped).
    if (slot_->id == id_) slot_->endNs = nowNs();
    ring_->openId = parent_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::Ring* ring_ = nullptr;
  Tracer::Record* slot_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

}  // namespace fpsm::suite
