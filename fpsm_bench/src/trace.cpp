#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace fpsm::suite {

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Ring& Tracer::ring() {
  thread_local Ring* mine = nullptr;
  if (mine == nullptr) {
    const MutexLock lock(mutex_);
    rings_.push_back(std::make_unique<Ring>(rings_.size() + 1));
    mine = rings_.back().get();
  }
  return *mine;
}

std::uint64_t Tracer::recorded() const {
  const MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& r : rings_) total += r->next;
  return total;
}

std::uint64_t Tracer::dropped() const {
  const MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& r : rings_) {
    if (r->next > r->slots.size()) total += r->next - r->slots.size();
  }
  return total;
}

void Tracer::writeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const MutexLock lock(mutex_);
  std::uint64_t origin = UINT64_MAX;
  for (const auto& r : rings_) {
    const std::uint64_t kept = std::min<std::uint64_t>(r->next, r->slots.size());
    for (std::uint64_t i = 0; i < kept; ++i) {
      origin = std::min(origin, r->slots[i].startNs);
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  for (const auto& r : rings_) {
    const std::uint64_t kept = std::min<std::uint64_t>(r->next, r->slots.size());
    for (std::uint64_t i = 0; i < kept; ++i) {
      const Record& s = r->slots[i];
      if (s.endNs < s.startNs) continue;  // still open when the run ended
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %llu, \"parent\": %llu, \"request\": %llu}}",
                   first ? "" : ",\n", s.name,
                   static_cast<unsigned long long>(r->thread),
                   static_cast<double>(s.startNs - origin) / 1000.0,
                   static_cast<double>(s.endNs - s.startNs) / 1000.0,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace fpsm::suite
