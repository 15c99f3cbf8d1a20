#include "alloc_count.h"

#include <cstdlib>
#include <new>

namespace {
thread_local std::uint64_t tAllocations = 0;
}  // namespace

namespace fpsm::suite {

std::uint64_t threadAllocations() { return tAllocations; }

}  // namespace fpsm::suite

// The array, nothrow and sized forms of libstdc++ forward to these two, so
// every unaligned allocation is counted and freed by the matching pair.
void* operator new(std::size_t size) {
  ++tAllocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }
