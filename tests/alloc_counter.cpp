#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {
thread_local std::uint64_t tAllocations = 0;
}  // namespace

namespace fpsm::test_alloc {

std::uint64_t allocations() { return tAllocations; }

}  // namespace fpsm::test_alloc

// The array, nothrow and sized forms of libstdc++ forward to these, so
// every unaligned allocation is counted and freed by the matching pair.
// GCC can inline these into callers and then read malloc/free under
// operator new/delete as a mismatch; the pair is consistent, so that
// warning is silenced for these lines only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++tAllocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
