// Heap allocations made on the calling thread, counted by replacing the
// global operator new of every test binary that links alloc_counter.cpp
// (the technique of the bench suite's alloc_count.cpp). Allocation counts
// are exact on any machine, so a test can gate the work a call does
// where a timing could not.
#pragma once

#include <cstdint>

namespace fpsm::test_alloc {

/// Allocations made on this thread so far; take the difference around a
/// call to count the call's allocations.
std::uint64_t allocations();

}  // namespace fpsm::test_alloc
