// Heap-allocation counting for the per-layer work counts.
//
// alloc_count.cpp replaces the global operator new of the suite binary
// (never the library's own tests or tools) with one that bumps a
// thread-local counter before calling malloc. Thread-local, so counting
// adds no shared cache line to the measured phases and a count taken
// around a single-threaded loop sees only that loop's allocations.
#pragma once

#include <cstdint>

namespace fpsm::suite {

/// Allocations made by operator new on the calling thread so far.
std::uint64_t threadAllocations();

}  // namespace fpsm::suite
