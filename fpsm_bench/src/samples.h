// Windowed samples: how every measured phase of the suite records timings.
//
// A phase is cut into equal time windows. Each event is counted in the
// window it falls in, and its value (a latency, usually) is kept in that
// window's reservoir: every value while the window has seen fewer than
// `keep`, a uniform random sample of them after that. Memory is fixed by
// the window count and `keep`, never by how fast the program runs.
//
// End-to-end metrics take the median over windows of a per-window value
// (its event rate, or its median), so interference from outside the
// process that slows a few windows moves those windows, not the result.
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "util/rng.h"

namespace fpsm::suite {

/// Values kept per window: enough for a p99 with ten samples beyond it.
inline constexpr std::size_t kKeepPerWindow = 2048;

class WindowedSamples {
 public:
  /// Windows of equal length covering [startNs, endNs); events before or
  /// after fall in the first or last window. `keep` = 0 only counts.
  WindowedSamples(std::uint64_t startNs, std::uint64_t endNs,
                  std::size_t windows, std::size_t keep, std::uint64_t seed);

  void add(std::uint64_t atNs, double value);

  std::size_t windows() const { return counts_.size(); }
  std::uint64_t count(std::size_t w) const { return counts_[w]; }
  /// Times of the first and last event in window w (0 when it has none).
  std::uint64_t firstNs(std::size_t w) const { return first_[w]; }
  std::uint64_t lastNs(std::size_t w) const { return last_[w]; }
  std::uint64_t total() const;
  const std::vector<double>& kept(std::size_t w) const { return kept_[w]; }

 private:
  std::uint64_t startNs_;
  std::uint64_t windowNs_;
  std::size_t keep_;
  Rng rng_;
  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> first_;
  std::vector<std::uint64_t> last_;
  std::vector<std::vector<double>> kept_;
};

/// Window count for a phase: one per half second, at least one.
std::size_t windowsFor(double seconds);

/// Median over windows of the event rate of `parts`, which must share one
/// window layout. A window's rate is its events after the first over the
/// time from its first event to its last, which does not round to whole
/// events however few a window holds; windows with fewer than two events
/// are skipped.
double medianWindowRate(const std::vector<const WindowedSamples*>& parts);

/// Median over windows of the median of the values `parts` kept in that
/// window. Windows with no values are skipped.
double medianWindowMedian(const std::vector<const WindowedSamples*>& parts);

/// Every value `parts` kept, summarised with the tail at `tailPpm`.
Summary summarizeAll(const std::vector<const WindowedSamples*>& parts,
                     std::uint32_t tailPpm);

}  // namespace fpsm::suite
