#include "samples.h"

#include <algorithm>
#include <cmath>

namespace fpsm::suite {

WindowedSamples::WindowedSamples(std::uint64_t startNs, std::uint64_t endNs,
                                 std::size_t windows, std::size_t keep,
                                 std::uint64_t seed)
    : startNs_(startNs),
      windowNs_(std::max<std::uint64_t>(1, (endNs - startNs) /
                                               std::max<std::size_t>(1, windows))),
      keep_(keep),
      rng_(seed),
      counts_(std::max<std::size_t>(1, windows), 0),
      first_(counts_.size(), 0),
      last_(counts_.size(), 0),
      kept_(counts_.size()) {}

void WindowedSamples::add(std::uint64_t atNs, double value) {
  const std::size_t w = std::min<std::uint64_t>(
      atNs > startNs_ ? (atNs - startNs_) / windowNs_ : 0, counts_.size() - 1);
  const std::uint64_t seen = ++counts_[w];
  if (seen == 1) first_[w] = atNs;
  last_[w] = atNs;
  std::vector<double>& kept = kept_[w];
  if (kept.size() < keep_) {
    kept.push_back(value);
  } else if (keep_ > 0) {
    const std::uint64_t slot = rng_.below(seen);
    if (slot < keep_) kept[slot] = value;
  }
}

std::uint64_t WindowedSamples::total() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts_) n += c;
  return n;
}

std::size_t windowsFor(double seconds) {
  return static_cast<std::size_t>(std::max(1.0, std::round(seconds / 0.5)));
}

double medianWindowRate(const std::vector<const WindowedSamples*>& parts) {
  std::vector<double> rates;
  for (std::size_t w = 0; w < parts.front()->windows(); ++w) {
    std::uint64_t events = 0;
    std::uint64_t first = UINT64_MAX;
    std::uint64_t last = 0;
    for (const WindowedSamples* p : parts) {
      if (p->count(w) == 0) continue;
      events += p->count(w);
      first = std::min(first, p->firstNs(w));
      last = std::max(last, p->lastNs(w));
    }
    if (events >= 2 && last > first) {
      rates.push_back(static_cast<double>(events - 1) * 1e9 /
                      static_cast<double>(last - first));
    }
  }
  return median(rates);
}

double medianWindowMedian(const std::vector<const WindowedSamples*>& parts) {
  std::vector<double> medians;
  for (std::size_t w = 0; w < parts.front()->windows(); ++w) {
    std::vector<double> values;
    for (const WindowedSamples* p : parts) {
      values.insert(values.end(), p->kept(w).begin(), p->kept(w).end());
    }
    if (!values.empty()) medians.push_back(median(std::move(values)));
  }
  return median(medians);
}

Summary summarizeAll(const std::vector<const WindowedSamples*>& parts,
                     std::uint32_t tailPpm) {
  std::vector<double> all;
  for (const WindowedSamples* p : parts) {
    for (std::size_t w = 0; w < p->windows(); ++w) {
      all.insert(all.end(), p->kept(w).begin(), p->kept(w).end());
    }
  }
  return summarize(all, tailPpm);
}

}  // namespace fpsm::suite
