#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace fpsm::suite {

void spinUntil(std::uint64_t dueNs) {
  while (nowNs() < dueNs) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (stream * 0x9e3779b97f4a7c15ULL);
  return splitmix64(state);
}

double nearestRank(const std::vector<double>& sorted, std::uint32_t ppm) {
  if (sorted.empty()) return 0.0;
  const std::uint64_t n = sorted.size();
  std::uint64_t rank = (static_cast<std::uint64_t>(ppm) * n + 999999) / 1000000;
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  return sorted[rank - 1];
}

Summary summarize(std::vector<double>& sample, std::uint32_t tailPpm) {
  std::sort(sample.begin(), sample.end());
  Summary s;
  s.n = sample.size();
  s.p50 = nearestRank(sample, 500000);
  s.tail = nearestRank(sample, tailPpm);
  for (const std::uint32_t ppm : kTailLadderPpm) {
    const std::uint64_t rank = (static_cast<std::uint64_t>(ppm) * s.n + 999999) / 1000000;
    if (s.n >= rank + 10) s.highestPpm = ppm;
  }
  s.highest = nearestRank(sample, s.highestPpm);
  return s;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return nearestRank(values, 500000);
}

double metricValue(const Metrics& metrics, std::string_view name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  throw std::logic_error("no metric named " + std::string(name));
}

void addTiming(Metrics& out, const std::string& base, const Summary& s,
               double scale, const std::string& unit) {
  out.push_back({base + "_p50_" + unit, s.p50 * scale, unit});
  out.push_back({base + "_tail_" + unit, s.highest * scale, unit});
  out.push_back({base + "_tail_pct", s.highestPpm * 1e-4, "%"});
  out.push_back({base + "_n", static_cast<double>(s.n), "count"});
}

void Tally::fail(const std::string& why) {
  failed_.fetch_add(1, std::memory_order_relaxed);
  const int slot = logged_.fetch_add(1, std::memory_order_relaxed);
  if (slot < static_cast<int>(std::size(messages_))) messages_[slot] = why;
}

std::vector<std::string> Tally::messages() const {
  const int n = std::min(logged_.load(), static_cast<int>(std::size(messages_)));
  return std::vector<std::string>(messages_, messages_ + n);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void writeFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace fpsm::suite
