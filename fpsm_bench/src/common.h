// Shared pieces of the fpsm_bench suite: run options, clocks, percentiles,
// metric records, correctness tallies and small file helpers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace fpsm::suite {

/// Everything a workload needs to know about the run. Only the seed shapes
/// the inputs; the rest shapes how long and how deeply the run measures.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of one measured phase
  bool trace = false;     ///< per-layer run: spans + rung replay
  bool smoke = false;     ///< tiny inputs and durations (ctest)
  std::string outDir;     ///< results and trace files
  std::string workDir;    ///< scratch: corpora, artifacts, registry roots
  std::string fuzzypsm;   ///< the CLI that trains grammars
  std::string commit = "unknown";

  double warmupSeconds() const { return smoke ? 0.1 : 1.0; }
  int setupRepeats() const { return smoke ? 1 : 7; }
};

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double secondsSince(std::uint64_t startNs) {
  return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/// Spins until the steady clock reaches `dueNs`. Open-loop senders spin
/// rather than sleep: their intervals (a few microseconds) are far below
/// the scheduler's sleep granularity.
void spinUntil(std::uint64_t dueNs);

/// An independent 64-bit seed for one purpose (`stream`) of a run.
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

// --- percentiles -------------------------------------------------------------

/// Nearest-rank percentile of an ascending sample: the value at 1-based
/// rank ceil(q * n), with q given in parts per million so the rank is
/// computed exactly.
double nearestRank(const std::vector<double>& sorted, std::uint32_t ppm);

/// The percentiles a tail may be reported at, in parts per million.
inline constexpr std::uint32_t kTailLadderPpm[] = {500000, 900000, 990000,
                                                   999000, 999900, 999990};

/// Median and tails of a timing sample: `tail` at the fixed percentile the
/// caller asked for, so runs compare, and `highest` at the highest ladder
/// percentile with at least ten samples beyond it, which is as far out as
/// the sample supports.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  std::uint32_t highestPpm = 0;
  double highest = 0.0;
};

/// Sorts `sample` in place and summarises it, the tail at `tailPpm`.
Summary summarize(std::vector<double>& sample, std::uint32_t tailPpm);

double median(std::vector<double> values);

// --- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

double metricValue(const Metrics& metrics, std::string_view name);

/// Appends one timing as <base>_p50_<unit>, <base>_tail_<unit> (at the
/// highest supported percentile), <base>_tail_pct and <base>_n; `scale`
/// converts the sample's unit to `unit`.
void addTiming(Metrics& out, const std::string& base, const Summary& s,
               double scale, const std::string& unit);

/// Attempted / failed operation counts plus the first few failure
/// messages. A failure is an exception or a score that differs from the
/// reference; every check in the suite reports through one of these.
class Tally {
 public:
  void attempt(std::uint64_t n = 1) {
    attempted_.fetch_add(n, std::memory_order_relaxed);
  }
  void fail(const std::string& why);
  std::uint64_t attempted() const {
    return attempted_.load(std::memory_order_relaxed);
  }
  std::uint64_t failed() const {
    return failed_.load(std::memory_order_relaxed);
  }
  std::vector<std::string> messages() const;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<int> logged_{0};
  std::string messages_[8];
};

// --- files -------------------------------------------------------------------

std::string readFile(const std::string& path);
void writeFile(const std::string& path, std::string_view bytes);

/// Peak resident set of this process in MB (getrusage).
double peakRssMb();

}  // namespace fpsm::suite
