// Open-loop senders for the suite's client threads.
//
// An open-loop sender models independent users: request k is due at a
// fixed time whether or not earlier requests finished, so a stall delays
// every request behind it. Its latency is timed from the due time, and its
// lateness (lag: start minus due) shows whether the generator itself kept
// up. Closed-loop callers, which wait for each reply, are plain loops in
// the workloads.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common.h"
#include "samples.h"

namespace fpsm::suite {

struct OpenLoopRecord {
  OpenLoopRecord(std::uint64_t startNs, std::uint64_t endNs,
                 std::size_t windows, std::uint64_t seed)
      : latencyUs(startNs, endNs, windows, kKeepPerWindow, seed),
        lagUs(startNs, endNs, 1, kKeepPerWindow, seed + 1) {}

  WindowedSamples latencyUs;  ///< completion minus due, windowed by due time
  WindowedSamples lagUs;      ///< start minus due
  double finalLagUs = 0.0;    ///< lag of the last request sent
};

/// Sends request k at startNs + k * intervalNs until endNs (or until
/// `stop` is set), calling send(k). Spins between requests; never skips
/// one that is late.
template <typename Send>
void openLoop(std::uint64_t startNs, std::uint64_t endNs,
              std::uint64_t intervalNs, OpenLoopRecord& out, Send&& send,
              const std::atomic<bool>* stop = nullptr) {
  for (std::uint64_t k = 0;; ++k) {
    const std::uint64_t due = startNs + k * intervalNs;
    if (due >= endNs) break;
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
    spinUntil(due);
    const std::uint64_t sent = nowNs();
    send(k);
    const std::uint64_t done = nowNs();
    out.latencyUs.add(due, static_cast<double>(done - due) * 1e-3);
    out.finalLagUs = static_cast<double>(sent - due) * 1e-3;
    out.lagUs.add(due, out.finalLagUs);
  }
}

/// Runs `threads` open-loop senders at `ratePerS` in total, each on its
/// own schedule offset by an equal share of the interval, for `seconds`.
/// send(thread, k) issues thread's k-th request.
template <typename Send>
std::vector<OpenLoopRecord> openLoopThreads(unsigned threads, double ratePerS,
                                            double seconds, Send&& send) {
  const auto interval = static_cast<std::uint64_t>(1e9 * threads / ratePerS);
  const std::uint64_t start = nowNs() + 1'000'000;  // let every sender start
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<OpenLoopRecord> records;
  for (unsigned t = 0; t < threads; ++t) {
    records.emplace_back(start, end, windowsFor(seconds), 1000 + t);
  }
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      openLoop(start + t * interval / threads, end, interval, records[t],
               [&](std::uint64_t k) { send(t, k); });
    });
  }
  for (std::thread& th : pool) th.join();
  return records;
}

/// Pointers to one field of every record, for the samples.h helpers.
inline std::vector<const WindowedSamples*> latencies(
    const std::vector<OpenLoopRecord>& records) {
  std::vector<const WindowedSamples*> parts;
  for (const OpenLoopRecord& r : records) parts.push_back(&r.latencyUs);
  return parts;
}

inline std::vector<const WindowedSamples*> lags(
    const std::vector<OpenLoopRecord>& records) {
  std::vector<const WindowedSamples*> parts;
  for (const OpenLoopRecord& r : records) parts.push_back(&r.lagUs);
  return parts;
}

}  // namespace fpsm::suite
