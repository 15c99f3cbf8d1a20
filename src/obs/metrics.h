// Process-wide lock-free metrics registry (DESIGN.md §14).
//
// Every metric is registered at compile time by a static ID (the enums
// below) and updated through free functions whose hot-path cost is one
// relaxed atomic add — no locks, no allocation, no clock reads beyond what
// StageTimer itself owns. Contention is absorbed by per-thread shards:
// each thread is assigned one of kShards cacheline-aligned slabs round-
// robin on first touch, and `snapshot()` sums the shards into a typed,
// immutable view. Gauges are single atomics (last-writer-wins semantics
// make sharding meaningless for them).
//
// Histograms use fixed log2 buckets: bucket 0 holds the value 0 and bucket
// b >= 1 covers [2^(b-1), 2^b). That makes recording branch-free
// (std::bit_width) and percentile derivation a rank walk over 40 integers
// — p50/p95/p99 are upper-bound estimates with <= 2x relative error, which
// is the right fidelity for latency dashboards and costs nothing to
// maintain.
//
// The whole layer compiles away under -DFPSM_METRICS_ENABLED=0 (CMake
// option FPSM_METRICS=OFF): update functions become empty inlines,
// StageTimer stops reading the clock entirely, and `snapshot()` returns
// all-zero rows so dump formats stay shape-stable. Scores are proven
// byte-identical across the two builds by the metrics-off CI job running
// the full differential battery.
//
// Call-site discipline is enforced by fpsm_lint rule R008: outside
// src/obs/, a line that touches obs::count / obs::gaugeSet / obs::gaugeAdd
// / obs::observe / obs::StageTimer must not also read a raw clock, take a
// lock, or allocate.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#ifndef FPSM_METRICS_ENABLED
#define FPSM_METRICS_ENABLED 1
#endif

namespace fpsm::obs {

// Monotonic event counters. Names (counterName) are the stable dump
// contract — see DESIGN.md §14 before renaming anything.
enum class Counter : std::uint16_t {
  ServeScoreCalls,            // serve.score.calls
  ServeBatchCalls,            // serve.batch.calls
  ServeBatchPasswords,        // serve.batch.passwords
  ServeCacheHits,             // serve.cache.hits
  ServeCacheMisses,           // serve.cache.misses
  ServeCacheStaleEvictions,   // serve.cache.stale_evictions
  ServeCacheCapacityEvictions,  // serve.cache.capacity_evictions
  ServeCacheInserts,          // serve.cache.inserts
  ServePublishes,             // serve.publish.count
  ServeArtifactRollouts,      // serve.publish.artifact_rollouts
  ServeSnapshotsRetired,      // serve.publish.snapshots_retired
  OnlineAccepted,             // online.accept.occurrences
  OnlineAcceptInvalid,        // online.accept.invalid
  OnlineCompactions,          // online.compact.cycles
  OnlinePublished,            // online.publish.generations
  OnlineGateRejections,       // online.gate.rejections
  OnlineQuarantined,          // online.quarantine.occurrences
  GenlogAppends,              // genlog.append.count
  GenlogRecoverySkips,        // genlog.recovery.skips
  GenlogGcRetired,            // genlog.gc.retired
  TrainChunks,                // train.chunks
  TrainEntries,               // train.entries
  RegistryScoresRouted,       // registry.routed.scores
  RegistryUpdatesRouted,      // registry.routed.updates
  RegistryColdLoads,          // registry.cold_loads
  RegistryEvictions,          // registry.evictions
  RegistryEvictFlushes,       // registry.evict.flushes
  RegistryUnknownTenant,      // registry.routed.unknown_tenant
  kCount,
};

// Point-in-time levels (set/add, not monotonic).
enum class Gauge : std::uint16_t {
  ServeGeneration,           // serve.generation
  OnlineQueueDepth,          // online.queue.depth
  GenlogGenerations,         // genlog.generations
  RegistryTenants,           // registry.tenants
  RegistryResidentTenants,   // registry.resident_tenants
  RegistryResidentBytes,     // registry.resident_bytes
  kCount,
};

// Log2-bucket distributions. The unit is part of the name (histoUnit).
enum class Histo : std::uint16_t {
  ServeScoreLatency,    // serve.score.latency_us
  ServeBatchLatency,    // serve.batch.latency_us
  ServeBatchSize,       // serve.batch.size
  ServePublishLatency,  // serve.publish.latency_us
  OnlineCompactDrain,   // online.compact.drain_us
  OnlineCompactTrain,   // online.compact.train_us
  OnlineCompactWrite,   // online.compact.write_us
  OnlineCompactGate,    // online.compact.gate_us
  OnlineCompactPublish,  // online.compact.publish_us
  OnlineResumeLogOpen,  // online.resume.log_open_us
  OnlineResumeArtifactOpen,  // online.resume.artifact_open_us
  OnlineResumeGate,     // online.resume.gate_us
  GenlogAppendLatency,  // genlog.append.latency_us
  TrainReadChunk,       // train.read.chunk_us
  TrainShardParse,      // train.parse.chunk_us
  TrainMerge,           // train.merge.chunk_us
  RegistryColdLoad,     // registry.cold_load.latency_us
  kCount,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);
inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(Gauge::kCount);
inline constexpr std::size_t kHistoCount =
    static_cast<std::size_t>(Histo::kCount);

/// Stable dump names ("serve.cache.hits", ...). Defined in metrics.cpp.
const char* counterName(Counter id) noexcept;
const char* gaugeName(Gauge id) noexcept;
const char* histoName(Histo id) noexcept;
/// Unit suffix for a histogram's recorded values ("us", "passwords").
const char* histoUnit(Histo id) noexcept;

/// 40 buckets cover [0, 2^39): in microseconds that is ~6.4 days, far past
/// any span this process times; overflow clamps into the last bucket.
inline constexpr std::size_t kHistoBuckets = 40;

/// Bucket index for a recorded value: 0 -> 0, otherwise 1 + floor(log2 v),
/// clamped. Exposed for the bucket-boundary property tests.
constexpr std::size_t histoBucketIndex(std::uint64_t value) noexcept {
  const auto width = static_cast<std::size_t>(std::bit_width(value));
  return width < kHistoBuckets ? width : kHistoBuckets - 1;
}

/// Inclusive upper bound of a bucket (0 for bucket 0, else 2^b - 1) — the
/// value percentile() reports when the rank lands in that bucket.
constexpr std::uint64_t histoBucketUpperBound(std::size_t bucket) noexcept {
  return bucket == 0 ? 0 : (std::uint64_t{1} << bucket) - 1;
}

struct HistogramSnapshot {
  Histo id{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistoBuckets> buckets{};

  /// Nearest-rank percentile, reported as the bucket upper bound.
  /// q in [0, 1]; returns 0 for an empty histogram.
  std::uint64_t percentile(double q) const noexcept;
  double mean() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

/// One coherent-enough view of every metric. Counters/gauges are listed in
/// enum order, so lookups by ID are O(1) index math. "Coherent enough":
/// shards are read with relaxed loads while writers keep running, so rows
/// lag each other by in-flight events — fine for monitoring, and the obs
/// tests quiesce writers before asserting exact sums.
struct MetricsSnapshot {
  std::vector<std::pair<Counter, std::uint64_t>> counters;
  std::vector<std::pair<Gauge, std::int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  std::uint64_t counter(Counter id) const noexcept {
    return counters[static_cast<std::size_t>(id)].second;
  }
  std::int64_t gauge(Gauge id) const noexcept {
    return gauges[static_cast<std::size_t>(id)].second;
  }
  const HistogramSnapshot& histogram(Histo id) const noexcept {
    return histograms[static_cast<std::size_t>(id)];
  }

  /// Human-readable table, grouped by subsystem prefix.
  std::string renderText() const;
  /// Machine-readable dump: one metric object per line (DESIGN.md §14).
  std::string renderJson() const;
};

#if FPSM_METRICS_ENABLED

namespace internal {

/// One thread-shard: everything a hot path writes, cacheline-aligned so
/// two shards never false-share. Zero-initialized into .bss (constinit).
struct alignas(64) Shard {
  std::atomic<std::uint64_t> counters[kCounterCount];
  std::atomic<std::uint64_t> histBuckets[kHistoCount][kHistoBuckets];
  std::atomic<std::uint64_t> histCount[kHistoCount];
  std::atomic<std::uint64_t> histSum[kHistoCount];
};

inline constexpr std::size_t kShards = 16;

class Registry {
 public:
  constexpr Registry() noexcept = default;

  void counterAdd(Counter id, std::uint64_t n) noexcept {
    shard().counters[static_cast<std::size_t>(id)].fetch_add(
        n, std::memory_order_relaxed);
  }

  void gaugeSet(Gauge id, std::int64_t value) noexcept {
    gauges_[static_cast<std::size_t>(id)].store(value,
                                                std::memory_order_relaxed);
  }

  void gaugeAdd(Gauge id, std::int64_t delta) noexcept {
    gauges_[static_cast<std::size_t>(id)].fetch_add(
        delta, std::memory_order_relaxed);
  }

  void observe(Histo id, std::uint64_t value) noexcept {
    Shard& s = shard();
    const auto h = static_cast<std::size_t>(id);
    s.histBuckets[h][histoBucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    s.histCount[h].fetch_add(1, std::memory_order_relaxed);
    s.histSum[h].fetch_add(value, std::memory_order_relaxed);
  }

  MetricsSnapshot snapshot() const;
  /// Zeroes every shard. Test/bench-only: racing writers may survive into
  /// the cleared state, so callers quiesce first.
  void resetForTest() noexcept;

 private:
  /// Round-robin shard assignment on first touch per thread. The
  /// thread_local index is the only per-thread state; after the first
  /// call the lookup is a TLS read plus array index.
  Shard& shard() noexcept {
    thread_local const std::size_t idx =
        nextShard_.fetch_add(1, std::memory_order_relaxed) % kShards;
    return shards_[idx];
  }

  Shard shards_[kShards];
  std::atomic<std::int64_t> gauges_[kGaugeCount];
  std::atomic<std::size_t> nextShard_{0};
};

extern constinit Registry gRegistry;

}  // namespace internal

/// Hot-path update API. One relaxed atomic add per event (observe: three,
/// same bound per component) — R008-enforced call-site discipline.
inline void count(Counter id, std::uint64_t n = 1) noexcept {
  internal::gRegistry.counterAdd(id, n);
}
inline void gaugeSet(Gauge id, std::int64_t value) noexcept {
  internal::gRegistry.gaugeSet(id, value);
}
inline void gaugeAdd(Gauge id, std::int64_t delta) noexcept {
  internal::gRegistry.gaugeAdd(id, delta);
}
inline void observe(Histo id, std::uint64_t value) noexcept {
  internal::gRegistry.observe(id, value);
}

#else  // !FPSM_METRICS_ENABLED

// Kill switch engaged: every update is an empty inline the optimizer
// deletes. IDs still exist so instrumented call sites compile unchanged.
inline void count(Counter, std::uint64_t = 1) noexcept {}
inline void gaugeSet(Gauge, std::int64_t) noexcept {}
inline void gaugeAdd(Gauge, std::int64_t) noexcept {}
inline void observe(Histo, std::uint64_t) noexcept {}

#endif  // FPSM_METRICS_ENABLED

/// Aggregated view across all shards (all-zero rows when the kill switch
/// is off, keeping dump shapes stable).
MetricsSnapshot snapshot();

/// Clears every metric. For tests and benches that measure deltas;
/// quiesce writer threads first.
void resetForTest() noexcept;

}  // namespace fpsm::obs
