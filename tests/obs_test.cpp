// Observability battery (src/obs, DESIGN.md §14): histogram bucket
// algebra, snapshot aggregation across thread shards, concurrent update
// hammering (the TSan target: `ctest --preset tsan -L obs`), StageTimer
// semantics, and render-format shape. Every value assertion is gated on
// FPSM_METRICS_ENABLED so the identical suite runs under the metrics-off
// build, where it proves the kill switch: updates are no-ops and
// snapshot() returns all-zero rows of the same shape.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/stage_timer.h"

namespace fpsm::obs {
namespace {

// ---------------------------------------------------------------------
// Bucket algebra. Pure constexpr math, identical in both builds.

TEST(HistoBuckets, ZeroGetsItsOwnBucket) {
  static_assert(histoBucketIndex(0) == 0);
  static_assert(histoBucketUpperBound(0) == 0);
  EXPECT_EQ(histoBucketIndex(0), 0u);
}

TEST(HistoBuckets, PowerOfTwoBoundaries) {
  // Bucket b >= 1 covers [2^(b-1), 2^b): the lower bound lands in b, the
  // value just below the upper bound lands in b, the upper bound itself
  // rolls into b+1.
  for (std::size_t b = 1; b + 1 < kHistoBuckets; ++b) {
    const std::uint64_t lo = std::uint64_t{1} << (b - 1);
    const std::uint64_t hi = std::uint64_t{1} << b;
    EXPECT_EQ(histoBucketIndex(lo), b) << "lower bound of bucket " << b;
    EXPECT_EQ(histoBucketIndex(hi - 1), b) << "top of bucket " << b;
    EXPECT_EQ(histoBucketIndex(hi), b + 1) << "start of bucket " << b + 1;
  }
}

TEST(HistoBuckets, OverflowClampsIntoLastBucket) {
  EXPECT_EQ(histoBucketIndex(std::uint64_t{1} << 39), kHistoBuckets - 1);
  EXPECT_EQ(histoBucketIndex(~std::uint64_t{0}), kHistoBuckets - 1);
}

TEST(HistoBuckets, UpperBoundBracketsEveryValue) {
  // ub(index(v)) >= v, and v is above the previous bucket's upper bound —
  // the two inequalities that make percentile() an upper-bound estimate
  // with <= 2x relative error.
  const std::uint64_t probes[] = {1,    2,     3,      4,       7,
                                  8,    100,   1023,   1024,    4097,
                                  1u << 20, (1u << 20) + 1, 999999999};
  for (const std::uint64_t v : probes) {
    const std::size_t b = histoBucketIndex(v);
    EXPECT_GE(histoBucketUpperBound(b), v) << v;
    if (b > 0) {
      EXPECT_GT(v, histoBucketUpperBound(b - 1)) << v;
    }
  }
}

TEST(HistoBuckets, UpperBoundFormula) {
  static_assert(histoBucketUpperBound(1) == 1);
  static_assert(histoBucketUpperBound(10) == 1023);
  EXPECT_EQ(histoBucketUpperBound(kHistoBuckets - 1),
            (std::uint64_t{1} << (kHistoBuckets - 1)) - 1);
}

// ---------------------------------------------------------------------
// Percentiles on a hand-built snapshot (no registry involved).

TEST(HistogramSnapshot, EmptyPercentileIsZero) {
  const HistogramSnapshot h{};
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(HistogramSnapshot, NearestRankWalk) {
  // 10 samples in bucket 3 ([4,8)), 90 in bucket 7 ([64,128)): p05 falls
  // in the first bucket, p50/p99 in the second, each reported as the
  // bucket's inclusive upper bound.
  HistogramSnapshot h{};
  h.buckets[3] = 10;
  h.buckets[7] = 90;
  h.count = 100;
  h.sum = 10 * 5 + 90 * 100;
  EXPECT_EQ(h.percentile(0.05), histoBucketUpperBound(3));
  EXPECT_EQ(h.percentile(0.50), histoBucketUpperBound(7));
  EXPECT_EQ(h.percentile(0.99), histoBucketUpperBound(7));
  EXPECT_DOUBLE_EQ(h.mean(), (10 * 5 + 90 * 100) / 100.0);
}

TEST(HistogramSnapshot, SingleSample) {
  HistogramSnapshot h{};
  h.buckets[histoBucketIndex(42)] = 1;
  h.count = 1;
  h.sum = 42;
  EXPECT_EQ(h.percentile(0.0), histoBucketUpperBound(histoBucketIndex(42)));
  EXPECT_EQ(h.percentile(1.0), histoBucketUpperBound(histoBucketIndex(42)));
}

// ---------------------------------------------------------------------
// Registry round trips. resetForTest() first: the registry is process
// wide and other tests in this binary write to it.

TEST(Registry, CounterRoundTrip) {
  resetForTest();
  count(Counter::ServeCacheHits);
  count(Counter::ServeCacheHits, 9);
  const MetricsSnapshot snap = snapshot();
#if FPSM_METRICS_ENABLED
  EXPECT_EQ(snap.counter(Counter::ServeCacheHits), 10u);
#else
  EXPECT_EQ(snap.counter(Counter::ServeCacheHits), 0u);
#endif
  EXPECT_EQ(snap.counter(Counter::ServeCacheMisses), 0u);
}

TEST(Registry, GaugeSetAndAdd) {
  resetForTest();
  gaugeSet(Gauge::OnlineQueueDepth, 7);
  gaugeAdd(Gauge::OnlineQueueDepth, -3);
  gaugeSet(Gauge::ServeGeneration, 42);
  const MetricsSnapshot snap = snapshot();
#if FPSM_METRICS_ENABLED
  EXPECT_EQ(snap.gauge(Gauge::OnlineQueueDepth), 4);
  EXPECT_EQ(snap.gauge(Gauge::ServeGeneration), 42);
#else
  EXPECT_EQ(snap.gauge(Gauge::OnlineQueueDepth), 0);
  EXPECT_EQ(snap.gauge(Gauge::ServeGeneration), 0);
#endif
}

TEST(Registry, HistogramRoundTrip) {
  resetForTest();
  observe(Histo::ServeBatchSize, 0);
  observe(Histo::ServeBatchSize, 5);
  observe(Histo::ServeBatchSize, 5000);
  // Copy: histogram() returns a reference into the snapshot temporary.
  const HistogramSnapshot h =
      snapshot().histogram(Histo::ServeBatchSize);
#if FPSM_METRICS_ENABLED
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 5005u);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[histoBucketIndex(5)], 1u);
  EXPECT_EQ(h.buckets[histoBucketIndex(5000)], 1u);
#else
  EXPECT_EQ(h.count, 0u);
  EXPECT_EQ(h.sum, 0u);
#endif
}

TEST(Registry, SnapshotListsEveryMetricInEnumOrder) {
  // The O(1) accessors index by enum value — snapshot() must emit rows in
  // enum order with nothing missing, in both builds.
  const MetricsSnapshot snap = snapshot();
  ASSERT_EQ(snap.counters.size(), kCounterCount);
  ASSERT_EQ(snap.gauges.size(), kGaugeCount);
  ASSERT_EQ(snap.histograms.size(), kHistoCount);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    EXPECT_EQ(snap.counters[i].first, static_cast<Counter>(i));
  }
  for (std::size_t i = 0; i < kHistoCount; ++i) {
    EXPECT_EQ(snap.histograms[i].id, static_cast<Histo>(i));
  }
}

// Sum-of-shards consistency: updates from many threads (each thread maps
// to some shard) must aggregate exactly once writers are quiesced.
TEST(Registry, SnapshotSumsAllThreadShards) {
  resetForTest();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        count(Counter::TrainEntries);
      }
    });
  }
  for (auto& w : workers) w.join();
  const MetricsSnapshot snap = snapshot();
#if FPSM_METRICS_ENABLED
  EXPECT_EQ(snap.counter(Counter::TrainEntries), kThreads * kPerThread);
#else
  EXPECT_EQ(snap.counter(Counter::TrainEntries), 0u);
#endif
}

// The tsan target: counters, gauges, and histograms hammered from many
// threads concurrently with snapshot() readers. Correctness assertion is
// the post-join exact sum; the sanitizer asserts the absence of races.
TEST(Registry, ConcurrentHammerIsRaceFreeAndExact) {
  resetForTest();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kOps = 4000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (std::uint64_t i = 0; i < kOps; ++i) {
        count(Counter::ServeScoreCalls);
        observe(Histo::ServeScoreLatency, (t * kOps + i) % 2048);
        gaugeSet(Gauge::ServeGeneration, static_cast<std::int64_t>(i));
      }
    });
  }
  // One racing reader: relaxed loads over live shards must be safe (the
  // "coherent enough" contract), even though mid-flight values are lagged.
  workers.emplace_back([] {
    for (int i = 0; i < 50; ++i) {
      const MetricsSnapshot snap = snapshot();
      (void)snap.counter(Counter::ServeScoreCalls);
    }
  });
  for (auto& w : workers) w.join();

  const MetricsSnapshot snap = snapshot();
#if FPSM_METRICS_ENABLED
  EXPECT_EQ(snap.counter(Counter::ServeScoreCalls), kThreads * kOps);
  const HistogramSnapshot& h = snap.histogram(Histo::ServeScoreLatency);
  EXPECT_EQ(h.count, kThreads * kOps);
  std::uint64_t bucketTotal = 0;
  for (const std::uint64_t b : h.buckets) bucketTotal += b;
  EXPECT_EQ(bucketTotal, h.count);
#else
  EXPECT_EQ(snap.counter(Counter::ServeScoreCalls), 0u);
#endif
}

// ---------------------------------------------------------------------
// StageTimer RAII semantics.

TEST(StageTimer, RecordsExactlyOnceOnDestruction) {
  resetForTest();
  { StageTimer span(Histo::OnlineCompactTrain); }
  const HistogramSnapshot h =
      snapshot().histogram(Histo::OnlineCompactTrain);
#if FPSM_METRICS_ENABLED
  EXPECT_EQ(h.count, 1u);
#else
  EXPECT_EQ(h.count, 0u);
#endif
}

TEST(StageTimer, StopRecordsEarlyAndDisarmsDestructor) {
  resetForTest();
  {
    StageTimer span(Histo::OnlineCompactWrite);
    (void)span.stop();
  }  // dtor must not record a second sample
  const HistogramSnapshot h =
      snapshot().histogram(Histo::OnlineCompactWrite);
#if FPSM_METRICS_ENABLED
  EXPECT_EQ(h.count, 1u);
#else
  EXPECT_EQ(h.count, 0u);
#endif
}

TEST(StageTimer, CancelRecordsNothing) {
  resetForTest();
  {
    StageTimer span(Histo::OnlineCompactGate);
    span.cancel();
  }
  EXPECT_EQ(snapshot().histogram(Histo::OnlineCompactGate).count, 0u);
}

// ---------------------------------------------------------------------
// Render formats: shape-stable in both builds (the dump contract).

TEST(Render, TextListsEveryMetricName) {
  const std::string text = snapshot().renderText();
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    EXPECT_NE(text.find(counterName(static_cast<Counter>(i))),
              std::string::npos)
        << counterName(static_cast<Counter>(i));
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    EXPECT_NE(text.find(gaugeName(static_cast<Gauge>(i))),
              std::string::npos);
  }
  for (std::size_t i = 0; i < kHistoCount; ++i) {
    EXPECT_NE(text.find(histoName(static_cast<Histo>(i))),
              std::string::npos);
  }
}

TEST(Render, JsonIsLineOrientedWithHeader) {
  resetForTest();
  count(Counter::ServeCacheHits, 3);
  const std::string json = snapshot().renderJson();
  EXPECT_NE(json.find("\"fuzzypsm_metrics\": 1"), std::string::npos);
  // One object per line: every metric line carries its own name/type pair.
#if FPSM_METRICS_ENABLED
  EXPECT_NE(json.find("{\"name\": \"serve.cache.hits\", "
                      "\"type\": \"counter\", \"value\": 3}"),
            std::string::npos);
#else
  EXPECT_NE(json.find("{\"name\": \"serve.cache.hits\", "
                      "\"type\": \"counter\", \"value\": 0}"),
            std::string::npos);
#endif
  EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
}

#if !FPSM_METRICS_ENABLED
// Kill-switch build only: every update path must leave the snapshot
// all-zero — the compile-time proof that the layer is truly off.
TEST(KillSwitch, EveryUpdateIsANoOp) {
  count(Counter::ServeScoreCalls, 1000);
  gaugeAdd(Gauge::OnlineQueueDepth, 1000);
  observe(Histo::ServeScoreLatency, 1000);
  { StageTimer span(Histo::ServeScoreLatency); }
  const MetricsSnapshot snap = snapshot();
  for (const auto& [id, value] : snap.counters) EXPECT_EQ(value, 0u);
  for (const auto& [id, value] : snap.gauges) EXPECT_EQ(value, 0);
  for (const HistogramSnapshot& h : snap.histograms) EXPECT_EQ(h.count, 0u);
}
#endif

}  // namespace
}  // namespace fpsm::obs
