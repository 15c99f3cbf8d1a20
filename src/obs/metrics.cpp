#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>

namespace fpsm::obs {

namespace {

// Name tables are indexed by enum value; the static_asserts keep them in
// lockstep with the enums. These strings are the dump-format contract
// (DESIGN.md §14) — renaming one is a breaking change for consumers.
constexpr const char* kCounterNames[] = {
    "serve.score.calls",
    "serve.batch.calls",
    "serve.batch.passwords",
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.cache.stale_evictions",
    "serve.cache.capacity_evictions",
    "serve.cache.inserts",
    "serve.publish.count",
    "serve.publish.artifact_rollouts",
    "serve.publish.snapshots_retired",
    "online.accept.occurrences",
    "online.accept.invalid",
    "online.compact.cycles",
    "online.publish.generations",
    "online.gate.rejections",
    "online.quarantine.occurrences",
    "genlog.append.count",
    "genlog.recovery.skips",
    "genlog.gc.retired",
    "train.chunks",
    "train.entries",
    "registry.routed.scores",
    "registry.routed.updates",
    "registry.cold_loads",
    "registry.evictions",
    "registry.evict.flushes",
    "registry.routed.unknown_tenant",
};
static_assert(std::size(kCounterNames) == kCounterCount);

constexpr const char* kGaugeNames[] = {
    "serve.generation",
    "online.queue.depth",
    "genlog.generations",
    "registry.tenants",
    "registry.resident_tenants",
    "registry.resident_bytes",
};
static_assert(std::size(kGaugeNames) == kGaugeCount);

constexpr const char* kHistoNames[] = {
    "serve.score.latency_us",
    "serve.batch.latency_us",
    "serve.batch.size",
    "serve.publish.latency_us",
    "online.compact.drain_us",
    "online.compact.train_us",
    "online.compact.write_us",
    "online.compact.gate_us",
    "online.compact.publish_us",
    "online.resume.log_open_us",
    "online.resume.artifact_open_us",
    "online.resume.gate_us",
    "genlog.append.latency_us",
    "train.read.chunk_us",
    "train.parse.chunk_us",
    "train.merge.chunk_us",
    "registry.cold_load.latency_us",
};
static_assert(std::size(kHistoNames) == kHistoCount);

constexpr const char* kHistoUnits[] = {
    "us", "us", "passwords", "us", "us", "us", "us", "us", "us",
    "us", "us", "us",        "us", "us", "us", "us", "us",
};
static_assert(std::size(kHistoUnits) == kHistoCount);

MetricsSnapshot emptySnapshot() {
  MetricsSnapshot snap;
  snap.counters.reserve(kCounterCount);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    snap.counters.emplace_back(static_cast<Counter>(i), 0);
  }
  snap.gauges.reserve(kGaugeCount);
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    snap.gauges.emplace_back(static_cast<Gauge>(i), 0);
  }
  snap.histograms.resize(kHistoCount);
  for (std::size_t i = 0; i < kHistoCount; ++i) {
    snap.histograms[i].id = static_cast<Histo>(i);
  }
  return snap;
}

void appendf(std::string& out, const char* fmt, auto... args) {
  char buf[256];
  const int n = std::snprintf(buf, sizeof buf, fmt, args...);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace

const char* counterName(Counter id) noexcept {
  return kCounterNames[static_cast<std::size_t>(id)];
}
const char* gaugeName(Gauge id) noexcept {
  return kGaugeNames[static_cast<std::size_t>(id)];
}
const char* histoName(Histo id) noexcept {
  return kHistoNames[static_cast<std::size_t>(id)];
}
const char* histoUnit(Histo id) noexcept {
  return kHistoUnits[static_cast<std::size_t>(id)];
}

std::uint64_t HistogramSnapshot::percentile(double q) const noexcept {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest-rank: the value at 1-based rank ceil(q * count).
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
  if (rank < q * static_cast<double>(count) || rank == 0) ++rank;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistoBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) return histoBucketUpperBound(b);
  }
  return histoBucketUpperBound(kHistoBuckets - 1);
}

#if FPSM_METRICS_ENABLED

namespace internal {

constinit Registry gRegistry;

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap = emptySnapshot();
  for (const Shard& s : shards_) {
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      snap.counters[c].second +=
          s.counters[c].load(std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < kHistoCount; ++h) {
      HistogramSnapshot& hist = snap.histograms[h];
      hist.count += s.histCount[h].load(std::memory_order_relaxed);
      hist.sum += s.histSum[h].load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistoBuckets; ++b) {
        hist.buckets[b] += s.histBuckets[h][b].load(std::memory_order_relaxed);
      }
    }
  }
  for (std::size_t g = 0; g < kGaugeCount; ++g) {
    snap.gauges[g].second = gauges_[g].load(std::memory_order_relaxed);
  }
  return snap;
}

void Registry::resetForTest() noexcept {
  for (Shard& s : shards_) {
    for (auto& c : s.counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : s.histBuckets) {
      for (auto& b : h) b.store(0, std::memory_order_relaxed);
    }
    for (auto& c : s.histCount) c.store(0, std::memory_order_relaxed);
    for (auto& c : s.histSum) c.store(0, std::memory_order_relaxed);
  }
  for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
}

}  // namespace internal

MetricsSnapshot snapshot() { return internal::gRegistry.snapshot(); }
void resetForTest() noexcept { internal::gRegistry.resetForTest(); }

#else  // !FPSM_METRICS_ENABLED

MetricsSnapshot snapshot() { return emptySnapshot(); }
void resetForTest() noexcept {}

#endif  // FPSM_METRICS_ENABLED

std::string MetricsSnapshot::renderText() const {
  std::string out;
  out += "== counters ==\n";
  for (const auto& [id, value] : counters) {
    appendf(out, "%-34s %12" PRIu64 "\n", counterName(id), value);
  }
  out += "\n== gauges ==\n";
  for (const auto& [id, value] : gauges) {
    appendf(out, "%-34s %12" PRId64 "\n", gaugeName(id), value);
  }
  out += "\n== histograms ==\n";
  for (const HistogramSnapshot& h : histograms) {
    appendf(out,
            "%-34s count=%" PRIu64 " sum=%" PRIu64
            " mean=%.1f p50<=%" PRIu64 " p95<=%" PRIu64 " p99<=%" PRIu64
            " (%s)\n",
            histoName(h.id), h.count, h.sum, h.mean(), h.percentile(0.50),
            h.percentile(0.95), h.percentile(0.99), histoUnit(h.id));
  }
  return out;
}

std::string MetricsSnapshot::renderJson() const {
  // One metric object per line: greppable without a JSON parser, and still
  // a single valid JSON document. This layout is the documented dump
  // contract (DESIGN.md §14) — `fuzzypsm stats --file` relies on it.
  std::string out;
  out += "{\n";
  appendf(out, "  \"fuzzypsm_metrics\": 1,\n");
  out += "  \"metrics\": [\n";
  std::string rows;
  for (const auto& [id, value] : counters) {
    appendf(rows,
            "    {\"name\": \"%s\", \"type\": \"counter\", \"value\": %" PRIu64
            "},\n",
            counterName(id), value);
  }
  for (const auto& [id, value] : gauges) {
    appendf(rows,
            "    {\"name\": \"%s\", \"type\": \"gauge\", \"value\": %" PRId64
            "},\n",
            gaugeName(id), value);
  }
  for (const HistogramSnapshot& h : histograms) {
    appendf(rows,
            "    {\"name\": \"%s\", \"type\": \"histogram\", \"unit\": "
            "\"%s\", \"count\": %" PRIu64 ", \"sum\": %" PRIu64
            ", \"p50\": %" PRIu64 ", \"p95\": %" PRIu64 ", \"p99\": %" PRIu64
            ", \"buckets\": [",
            histoName(h.id), histoUnit(h.id), h.count, h.sum,
            h.percentile(0.50), h.percentile(0.95), h.percentile(0.99));
    bool first = true;
    for (std::size_t b = 0; b < kHistoBuckets; ++b) {
      if (h.buckets[b] == 0) continue;
      appendf(rows, "%s[%zu, %" PRIu64 "]", first ? "" : ", ", b,
              h.buckets[b]);
      first = false;
    }
    rows += "]},\n";
  }
  if (!rows.empty()) {
    rows.pop_back();  // trailing newline
    rows.pop_back();  // trailing comma
    rows += "\n";
  }
  out += rows;
  out += "  ]\n";
  out += "}\n";
  return out;
}

}  // namespace fpsm::obs
