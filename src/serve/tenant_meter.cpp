#include "serve/tenant_meter.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "util/error.h"
#include "util/parallel.h"

namespace fpsm {

TenantMeter::TenantMeter(std::shared_ptr<const GrammarArtifact> artifact,
                         TenantMeterConfig config)
    : config_(std::move(config)),
      cache_(config_.cacheCapacity == 0 ? 1 : config_.cacheCapacity,
             config_.cacheShards) {
  current_.store(buildSnapshot(std::move(artifact), 0));
}

std::shared_ptr<const GrammarSnapshot> TenantMeter::buildSnapshot(
    std::shared_ptr<const GrammarArtifact> artifact,
    std::uint64_t gen) const {
  if (artifact && !artifact->grammar().trained()) {
    throw NotTrained("TenantMeter: artifact grammar must be trained");
  }
  // fromArtifact rejects a null artifact.
  return GrammarSnapshot::fromArtifact(std::move(artifact), gen);
}

TenantMeter::Score TenantMeter::score(std::string_view pw) const {
  scoreCount_.fetch_add(1, std::memory_order_relaxed);
  obs::count(obs::Counter::ServeScoreCalls);
  obs::StageTimer span(obs::Histo::ServeScoreLatency);
  const auto snap = current_.load();
  const std::uint64_t gen = snap->generation();
  if (config_.cacheCapacity > 0) {
    if (const auto hit = cache_.lookup(gen, pw)) {
      return Score{*hit, gen, true};
    }
  }
  const double bits = snap->strengthBits(pw);
  if (config_.cacheCapacity > 0) {
    cache_.insert(gen, pw, bits);
  }
  return Score{bits, gen, false};
}

std::vector<TenantMeter::Score> TenantMeter::scoreBatch(
    const std::vector<std::string>& pws, unsigned requestedThreads) const {
  scoreCount_.fetch_add(pws.size(), std::memory_order_relaxed);
  obs::count(obs::Counter::ServeBatchCalls);
  obs::count(obs::Counter::ServeBatchPasswords, pws.size());
  obs::observe(obs::Histo::ServeBatchSize, pws.size());
  obs::StageTimer span(obs::Histo::ServeBatchLatency);
  // One snapshot for the whole batch: every result shares a generation, so
  // a publish landing mid-batch cannot mix two grammars in one response.
  // The RCU pin, the cache probes, and the parser setup are each paid once
  // per batch instead of once per password.
  const auto snap = current_.load();
  const std::uint64_t gen = snap->generation();
  std::vector<Score> out(pws.size());

  // Phase 1: one cache sweep. Hits are final; misses queue for scoring.
  std::vector<std::size_t> miss;
  miss.reserve(pws.size());
  for (std::size_t i = 0; i < pws.size(); ++i) {
    if (config_.cacheCapacity > 0) {
      if (const auto hit = cache_.lookup(gen, pws[i])) {
        out[i] = Score{*hit, gen, true};
        continue;
      }
    }
    miss.push_back(i);
  }

  // Phase 2: batch-score the misses. Contiguous chunks fan out over
  // worker threads; within a chunk the snapshot's batch path shares one
  // parser and one SIMD ParseScratch, so each worker runs the same
  // bit-exact pipeline the single-password score() does.
  std::vector<std::string_view> views(miss.size());
  std::vector<double> bits(miss.size());
  for (std::size_t j = 0; j < miss.size(); ++j) views[j] = pws[miss[j]];
  const unsigned workers =
      parallelWorkerCount(miss.size(), requestedThreads);
  const std::size_t chunk =
      miss.empty() ? 1 : (miss.size() + workers - 1) / workers;
  const std::size_t chunks =
      miss.empty() ? 0 : (miss.size() + chunk - 1) / chunk;
  parallelFor(
      chunks,
      [&](std::size_t c) {
        const std::size_t lo = c * chunk;
        const std::size_t hi = std::min(miss.size(), lo + chunk);
        snap->strengthBitsBatch(views.data() + lo, hi - lo,
                                bits.data() + lo);
      },
      chunks == 0 ? 1 : static_cast<unsigned>(chunks));

  // Phase 3: publish results and warm the cache with the fresh scores.
  for (std::size_t j = 0; j < miss.size(); ++j) {
    out[miss[j]] = Score{bits[j], gen, false};
    if (config_.cacheCapacity > 0) {
      cache_.insert(gen, pws[miss[j]], bits[j]);
    }
  }
  return out;
}

std::uint64_t TenantMeter::publishFromArtifact(
    std::shared_ptr<const GrammarArtifact> artifact) {
  obs::StageTimer span(obs::Histo::ServePublishLatency);
  const MutexLock lock(publishMutex_);
  // Build the snapshot before touching any service state: a rejection
  // here must leave the previous grammar serving.
  const std::uint64_t gen = nextGeneration_;
  auto snapshot = buildSnapshot(std::move(artifact), gen);
  ++nextGeneration_;
  // exchange() hands back the displaced snapshot: counting it here is the
  // RCU retire event (readers may still pin it; memory frees when the last
  // reference drops, so retired-vs-published is the reclamation backlog).
  if (current_.exchange(std::move(snapshot))) {
    obs::count(obs::Counter::ServeSnapshotsRetired);
  }
  publishCount_.fetch_add(1, std::memory_order_relaxed);
  obs::count(obs::Counter::ServePublishes);
  obs::count(obs::Counter::ServeArtifactRollouts);
  obs::gaugeSet(obs::Gauge::ServeGeneration, static_cast<std::int64_t>(gen));
  return gen;
}

TenantMeter::Stats TenantMeter::stats() const {
  Stats s;
  s.scores = scoreCount_.load(std::memory_order_relaxed);
  s.publishes = publishCount_.load(std::memory_order_relaxed);
  s.cache = cache_.stats();
  return s;
}

}  // namespace fpsm
