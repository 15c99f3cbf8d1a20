// Serving-layer SLO bench: mixed-traffic reader scaling plus tail-latency
// percentiles for the batched scoring path, written machine-readable to
// ./BENCH_serve.json (DESIGN.md §11).
//
// Section 1 — throughput: aggregate scores/sec at 1/2/4/8 reader threads
// against an artifact-backed serving unit while a writer publishes a new
// snapshot every 10 ms, alternating between two precompiled artifacts (the
// trained grammar and the same grammar after one batch of accepted
// registrations — what an OnlineUpdater compaction would publish). This is
// the deployment-shaped claim behind src/serve: because readers score
// immutable snapshots pinned by one pointer copy (RCU) and hot passwords
// hit the generation-keyed LRU cache, reader throughput scales with cores
// even with an active writer. On a single-core host (hardware_concurrency
// < 2) reader "scaling" degenerates to timing the scheduler, and numbers
// recorded to BENCH_serve.json would silently poison CI trend tracking —
// so the bench refuses: it exits 2 before measuring and never touches the
// committed json.
//
// Section 2 — latency: one reader issues scoreBatch() calls at batch sizes
// {1, 64, 512} against the same publish-churned unit and records every
// call's wall time. Requests are occurrence-weighted draws from the
// synthesized leak, so popularity is Zipf-shaped like real registration
// traffic (hot head -> cache hits, long tail -> full parses). Reported
// p50/p95/p99 are nearest-rank per-call latencies; QPS counts passwords,
// not calls. Batch size 1 doubles as the single-password SLO baseline.
//
// Usage: bench_serve_throughput [scale] [duration-ms]
//   scale        fraction of the paper's dataset sizes (bench_common.h)
//   duration-ms  per-configuration measurement window (default 500; CI
//                smoke runs pass a small value to bound wall time)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "artifact/artifact.h"
#include "bench_common.h"
#include "core/fuzzy_psm.h"
#include "serve/tenant_meter.h"
#include "stats/rank.h"
#include "util/format.h"
#include "util/rng.h"
#include "util/simd.h"

using namespace fpsm;

namespace {

struct MixedRun {
  double scoresPerSec = 0.0;
  std::uint64_t scores = 0;
  std::uint64_t publishes = 0;
  double cacheHitRate = 0.0;
};

/// The two grammars the writer alternates between.
struct Generations {
  std::shared_ptr<const GrammarArtifact> trained;
  std::shared_ptr<const GrammarArtifact> updated;
};

/// Shared publish churn: every 10 ms the writer swaps the served grammar.
/// Both artifacts are compiled up front, so the contention of interest is
/// snapshot publish (and the cache invalidation it causes) vs read, not
/// writer CPU burn.
std::thread startWriter(MeterService& service, const Generations& gens,
                        std::atomic<bool>& stop) {
  return std::thread([&] {
    for (std::uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      service.publishFromArtifact(i % 2 == 0 ? gens.updated : gens.trained);
    }
  });
}

MeterServiceConfig servingConfig() {
  MeterServiceConfig cfg;
  cfg.cacheCapacity = 8192;
  return cfg;
}

MixedRun runMixedTraffic(const Generations& gens,
                         const std::vector<std::string>& pool,
                         unsigned readerThreads,
                         std::chrono::milliseconds duration) {
  MeterService service(gens.trained, servingConfig());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> totalScores{0};

  std::vector<std::thread> readers;
  for (unsigned t = 0; t < readerThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + t);
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        (void)service.score(pool[rng.below(pool.size())]);
        ++local;
      }
      totalScores.fetch_add(local, std::memory_order_relaxed);
    });
  }
  std::thread writer = startWriter(service, gens, stop);

  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(duration);
  stop.store(true, std::memory_order_release);
  writer.join();
  for (auto& t : readers) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  MixedRun run;
  run.scores = totalScores.load();
  run.scoresPerSec = static_cast<double>(run.scores) / secs;
  const auto stats = service.stats();
  run.publishes = stats.publishes;
  run.cacheHitRate = stats.cache.hitRate();
  return run;
}

struct LatencyRun {
  std::size_t batchSize = 0;
  std::uint64_t calls = 0;
  double p50us = 0.0;
  double p95us = 0.0;
  double p99us = 0.0;
  double qps = 0.0;  ///< passwords scored per second (calls * batch / secs)
  double cacheHitRate = 0.0;
};

LatencyRun runBatchLatency(const Generations& gens,
                           const std::vector<std::string>& pool,
                           std::size_t batchSize,
                           std::chrono::milliseconds duration) {
  MeterService service(gens.trained, servingConfig());

  std::atomic<bool> stop{false};
  std::thread writer = startWriter(service, gens, stop);

  Rng rng(2024);
  std::vector<std::string> request(batchSize);
  std::vector<double> latenciesUs;
  latenciesUs.reserve(1 << 16);
  std::uint64_t scored = 0;
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + duration;
  while (std::chrono::steady_clock::now() < deadline) {
    // Request assembly happens outside the timed section: the SLO being
    // measured is scoreBatch itself (pin + cache sweep + parse), not the
    // caller's string shuffling.
    for (auto& pw : request) pw = pool[rng.below(pool.size())];
    const auto t0 = std::chrono::steady_clock::now();
    const auto scores = service.scoreBatch(request);
    const auto t1 = std::chrono::steady_clock::now();
    latenciesUs.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    scored += scores.size();
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  stop.store(true, std::memory_order_release);
  writer.join();

  std::sort(latenciesUs.begin(), latenciesUs.end());
  LatencyRun run;
  run.batchSize = batchSize;
  run.calls = latenciesUs.size();
  run.p50us = nearestRankPercentile(latenciesUs, 0.50);
  run.p95us = nearestRankPercentile(latenciesUs, 0.95);
  run.p99us = nearestRankPercentile(latenciesUs, 0.99);
  run.qps = static_cast<double>(scored) / secs;
  run.cacheHitRate = service.stats().cache.hitRate();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  // Refuse before doing any work: a reader-scaling bench on a single core
  // times the scheduler, not the serving layer, and its BENCH_serve.json
  // would poison CI trend tracking (see header comment).
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 2) {
    std::fprintf(stderr,
                 "bench_serve_throughput: hardware_concurrency=%u — a reader-"
                 "scaling bench needs >= 2 hardware threads; refusing to "
                 "record single-core numbers (BENCH_serve.json untouched)\n",
                 hw);
    // Machine-readable skip marker so harnesses that parse bench output
    // (CI trend tooling, the driver behind BENCH_*.json) can distinguish
    // "environment cannot run this bench" from a crash without scraping
    // the prose above.
    std::fprintf(stderr,
                 "{\"skipped\": true, \"bench\": \"%s\", "
                 "\"reason\": \"hardware_concurrency=%u < 2\"}\n",
                 "bench_serve_throughput", hw);
    return 2;
  }

  const auto cfg = bench::defaultConfig(argc, argv);
  auto duration = std::chrono::milliseconds(500);
  if (argc > 2) {
    const long ms = std::atol(argv[2]);
    if (ms > 0) duration = std::chrono::milliseconds(ms);
  }
  bench::printHeader(
      "Serving SLOs: reader scaling + batched-path tail latency", cfg);
  EvalHarness harness(cfg);

  FuzzyPsm psm;
  psm.loadBaseDictionary(harness.dataset("Tianya"));
  psm.train(harness.dataset("Dodonew"));
  std::printf("grammar: %s base words, %s trained passwords\n",
              fmtCount(psm.baseDictionary().size()).c_str(),
              fmtCount(psm.trainedPasswords()).c_str());

  // Traffic pool: occurrence-weighted draws from the training service, so
  // request popularity is Zipf-shaped like real registration traffic.
  const Dataset& traffic = harness.dataset("Dodonew");
  Rng poolRng(42);
  std::vector<std::string> pool;
  pool.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    pool.emplace_back(traffic.sampleOccurrence(poolRng));
  }

  // The second generation folds one batch of accepted registrations (the
  // traffic pool itself) into the trained counts.
  FuzzyPsm updated = psm;
  for (const auto& pw : pool) updated.update(pw);
  const Generations gens{GrammarArtifact::fromBytes(compileArtifact(psm)),
                         GrammarArtifact::fromBytes(compileArtifact(updated))};

  std::printf(
      "duration per configuration: %lld ms, writer active: yes, "
      "simd: %s, hardware threads: %u\n\n",
      static_cast<long long>(duration.count()), simdLevelName(activeSimdLevel()),
      hw);

  std::vector<std::pair<unsigned, MixedRun>> mixed;
  TextTable table({"Readers", "Scores/sec", "Speedup", "Publishes",
                   "Cache hit rate"});
  double baseline = 0.0;
  for (const unsigned readers : {1u, 2u, 4u, 8u}) {
    const MixedRun run = runMixedTraffic(gens, pool, readers, duration);
    if (readers == 1) baseline = run.scoresPerSec;
    mixed.emplace_back(readers, run);
    table.addRow({std::to_string(readers),
                  fmtCount(static_cast<std::uint64_t>(run.scoresPerSec)),
                  fmtDouble(baseline > 0.0 ? run.scoresPerSec / baseline : 0.0,
                            2) + "x",
                  fmtCount(run.publishes), fmtPercent(run.cacheHitRate)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\n(speedup saturates at the core count; the 8-reader row needs\n"
      ">= 8 cores to show its full scaling)\n\n");

  std::vector<LatencyRun> latency;
  TextTable slo({"Batch", "Calls", "p50 us", "p95 us", "p99 us",
                 "Passwords/sec", "Cache hit rate"});
  for (const std::size_t batchSize :
       {std::size_t{1}, std::size_t{64}, std::size_t{512}}) {
    const LatencyRun run = runBatchLatency(gens, pool, batchSize, duration);
    latency.push_back(run);
    slo.addRow({std::to_string(run.batchSize), fmtCount(run.calls),
                fmtDouble(run.p50us, 1), fmtDouble(run.p95us, 1),
                fmtDouble(run.p99us, 1),
                fmtCount(static_cast<std::uint64_t>(run.qps)),
                fmtPercent(run.cacheHitRate)});
  }
  std::printf("scoreBatch tail latency (per call, writer active):\n%s",
              slo.render().c_str());

  std::ofstream json("BENCH_serve.json");
  json << "{\n";
  json << "  \"bench\": \"serve_throughput\",\n";
  json << "  \"scale\": " << cfg.scale << ",\n";
  json << "  \"duration_ms\": " << duration.count() << ",\n";
  json << "  \"hardware_concurrency\": " << hw << ",\n";
  json << "  \"simd\": \"" << simdLevelName(activeSimdLevel()) << "\",\n";
  json << "  \"mixed_traffic\": [\n";
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    const auto& [readers, run] = mixed[i];
    json << "    {\"readers\": " << readers
         << ", \"scores_per_sec\": " << run.scoresPerSec
         << ", \"publishes\": " << run.publishes
         << ", \"cache_hit_rate\": " << run.cacheHitRate << "}"
         << (i + 1 < mixed.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"batch_latency\": [\n";
  for (std::size_t i = 0; i < latency.size(); ++i) {
    const auto& run = latency[i];
    json << "    {\"batch_size\": " << run.batchSize
         << ", \"calls\": " << run.calls << ", \"p50_us\": " << run.p50us
         << ", \"p95_us\": " << run.p95us << ", \"p99_us\": " << run.p99us
         << ", \"passwords_per_sec\": " << run.qps
         << ", \"cache_hit_rate\": " << run.cacheHitRate << "}"
         << (i + 1 < latency.size() ? "," : "") << "\n";
  }
  json << "  ]\n";
  json << "}\n";
  json.close();
  std::printf("\nwrote BENCH_serve.json\n");
  return 0;
}
