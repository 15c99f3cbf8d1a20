// Multi-tenant registry bench: routed mixed traffic over three tenants
// with deliberately different grammars, written machine-readable to
// ./BENCH_tenants.json (DESIGN.md §15).
//
// The deployment claim behind src/registry is that one process can serve
// many per-service grammars — each the "local leak beats a bigger foreign
// one" story of Table XI — without the tenants interfering: routing is one
// RCU table load, each tenant keeps its own snapshot/cache/update queue,
// and cold tenants page out under a resident-bytes budget. The three
// tenants here pin down the interesting diversity axes:
//
//   zh      Chinese service   (base Tianya,  trained on Dodonew)
//   en      English service   (base Rockyou, trained on Phpbb)
//   policy  policy-constrained (base Tianya, trained on CSDN — the paper's
//           >= 8 chars composition-policy service, so its traffic has a
//           disjoint length profile from the other two)
//
// Section 1 — routed throughput: reader threads score occurrence-weighted
// draws against a randomly chosen tenant while a writer floods update()
// round-robin and periodically compacts one tenant (exercising the busy
// flag against the eviction scan). No budget: all three stay resident.
//
// Section 2 — eviction pressure: the budget is set below two artifacts'
// resident bytes, so at most one tenant fits. Every touch of a cold
// tenant pays a full resume (mmap + route republish); the section times
// those first-touch scores explicitly over evict -> score cycles and
// reports cold-load p50/p95 next to the warm-path p50 for contrast.
//
// Usage: bench_tenant_registry [scale] [duration-ms]
//   scale        fraction of the paper's dataset sizes (bench_common.h)
//   duration-ms  measurement window for section 1 (default 500)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "artifact/artifact.h"
#include "bench_common.h"
#include "core/fuzzy_psm.h"
#include "registry/grammar_registry.h"
#include "stats/rank.h"
#include "util/format.h"
#include "util/rng.h"
#include "util/simd.h"

using namespace fpsm;
namespace fs = std::filesystem;

namespace {

struct Tenant {
  std::string id;
  std::string baseService;
  std::string trainService;
  std::vector<std::string> pool;  ///< occurrence-weighted request draws
};

struct RoutedRun {
  std::uint64_t scores = 0;
  double scoresPerSec = 0.0;
  std::uint64_t compactions = 0;
  GrammarRegistry::Stats stats;
  std::vector<GrammarRegistry::TenantInfo> infos;
};

RoutedRun runRoutedTraffic(GrammarRegistry& registry,
                           const std::vector<Tenant>& tenants,
                           unsigned readerThreads,
                           std::chrono::milliseconds duration) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> totalScores{0};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < readerThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + t);
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const Tenant& tenant = tenants[rng.below(tenants.size())];
        (void)registry.score(tenant.id,
                             tenant.pool[rng.below(tenant.pool.size())]);
        ++local;
      }
      totalScores.fetch_add(local, std::memory_order_relaxed);
    });
  }
  std::atomic<std::uint64_t> compactions{0};
  std::thread writer([&] {
    Rng rng(7777);
    std::uint64_t accepted = 0;
    while (!stop.load(std::memory_order_acquire)) {
      for (int i = 0; i < 8; ++i) {
        const Tenant& tenant = tenants[rng.below(tenants.size())];
        registry.update(tenant.id,
                        tenant.pool[rng.below(tenant.pool.size())], 1);
        ++accepted;
      }
      if (accepted >= 1024) {
        accepted = 0;
        registry.compactTenant(tenants[rng.below(tenants.size())].id);
        compactions.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(duration);
  stop.store(true, std::memory_order_release);
  writer.join();
  for (auto& t : readers) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  RoutedRun run;
  run.scores = totalScores.load();
  run.scoresPerSec = static_cast<double>(run.scores) / secs;
  run.compactions = compactions.load();
  run.stats = registry.stats();
  run.infos = registry.tenants();
  return run;
}

struct EvictionRun {
  std::uint64_t cycles = 0;
  double coldP50us = 0.0;
  double coldP95us = 0.0;
  double warmP50us = 0.0;
  GrammarRegistry::Stats stats;
};

/// Explicit evict -> first-touch cycles against every tenant in turn. The
/// first score after an evict pays the whole cold path (resume from the
/// generation log, route republish); the immediately following score on
/// the same tenant is the warm baseline.
EvictionRun runEvictionPressure(GrammarRegistry& registry,
                                const std::vector<Tenant>& tenants,
                                std::size_t rounds) {
  Rng rng(2024);
  std::vector<double> coldUs;
  std::vector<double> warmUs;
  EvictionRun run;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const Tenant& tenant : tenants) {
      registry.loadTenant(tenant.id);
      if (!registry.evictTenant(tenant.id)) continue;
      const std::string& pw = tenant.pool[rng.below(tenant.pool.size())];
      const auto t0 = std::chrono::steady_clock::now();
      (void)registry.score(tenant.id, pw);
      const auto t1 = std::chrono::steady_clock::now();
      (void)registry.score(tenant.id, pw);
      const auto t2 = std::chrono::steady_clock::now();
      coldUs.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
      warmUs.push_back(
          std::chrono::duration<double, std::micro>(t2 - t1).count());
      ++run.cycles;
    }
  }
  std::sort(coldUs.begin(), coldUs.end());
  std::sort(warmUs.begin(), warmUs.end());
  run.coldP50us = nearestRankPercentile(coldUs, 0.50);
  run.coldP95us = nearestRankPercentile(coldUs, 0.95);
  run.warmP50us = nearestRankPercentile(warmUs, 0.50);
  run.stats = registry.stats();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = bench::defaultConfig(argc, argv);
  auto duration = std::chrono::milliseconds(500);
  if (argc > 2) {
    const long ms = std::atol(argv[2]);
    if (ms > 0) duration = std::chrono::milliseconds(ms);
  }
  bench::printHeader(
      "Multi-tenant registry: routed throughput + eviction pressure", cfg);
  EvalHarness harness(cfg);

  std::vector<Tenant> tenants = {
      {"zh", "Tianya", "Dodonew", {}},
      {"en", "Rockyou", "Phpbb", {}},
      {"policy", "Tianya", "CSDN", {}},
  };

  // One registry root for the whole run; wiped before and after so a
  // repeated invocation never resumes last run's generations.
  const fs::path root = fs::path("BENCH_tenants_registry.tmp");
  fs::remove_all(root);

  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned readers = std::min(4u, std::max(hw, 1u));

  // Section 1: all tenants resident (no budget), routed mixed traffic.
  // Scoped so the registry's destructor flushes every unit and releases
  // the log directories before section 2 reopens the same root — two live
  // registries would mean two OnlineUpdater writers per log.
  RoutedRun routed;
  std::uint64_t largest = 0;
  {
    GrammarRegistryConfig regCfg;
    regCfg.rootDir = root.string();
    GrammarRegistry registry(regCfg);

    for (Tenant& tenant : tenants) {
      FuzzyPsm psm;
      psm.loadBaseDictionary(harness.dataset(tenant.baseService));
      psm.train(harness.dataset(tenant.trainService));
      const std::vector<std::byte> bytes = compileArtifact(psm);
      registry.addTenant(tenant.id, bytes.data(), bytes.size());
      // Occurrence-weighted traffic, Zipf-shaped like real registrations.
      const Dataset& traffic = harness.dataset(tenant.trainService);
      Rng poolRng(42);
      tenant.pool.reserve(2048);
      for (int i = 0; i < 2048; ++i) {
        tenant.pool.emplace_back(traffic.sampleOccurrence(poolRng));
      }
      std::printf("tenant %-7s base %-8s trained %-8s (%s passwords)\n",
                  tenant.id.c_str(), tenant.baseService.c_str(),
                  tenant.trainService.c_str(),
                  fmtCount(psm.trainedPasswords()).c_str());
    }

    std::printf("\nreaders: %u, writer: 1, duration: %lld ms, simd: %s, "
                "hardware threads: %u\n\n",
                readers, static_cast<long long>(duration.count()),
                simdLevelName(activeSimdLevel()), hw);

    routed = runRoutedTraffic(registry, tenants, readers, duration);
    for (const auto& info : routed.infos) {
      largest = std::max(largest, info.residentBytes);
    }
  }
  TextTable table({"Tenant", "Routed scores", "Routed updates", "Cache hit"});
  for (const auto& info : routed.infos) {
    table.addRow({info.id, fmtCount(info.routedScores),
                  fmtCount(info.routedUpdates),
                  fmtPercent(info.cacheHitRate)});
  }
  std::printf("routed mixed traffic (all tenants resident):\n%s",
              table.render().c_str());
  std::printf("total: %s scores -> %s routed scores/sec, %s compactions\n\n",
              fmtCount(routed.scores).c_str(),
              fmtCount(static_cast<std::uint64_t>(routed.scoresPerSec))
                  .c_str(),
              fmtCount(routed.compactions).c_str());

  // Section 2: fresh registry over the same root with a budget that fits
  // only the largest single tenant, so every round trips the cold path.
  EvictionRun evicted;
  {
    GrammarRegistryConfig tightCfg;
    tightCfg.rootDir = root.string();
    tightCfg.residentBytesBudget = largest + largest / 2;
    GrammarRegistry tight(tightCfg);
    evicted = runEvictionPressure(tight, tenants, 8);
  }
  std::printf("eviction pressure (budget %s bytes, %llu evict->score "
              "cycles):\n",
              fmtCount(largest + largest / 2).c_str(),
              static_cast<unsigned long long>(evicted.cycles));
  std::printf("  cold first score: p50 %.1f us, p95 %.1f us "
              "(resume from log + republish)\n",
              evicted.coldP50us, evicted.coldP95us);
  std::printf("  warm next score:  p50 %.1f us\n", evicted.warmP50us);
  std::printf("  registry: %llu cold loads, %llu evictions (%llu flushed)\n",
              static_cast<unsigned long long>(evicted.stats.coldLoads),
              static_cast<unsigned long long>(evicted.stats.evictions),
              static_cast<unsigned long long>(evicted.stats.evictFlushes));

  std::ofstream json("BENCH_tenants.json");
  json << "{\n";
  json << "  \"bench\": \"tenant_registry\",\n";
  json << "  \"scale\": " << cfg.scale << ",\n";
  json << "  \"duration_ms\": " << duration.count() << ",\n";
  json << "  \"hardware_concurrency\": " << hw << ",\n";
  json << "  \"readers\": " << readers << ",\n";
  json << "  \"simd\": \"" << simdLevelName(activeSimdLevel()) << "\",\n";
  json << "  \"routed\": {\n";
  json << "    \"scores\": " << routed.scores << ",\n";
  json << "    \"scores_per_sec\": " << routed.scoresPerSec << ",\n";
  json << "    \"compactions\": " << routed.compactions << ",\n";
  json << "    \"per_tenant\": [\n";
  for (std::size_t i = 0; i < routed.infos.size(); ++i) {
    const auto& info = routed.infos[i];
    json << "      {\"tenant\": \"" << info.id
         << "\", \"routed_scores\": " << info.routedScores
         << ", \"routed_updates\": " << info.routedUpdates
         << ", \"cache_hit_rate\": " << info.cacheHitRate << "}"
         << (i + 1 < routed.infos.size() ? "," : "") << "\n";
  }
  json << "    ]\n";
  json << "  },\n";
  json << "  \"eviction\": {\n";
  json << "    \"budget_bytes\": " << (largest + largest / 2) << ",\n";
  json << "    \"cycles\": " << evicted.cycles << ",\n";
  json << "    \"cold_p50_us\": " << evicted.coldP50us << ",\n";
  json << "    \"cold_p95_us\": " << evicted.coldP95us << ",\n";
  json << "    \"warm_p50_us\": " << evicted.warmP50us << ",\n";
  json << "    \"cold_loads\": " << evicted.stats.coldLoads << ",\n";
  json << "    \"evictions\": " << evicted.stats.evictions << ",\n";
  json << "    \"evict_flushes\": " << evicted.stats.evictFlushes << "\n";
  json << "  }\n";
  json << "}\n";
  json.close();
  std::printf("\nwrote BENCH_tenants.json\n");
  fs::remove_all(root);
  return 0;
}
