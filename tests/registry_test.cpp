// Multi-tenant registry battery (src/registry). Carries the ctest label
// "registry"; the evict/reload stress test is its TSan target
// (`ctest --preset tsan -L registry`).
//
// What is pinned here:
//   * the differential contract — a tenant served through GrammarRegistry
//     scores bit-identically to a standalone TenantMeter over the same
//     artifact bytes, for three tenants with deliberately distinct
//     grammars, including after an evict→reload cycle and after an
//     online-update compaction (oracle: an OnlineUpdater driven with the
//     identical update schedule in its own directory);
//   * LRU eviction under a resident-bytes budget — least-recently-touched
//     loses, pinned tenants are exempt, a just-loaded tenant cannot evict
//     itself, and a sole over-budget tenant still serves (soft budget);
//   * flush-on-evict — pending accepted updates compact into a final
//     generation before the unit drops, so eviction loses nothing;
//   * the compaction bar — a tenant with a compaction in flight (busy)
//     refuses eviction until the cycle completes;
//   * no serving gap — readers hammering score()/scoreBatch() while
//     another thread evicts and reloads the same tenants always get
//     bit-exact scores from one consistent snapshot;
//   * the accept boundary — an update whose count exceeds 2^32 throws,
//     publishes nothing and is not counted as routed traffic;
//   * the registration gate — addTenant runs the trust gate before the
//     append, so a rejected grammar leaves no directory and no id taken.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/grammar_lint.h"
#include "artifact/artifact.h"
#include "compiled_grammar.h"
#include "core/fuzzy_psm.h"
#include "online/online_updater.h"
#include "registry/grammar_registry.h"
#include "serve/tenant_meter.h"
#include "util/error.h"

namespace fs = std::filesystem;

namespace fpsm {
namespace {

// --------------------------------------------------------------- helpers

/// Fresh scratch directory per test (removed up front so reruns are clean).
std::string scratchDir(const char* name) {
  const std::string dir = testing::TempDir() + "registry_test_" + name;
  fs::remove_all(dir);
  return dir;
}

/// Three deliberately distinct grammars, one per diversity axis the
/// registry exists for: different base dictionaries AND different trained
/// mass, so at least one probe scores differently under every pair.
FuzzyPsm tenantGrammar(int variant) {
  FuzzyPsm psm;
  switch (variant) {
    case 0:  // "zh": digit-heavy traffic, short mangled words
      for (const char* w : {"wang", "li", "zhang", "woaini", "dragon"}) {
        psm.addBaseWord(w);
      }
      psm.update("woaini1314", 30);
      psm.update("wang123", 12);
      psm.update("123456", 40);
      psm.update("li4567", 6);
      psm.update("zhang88", 9);
      break;
    case 1:  // "en": word+suffix traffic
      for (const char* w :
           {"password", "monkey", "letmein", "qwerty", "iloveyou"}) {
        psm.addBaseWord(w);
      }
      psm.update("password1", 25);
      psm.update("monkey!", 7);
      psm.update("letmein99", 5);
      psm.update("qwerty12", 14);
      psm.update("iloveyou2", 8);
      break;
    default:  // "policy": >= 8 chars, mixed-class traffic
      for (const char* w : {"sunshine", "princess", "computer", "superman"}) {
        psm.addBaseWord(w);
      }
      psm.update("Sunshine12", 18);
      psm.update("Pr1ncess!", 6);
      psm.update("computer99", 11);
      psm.update("Superman#1", 4);
      break;
  }
  return psm;
}

/// Probe set every tenant can score (fallback structures cover the rest).
const std::vector<std::string>& probes() {
  static const std::vector<std::string> kProbes = {
      "woaini1314", "wang123",    "123456",    "password1",  "monkey!",
      "qwerty12",   "Sunshine12", "Pr1ncess!", "computer99", "zzzzzz99",
      "Dragon123",  "tyxdqd123",
  };
  return kProbes;
}

std::vector<std::byte> tenantArtifact(int variant) {
  return compileArtifact(tenantGrammar(variant));
}

/// Registers `psm` under `tenant` as the bytes it compiles to.
void addCompiled(GrammarRegistry& registry, const std::string& tenant,
                 const FuzzyPsm& psm) {
  const std::vector<std::byte> bytes = compileArtifact(psm);
  registry.addTenant(tenant, bytes.data(), bytes.size());
}

/// Standalone single-grammar oracle over the exact same artifact bytes.
std::unique_ptr<MeterService> standaloneService(
    const std::vector<std::byte>& bytes) {
  return std::make_unique<MeterService>(
      GrammarArtifact::fromBytes(std::vector<std::byte>(bytes)));
}

/// Bits for every probe through `score`, in probe order.
template <typename ScoreFn>
std::vector<double> probeBits(ScoreFn&& score) {
  std::vector<double> bits;
  bits.reserve(probes().size());
  for (const auto& p : probes()) bits.push_back(score(p));
  return bits;
}

// ------------------------------------------- tenant ids and registration

TEST(GrammarRegistryTest, ValidTenantIdRules) {
  EXPECT_TRUE(GrammarRegistry::validTenantId("acme"));
  EXPECT_TRUE(GrammarRegistry::validTenantId("site-7.prod_eu"));
  EXPECT_TRUE(GrammarRegistry::validTenantId(std::string(64, 'a')));
  EXPECT_FALSE(GrammarRegistry::validTenantId(""));
  EXPECT_FALSE(GrammarRegistry::validTenantId(std::string(65, 'a')));
  EXPECT_FALSE(GrammarRegistry::validTenantId(".hidden"));
  EXPECT_FALSE(GrammarRegistry::validTenantId(".."));
  EXPECT_FALSE(GrammarRegistry::validTenantId("a/b"));
  EXPECT_FALSE(GrammarRegistry::validTenantId("a b"));
  EXPECT_FALSE(GrammarRegistry::validTenantId("caf\xc3\xa9"));
}

TEST(GrammarRegistryTest, AddTenantValidatesAndRejectsDuplicates) {
  GrammarRegistryConfig cfg;
  cfg.rootDir = scratchDir("add");
  GrammarRegistry registry(cfg);

  const auto bytes = tenantArtifact(0);
  registry.addTenant("acme", bytes.data(), bytes.size());
  EXPECT_THROW(registry.addTenant("acme", bytes.data(), bytes.size()),
               InvalidArgument);
  EXPECT_THROW(registry.addTenant("bad/id", bytes.data(), bytes.size()),
               InvalidArgument);
  // Garbage bytes are rejected before anything touches disk.
  const std::vector<std::byte> junk(64, std::byte{0x5a});
  EXPECT_THROW(registry.addTenant("junk", junk.data(), junk.size()), Error);
  EXPECT_FALSE(fs::exists(cfg.rootDir + "/junk"));

  EXPECT_EQ(registry.tenantIds(), std::vector<std::string>{"acme"});
}

// addTenant runs OnlineUpdater's trust gate before the append, so a
// grammar the gate rejects never becomes a tenant whose cold loads fail.
TEST(GrammarRegistryTest, AddTenantRunsTheTrustGateBeforeTheAppend) {
  GrammarRegistryConfig cfg;
  cfg.rootDir = scratchDir("addgate");
  GrammarRegistry registry(cfg);

  // A dangling B77 B77 structure survives compilation and byte validation;
  // only the lint rejects it.
  FuzzyPsm bad = tenantGrammar(0);
  GrammarCounts dangling;
  dangling.addParse(FuzzyParse{{}, "B77B77"}, 2, false);
  bad.absorbCounts(dangling);
  try {
    addCompiled(registry, "acme", bad);
    FAIL() << "expected GrammarLintError";
  } catch (const GrammarLintError& e) {
    EXPECT_TRUE(e.report().has(LintCode::DanglingSegmentRef))
        << e.report().render();
  }
  EXPECT_FALSE(fs::exists(cfg.rootDir + "/acme"));
  EXPECT_TRUE(registry.tenantIds().empty());

  // The id is still free: a clean grammar registers under it and serves.
  const auto bytes = tenantArtifact(0);
  registry.addTenant("acme", bytes.data(), bytes.size());
  EXPECT_EQ(registry.tenantIds(), std::vector<std::string>{"acme"});
  EXPECT_EQ(registry.score("acme", "woaini1314").bits,
            standaloneService(bytes)->score("woaini1314").bits);

  // The tenant config's acceptance policy is part of the gate.
  GrammarRegistryConfig strictCfg;
  strictCfg.rootDir = scratchDir("addgate_policy");
  strictCfg.tenantConfig.publishGate = [](const FlatGrammarView&) {
    LintReport report;
    report.add(LintCode::DanglingSegmentRef, LintSeverity::Error, "policy",
               "rejected by test acceptance policy");
    throw GrammarLintError(std::move(report));
  };
  GrammarRegistry strict(strictCfg);
  EXPECT_THROW(strict.addTenant("acme", bytes.data(), bytes.size()),
               GrammarLintError);
  EXPECT_FALSE(fs::exists(strictCfg.rootDir + "/acme"));
  EXPECT_TRUE(strict.tenantIds().empty());
}

TEST(GrammarRegistryTest, UnknownTenantThrowsTypedErrorAndCounts) {
  GrammarRegistryConfig cfg;
  cfg.rootDir = scratchDir("unknown");
  GrammarRegistry registry(cfg);

  try {
    registry.score("ghost", "password1");
    FAIL() << "expected UnknownTenantError";
  } catch (const UnknownTenantError& e) {
    EXPECT_EQ(e.tenant(), "ghost");
  }
  EXPECT_THROW(registry.update("ghost", "password1"), UnknownTenantError);
  EXPECT_THROW(registry.pinTenant("ghost", true), UnknownTenantError);
  EXPECT_EQ(registry.stats().unknownTenant, 3u);
}

TEST(GrammarRegistryTest, ReopensExistingRootAndResumesTenants) {
  GrammarRegistryConfig cfg;
  cfg.rootDir = scratchDir("reopen");
  const auto bytes0 = tenantArtifact(0);
  const auto bytes1 = tenantArtifact(1);
  {
    GrammarRegistry registry(cfg);
    registry.addTenant("zh", bytes0.data(), bytes0.size());
    registry.addTenant("en", bytes1.data(), bytes1.size());
  }
  GrammarRegistry reopened(cfg);
  EXPECT_EQ(reopened.tenantIds(), (std::vector<std::string>{"en", "zh"}));
  EXPECT_FALSE(reopened.resident("zh"));

  // First touch cold-loads via the tenant's own log.
  const auto oracle = standaloneService(bytes0);
  EXPECT_EQ(reopened.score("zh", "woaini1314").bits,
            oracle->score("woaini1314").bits);
  EXPECT_TRUE(reopened.resident("zh"));
  EXPECT_EQ(reopened.stats().coldLoads, 1u);
}

// ------------------------------------------------- differential contract

TEST(GrammarRegistryTest, ScoresBitIdenticalToStandaloneServicePerTenant) {
  GrammarRegistryConfig cfg;
  cfg.rootDir = scratchDir("differential");
  GrammarRegistry registry(cfg);

  const std::vector<std::string> ids = {"zh", "en", "policy"};
  std::vector<std::vector<double>> referenceBits;
  for (int v = 0; v < 3; ++v) {
    const auto bytes = tenantArtifact(v);
    registry.addTenant(ids[v], bytes.data(), bytes.size());
    const auto oracle = standaloneService(bytes);
    referenceBits.push_back(
        probeBits([&](const std::string& p) { return oracle->score(p).bits; }));
  }

  // The grammars must actually be distinct, or the differential proves
  // nothing about routing.
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) {
      EXPECT_NE(referenceBits[a], referenceBits[b])
          << ids[a] << " and " << ids[b] << " trained identical grammars";
    }
  }

  for (int v = 0; v < 3; ++v) {
    const auto viaRegistry = probeBits(
        [&](const std::string& p) { return registry.score(ids[v], p).bits; });
    EXPECT_EQ(viaRegistry, referenceBits[v]) << "tenant " << ids[v];

    // Batch path: same contract, one consistent snapshot.
    const auto batch = registry.scoreBatch(ids[v], probes());
    ASSERT_EQ(batch.size(), probes().size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].bits, referenceBits[v][i]) << "tenant " << ids[v];
      EXPECT_EQ(batch[i].generation, batch[0].generation);
    }
  }
  EXPECT_EQ(registry.stats().resident, 3u);
}

TEST(GrammarRegistryTest, DifferentialHoldsAfterEvictReloadAndCompaction) {
  GrammarRegistryConfig cfg;
  cfg.rootDir = scratchDir("differential_evolve");
  GrammarRegistry registry(cfg);

  const std::vector<std::string> ids = {"zh", "en", "policy"};
  // Per-tenant oracle: an OnlineUpdater in its own directory, bootstrapped
  // from the same trained grammar, driven with the identical update
  // schedule. The online-vs-batch contract makes its generations
  // byte-identical to the registry unit's, so scores must match exactly.
  std::vector<std::unique_ptr<OnlineUpdater>> oracles;
  for (int v = 0; v < 3; ++v) {
    const FuzzyPsm trained = tenantGrammar(v);
    addCompiled(registry, ids[v], trained);
    oracles.push_back(test_grammar::bootstrapped(
        trained, scratchDir(("oracle_" + ids[v]).c_str())));
  }

  const auto updateSchedule = [](int v) {
    std::vector<std::pair<std::string, std::uint64_t>> schedule = {
        {"newtrend" + std::to_string(v), 5 + static_cast<std::uint64_t>(v)},
        {probes()[static_cast<std::size_t>(v)], 3},
        {"zzzzzz99", 2},
    };
    return schedule;
  };

  for (int v = 0; v < 3; ++v) {
    for (const auto& [pw, n] : updateSchedule(v)) {
      registry.update(ids[v], pw, n);
      oracles[static_cast<std::size_t>(v)]->accept(pw, n);
    }
    const auto result = registry.compactTenant(ids[v]);
    EXPECT_TRUE(result.published) << result.rejection;
    const auto oracleResult = oracles[static_cast<std::size_t>(v)]->compactNow();
    EXPECT_TRUE(oracleResult.published) << oracleResult.rejection;
    EXPECT_EQ(result.sequence, oracleResult.sequence);
  }

  // After compaction: registry scores == oracle scores, bit for bit.
  for (int v = 0; v < 3; ++v) {
    const auto expected = probeBits([&](const std::string& p) {
      return oracles[static_cast<std::size_t>(v)]->service().score(p).bits;
    });
    const auto actual = probeBits(
        [&](const std::string& p) { return registry.score(ids[v], p).bits; });
    EXPECT_EQ(actual, expected) << "tenant " << ids[v] << " after compaction";
  }

  // After evict -> reload: the unit resumes from its newest generation and
  // must still match the (never-evicted) oracle exactly.
  for (int v = 0; v < 3; ++v) {
    ASSERT_TRUE(registry.evictTenant(ids[v]));
    EXPECT_FALSE(registry.resident(ids[v]));
    const auto expected = probeBits([&](const std::string& p) {
      return oracles[static_cast<std::size_t>(v)]->service().score(p).bits;
    });
    const auto actual = probeBits(
        [&](const std::string& p) { return registry.score(ids[v], p).bits; });
    EXPECT_EQ(actual, expected)
        << "tenant " << ids[v] << " after evict -> reload";
    const auto batch = registry.scoreBatch(ids[v], probes());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].bits, expected[i]);
    }
  }
}

// --------------------------------------------------- budget and eviction

TEST(GrammarRegistryTest, LruEvictionRespectsBudgetPinningAndSelfExemption) {
  const auto bytes0 = tenantArtifact(0);
  const auto bytes1 = tenantArtifact(1);
  const auto bytes2 = tenantArtifact(2);
  const std::uint64_t largest =
      std::max({GrammarArtifact::fromBytes(std::vector<std::byte>(bytes0))
                    ->sizeBytes(),
                GrammarArtifact::fromBytes(std::vector<std::byte>(bytes1))
                    ->sizeBytes(),
                GrammarArtifact::fromBytes(std::vector<std::byte>(bytes2))
                    ->sizeBytes()});

  GrammarRegistryConfig cfg;
  cfg.rootDir = scratchDir("budget");
  cfg.residentBytesBudget = largest + largest / 4;  // fits exactly one
  GrammarRegistry registry(cfg);
  registry.addTenant("a", bytes0.data(), bytes0.size());
  registry.addTenant("b", bytes1.data(), bytes1.size());
  registry.addTenant("c", bytes2.data(), bytes2.size());

  // Touch order a, b, c: every new load evicts the previous sole tenant.
  (void)registry.score("a", "123456");
  EXPECT_TRUE(registry.resident("a"));
  (void)registry.score("b", "123456");
  EXPECT_FALSE(registry.resident("a"));
  EXPECT_TRUE(registry.resident("b"));
  (void)registry.score("c", "123456");
  EXPECT_FALSE(registry.resident("b"));
  EXPECT_TRUE(registry.resident("c"));
  EXPECT_EQ(registry.stats().evictions, 2u);
  EXPECT_LE(registry.residentBytes(), cfg.residentBytesBudget);

  // Reload of a evicts c (LRU), and a load never evicts itself.
  (void)registry.score("a", "123456");
  EXPECT_TRUE(registry.resident("a"));
  EXPECT_FALSE(registry.resident("c"));

  // Pinned tenants are exempt from budget eviction: loading b with a
  // pinned leaves both resident (soft budget) rather than evicting a.
  registry.pinTenant("a", true);
  (void)registry.score("b", "123456");
  EXPECT_TRUE(registry.resident("a"));
  EXPECT_TRUE(registry.resident("b"));
  EXPECT_GT(registry.residentBytes(), cfg.residentBytesBudget);

  // Explicit eviction refuses pinned tenants, then works once unpinned.
  EXPECT_FALSE(registry.evictTenant("a"));
  registry.pinTenant("a", false);
  EXPECT_TRUE(registry.evictTenant("a"));
  EXPECT_FALSE(registry.evictTenant("a"));  // already cold
}

TEST(GrammarRegistryTest, EvictionFlushesPendingUpdatesToTheLog) {
  GrammarRegistryConfig cfg;
  cfg.rootDir = scratchDir("flush");
  GrammarRegistry registry(cfg);
  const FuzzyPsm trained = tenantGrammar(1);
  addCompiled(registry, "en", trained);

  // Oracle: same grammar, same single update, explicit compaction.
  const auto oracle =
      test_grammar::bootstrapped(trained, scratchDir("flush_oracle"));
  registry.update("en", "freshword9", 4);
  oracle->accept("freshword9", 4);
  ASSERT_TRUE(oracle->compactNow().published);

  // Evict with pending updates: flushOnEvict compacts first, so the log
  // gains a generation and nothing accepted is lost.
  ASSERT_TRUE(registry.evictTenant("en"));
  EXPECT_EQ(registry.stats().evictFlushes, 1u);
  const auto infos = registry.tenants();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].logGenerations, 2u);  // bootstrap + flushed delta

  // The reloaded unit serves the flushed generation: identical to the
  // oracle that compacted the same update explicitly.
  EXPECT_EQ(registry.score("en", "freshword9").bits,
            oracle->service().score("freshword9").bits);
  EXPECT_EQ(registry.score("en", "password1").bits,
            oracle->service().score("password1").bits);
}

TEST(GrammarRegistryTest, CompactionInFlightBarsEviction) {
  std::atomic<bool> armed{false};
  std::atomic<bool> inGate{false};
  std::mutex gateMutex;
  std::condition_variable gateCv;
  bool release = false;

  GrammarRegistryConfig cfg;
  cfg.rootDir = scratchDir("busy");
  // The publish gate runs inside compactNow() while the registry marks
  // the tenant busy; blocking it holds the compaction (and the bar) open.
  cfg.tenantConfig.publishGate = [&](const FlatGrammarView&) {
    if (!armed.load()) return;  // resume-path invocations pass through
    inGate.store(true);
    std::unique_lock<std::mutex> lock(gateMutex);
    gateCv.wait(lock, [&] { return release; });
  };
  GrammarRegistry registry(cfg);
  addCompiled(registry, "acme", tenantGrammar(0));
  registry.loadTenant("acme");
  registry.update("acme", "newtrend1", 3);

  armed.store(true);
  std::thread compactor([&] {
    const auto result = registry.compactTenant("acme");
    EXPECT_TRUE(result.published) << result.rejection;
  });
  while (!inGate.load()) std::this_thread::yield();

  // Busy tenant: explicit eviction must refuse.
  EXPECT_FALSE(registry.evictTenant("acme"));
  EXPECT_TRUE(registry.resident("acme"));

  {
    std::lock_guard<std::mutex> lock(gateMutex);
    release = true;
  }
  gateCv.notify_all();
  compactor.join();
  armed.store(false);

  // Compaction done: the bar lifts.
  EXPECT_TRUE(registry.evictTenant("acme"));
}

// ------------------------------------------------------ concurrency (TSan)

TEST(GrammarRegistryTest, ConcurrentEvictReloadNeverGapsOrMixesTenants) {
  GrammarRegistryConfig cfg;
  cfg.rootDir = scratchDir("stress");
  GrammarRegistry registry(cfg);

  const std::vector<std::string> ids = {"zh", "en"};
  std::vector<std::vector<double>> referenceBits;
  for (int v = 0; v < 2; ++v) {
    const auto bytes = tenantArtifact(v);
    registry.addTenant(ids[static_cast<std::size_t>(v)], bytes.data(),
                       bytes.size());
    const auto oracle = standaloneService(bytes);
    referenceBits.push_back(
        probeBits([&](const std::string& p) { return oracle->score(p).bits; }));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checked{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::size_t turn = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t v = turn++ % ids.size();
        // Single-score path: bit-exact against the standalone reference —
        // a serving gap, a stale unit, or cross-tenant routing would all
        // break exact equality.
        const auto one = registry.score(ids[v], probes()[turn % 3]);
        ASSERT_EQ(one.bits, referenceBits[v][turn % 3]);
        // Batch path: one consistent snapshot, every score bit-exact.
        const auto batch = registry.scoreBatch(ids[v], probes());
        ASSERT_EQ(batch.size(), probes().size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
          ASSERT_EQ(batch[i].bits, referenceBits[v][i]);
          ASSERT_EQ(batch[i].generation, batch[0].generation);
        }
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::thread churn([&] {
    std::size_t turn = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto& id = ids[turn++ % ids.size()];
      (void)registry.evictTenant(id);
      registry.loadTenant(id);
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true, std::memory_order_release);
  churn.join();
  for (auto& t : readers) t.join();

  EXPECT_GT(checked.load(), 0u);
  EXPECT_GT(registry.stats().coldLoads, 2u);
  // Both tenants still serve correctly after the churn settles.
  for (std::size_t v = 0; v < 2; ++v) {
    const auto bits = probeBits(
        [&](const std::string& p) { return registry.score(ids[v], p).bits; });
    EXPECT_EQ(bits, referenceBits[v]);
  }
}

// ----------------------------------------------------------- observability

TEST(GrammarRegistryTest, TenantInfoAndStatsReportTraffic) {
  GrammarRegistryConfig cfg;
  cfg.rootDir = scratchDir("info");
  GrammarRegistry registry(cfg);
  addCompiled(registry, "zh", tenantGrammar(0));
  addCompiled(registry, "en", tenantGrammar(1));

  (void)registry.score("zh", "woaini1314");
  (void)registry.score("zh", "woaini1314");  // second hit -> cache
  (void)registry.scoreBatch("en", probes());
  registry.update("en", "password1", 2);

  const auto infos = registry.tenants();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].id, "en");
  EXPECT_EQ(infos[1].id, "zh");
  EXPECT_TRUE(infos[0].resident);
  EXPECT_TRUE(infos[1].resident);
  // Counters are per password / per occurrence, not per call.
  EXPECT_EQ(infos[0].routedScores, probes().size());
  EXPECT_EQ(infos[0].routedUpdates, 2u);
  EXPECT_EQ(infos[1].routedScores, 2u);
  EXPECT_EQ(infos[1].coldLoads, 1u);
  EXPECT_GT(infos[1].residentBytes, 0u);
  EXPECT_EQ(infos[1].logGenerations, 1u);
  EXPECT_GT(infos[1].cacheHitRate, 0.0);
  EXPECT_GT(infos[1].lastTouch, 0u);

  const auto stats = registry.stats();
  EXPECT_EQ(stats.tenants, 2u);
  EXPECT_EQ(stats.resident, 2u);
  EXPECT_EQ(stats.routedScores, 2u + probes().size());
  EXPECT_EQ(stats.routedUpdates, 2u);
  EXPECT_EQ(stats.coldLoads, 2u);
  EXPECT_EQ(stats.residentBytes, registry.residentBytes());
}

TEST(GrammarRegistryTest, OversizedUpdateCountsAreRejectedAndNotCounted) {
  GrammarRegistryConfig cfg;
  cfg.rootDir = scratchDir("countbound");
  GrammarRegistry registry(cfg);
  addCompiled(registry, "zh", tenantGrammar(0));
  const auto before = registry.score("zh", "123456");

  // Folded, these two counts would dwarf the trained corpus and move the
  // most common password from weak to strong. accept() bounds n at 2^32,
  // so both calls throw before anything is queued or counted, and so does
  // a malformed password.
  EXPECT_THROW(registry.update("zh", "abc", std::uint64_t{1} << 63),
               InvalidArgument);
  EXPECT_THROW(registry.update("zh", "xyz", std::uint64_t{1} << 62),
               InvalidArgument);
  EXPECT_THROW(registry.update("zh", "", 1), InvalidArgument);
  const auto result = registry.compactTenant("zh");
  EXPECT_FALSE(result.published);
  EXPECT_EQ(result.folded, 0u);

  const auto after = registry.score("zh", "123456");
  EXPECT_EQ(after.generation, before.generation);
  EXPECT_EQ(after.bits, before.bits);
  EXPECT_EQ(registry.stats().routedUpdates, 0u);
  const auto infos = registry.tenants();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].routedUpdates, 0u);
  EXPECT_EQ(infos[0].logGenerations, 1u);
}

}  // namespace
}  // namespace fpsm
