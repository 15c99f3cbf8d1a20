// Concurrency suite for the serving layer (src/serve).
//
// The stress tests here are the targets of the Sanitize build
// (-fsanitize=thread); they carry the ctest label "concurrency" so
// sanitizer runs can select exactly them:
//   ctest -L concurrency --output-on-failure
//
// Core invariant under test: every score a reader observes was computed
// against exactly one published snapshot — the one named by the reported
// generation — and matches a single-threaded oracle replay of the update
// schedule up to that generation. Torn reads, a publish landing out of
// order, or a cache entry surviving a publish would all break the
// exact-equality check.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "artifact/artifact.h"
#include "compiled_grammar.h"
#include "core/fuzzy_psm.h"
#include "serve/grammar_snapshot.h"
#include "serve/score_cache.h"
#include "serve/tenant_meter.h"
#include "serve/update_queue.h"
#include "util/error.h"

namespace fpsm {
namespace {

FuzzyPsm seedGrammar() {
  FuzzyPsm psm;
  for (const char* w :
       {"password", "p@ssword", "123456", "dragon", "letmein", "monkey",
        "qwerty", "iloveyou"}) {
    psm.addBaseWord(w);
  }
  psm.update("password1", 20);
  psm.update("P@ssw0rd", 5);
  psm.update("dragon123", 8);
  psm.update("123456", 30);
  psm.update("letmein99", 4);
  psm.update("tyxdqd123", 2);  // PCFG-fallback structure
  psm.update("Monkey2020", 3);
  return psm;
}

std::shared_ptr<const GrammarArtifact> artifactOf(const FuzzyPsm& psm) {
  return GrammarArtifact::fromBytes(compileArtifact(psm));
}

const std::vector<std::string>& probes() {
  static const std::vector<std::string> kProbes = {
      "password1", "P@ssw0rd",  "dragon123", "123456",   "letmein99",
      "tyxdqd123", "Monkey2020", "qwerty12",  "iloveyou", "p4ssword1",
      "Dragon123", "zzzzzz",
  };
  return kProbes;
}

/// One deterministic update batch per generation-to-be.
std::vector<UpdateQueue::Batch> updateSchedule(std::size_t batches) {
  std::vector<UpdateQueue::Batch> schedule;
  schedule.reserve(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    UpdateQueue::Batch batch;
    batch.emplace_back("password1", 1 + b % 3);
    batch.emplace_back("qwerty12", 1);
    if (b % 2 == 0) batch.emplace_back("iloveyou", 2);
    if (b % 3 == 0) batch.emplace_back("Dragon123", 1);
    if (b % 5 == 0) batch.emplace_back("zzzzzz", 1);
    schedule.push_back(std::move(batch));
  }
  return schedule;
}

/// The schedule replayed single-threaded through the paper's update phase:
/// artifacts[g] is the grammar after batches [0, g), and oracle[g][p] the
/// strengthBits of probe p under it.
struct Replay {
  std::vector<std::shared_ptr<const GrammarArtifact>> artifacts;
  std::vector<std::vector<double>> oracle;
};

Replay replaySchedule(const std::vector<UpdateQueue::Batch>& schedule) {
  FuzzyPsm replica = seedGrammar();
  Replay replay;
  auto record = [&] {
    replay.artifacts.push_back(artifactOf(replica));
    const FlatGrammarView& grammar = replay.artifacts.back()->grammar();
    std::vector<double> bits;
    bits.reserve(probes().size());
    for (const auto& p : probes()) bits.push_back(grammar.strengthBits(p));
    replay.oracle.push_back(std::move(bits));
  };
  record();  // generation 0
  for (const auto& batch : schedule) {
    for (const auto& [pw, n] : batch) replica.update(pw, n);
    record();
  }
  return replay;
}

// ------------------------------------------------------------ ScoreCache

TEST(ScoreCacheTest, InsertLookupAndLru) {
  ScoreCache cache(2, 1);  // single shard, capacity 2: deterministic LRU
  EXPECT_FALSE(cache.lookup(1, "a").has_value());
  cache.insert(1, "a", 10.0);
  cache.insert(1, "b", 20.0);
  ASSERT_TRUE(cache.lookup(1, "a").has_value());  // refreshes "a"
  cache.insert(1, "c", 30.0);                     // evicts LRU = "b"
  EXPECT_FALSE(cache.lookup(1, "b").has_value());
  EXPECT_EQ(cache.lookup(1, "a"), 10.0);
  EXPECT_EQ(cache.lookup(1, "c"), 30.0);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ScoreCacheTest, StaleGenerationIsNeverServed) {
  ScoreCache cache(8, 1);
  cache.insert(1, "pw", 42.0);
  EXPECT_EQ(cache.lookup(1, "pw"), 42.0);
  // A publish bumped the generation: the old entry must not be served,
  // and must be evicted so it cannot linger.
  EXPECT_FALSE(cache.lookup(2, "pw").has_value());
  EXPECT_FALSE(cache.lookup(1, "pw").has_value());  // gone, not resurrected
  EXPECT_EQ(cache.stats().staleEvictions, 1u);
}

TEST(ScoreCacheTest, OverwriteMovesEntryToNewGeneration) {
  ScoreCache cache(8, 1);
  cache.insert(1, "pw", 42.0);
  cache.insert(2, "pw", 43.0);
  EXPECT_EQ(cache.lookup(2, "pw"), 43.0);
  EXPECT_EQ(cache.size(), 1u);
  // A lookup under the old generation misses — and evicts.
  EXPECT_FALSE(cache.lookup(1, "pw").has_value());
  EXPECT_FALSE(cache.lookup(2, "pw").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

// Eviction accounting under contention: every insert and every capacity
// eviction is counted in the same critical section as the list mutation
// it describes, so once the writers are joined the books must balance
// EXACTLY — inserts minus evictions equals resident entries. A counter
// bumped outside the shard lock (the accounting bug this test pins down)
// drifts under exactly this workload: distinct keys, all shards, heavy
// capacity pressure.
TEST(ScoreCacheTest, ConcurrentInsertsBalanceEvictionCounters) {
  ScoreCache cache(64, 8);
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 2000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&cache, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        cache.insert(1, "pw-" + std::to_string(t) + "-" + std::to_string(i),
                     static_cast<double>(i));
      }
    });
  }
  for (auto& w : writers) w.join();

  const ScoreCache::Stats stats = cache.stats();
  // Distinct keys and one generation: no overwrites, no stale evictions.
  EXPECT_EQ(stats.inserts, static_cast<std::uint64_t>(kThreads) *
                               kKeysPerThread);
  EXPECT_EQ(stats.staleEvictions, 0u);
  EXPECT_EQ(stats.inserts - stats.capacityEvictions,
            static_cast<std::uint64_t>(cache.size()));
  // Capacity 64 over 8 shards: every shard is saturated by this workload,
  // so the resident count is exactly the configured capacity.
  EXPECT_EQ(cache.size(), 64u);
}

// ------------------------------------------------------------ UpdateQueue

TEST(UpdateQueueTest, CoalescesCountsPerPassword) {
  UpdateQueue q;
  q.push("a", 2);
  q.push("b", 1);
  q.push("a", 3);
  q.push("zero-count", 0);  // ignored
  EXPECT_EQ(q.pendingDistinct(), 2u);
  EXPECT_EQ(q.pendingTotal(), 6u);
  auto batch = q.drain();
  ASSERT_EQ(batch.size(), 2u);
  std::uint64_t aCount = 0, bCount = 0;
  for (const auto& [pw, n] : batch) {
    if (pw == "a") aCount = n;
    if (pw == "b") bCount = n;
  }
  EXPECT_EQ(aCount, 5u);
  EXPECT_EQ(bCount, 1u);
  EXPECT_EQ(q.pendingTotal(), 0u);
  EXPECT_TRUE(q.drain().empty());
}

TEST(UpdateQueueTest, OverflowingPushThrowsInsteadOfWrapping) {
  UpdateQueue q;
  const std::uint64_t half = std::uint64_t{1} << 63;
  q.push("pw", half);
  // Coalesced, 2^63 + 2^63 would wrap to 0.
  EXPECT_THROW(q.push("pw", half), InvalidArgument);
  EXPECT_EQ(q.pendingTotal(), half);
  const auto batch = q.drain();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].second, half);
}

TEST(UpdateQueueTest, ConcurrentPushesLoseNothing) {
  UpdateQueue q;
  constexpr int kThreads = 4;
  constexpr int kPushes = 2000;
  std::vector<std::thread> pushers;
  for (int t = 0; t < kThreads; ++t) {
    pushers.emplace_back([&q, t] {
      for (int i = 0; i < kPushes; ++i) {
        q.push("pw" + std::to_string(i % 7), 1);
        q.push("shared", 1);
        (void)t;
      }
    });
  }
  for (auto& t : pushers) t.join();
  EXPECT_EQ(q.pendingTotal(),
            static_cast<std::uint64_t>(kThreads) * kPushes * 2);
  std::uint64_t drained = 0;
  for (const auto& [pw, n] : q.drain()) {
    (void)pw;
    drained += n;
  }
  EXPECT_EQ(drained, static_cast<std::uint64_t>(kThreads) * kPushes * 2);
}

// Adversarial streams: duplicates that straddle drain boundaries must not
// re-coalesce across batches, and each batch must carry exactly the
// occurrences pushed since the previous drain.
TEST(UpdateQueueTest, DuplicatesAcrossDrainBoundariesStayInTheirBatch) {
  UpdateQueue q;
  q.push("dup", 3);
  q.push("only-first", 1);
  const auto first = q.drain();
  q.push("dup", 5);  // same password, next epoch
  q.push("only-second", 2);
  const auto second = q.drain();

  auto countOf = [](const UpdateQueue::Batch& batch, std::string_view pw) {
    std::uint64_t n = 0;
    for (const auto& [p, c] : batch) {
      if (p == pw) n += c;
    }
    return n;
  };
  EXPECT_EQ(countOf(first, "dup"), 3u);
  EXPECT_EQ(countOf(second, "dup"), 5u);
  EXPECT_EQ(countOf(first, "only-second"), 0u);
  EXPECT_EQ(countOf(second, "only-first"), 0u);
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(second.size(), 2u);
}

// The queue is a transport, not a validator: zero counts vanish, but
// otherwise entries pass through verbatim — empty strings and oversized
// passwords included. Validation lives upstream (OnlineUpdater::accept),
// so the queue must not corrupt or drop what a buggy caller feeds it.
TEST(UpdateQueueTest, CarriesEmptyAndOversizedEntriesVerbatim) {
  UpdateQueue q;
  const std::string oversized(64 * 1024, 'x');
  q.push("", 2);
  q.push(oversized, 1);
  q.push("", 0);  // zero-count still ignored, even for odd keys
  EXPECT_EQ(q.pendingDistinct(), 2u);
  EXPECT_EQ(q.pendingTotal(), 3u);
  const auto batch = q.drain();
  ASSERT_EQ(batch.size(), 2u);
  for (const auto& [pw, n] : batch) {
    if (pw.empty()) {
      EXPECT_EQ(n, 2u);
    } else {
      EXPECT_EQ(pw.size(), oversized.size());
      EXPECT_EQ(pw, oversized);
      EXPECT_EQ(n, 1u);
    }
  }
}

// Conservation under interleaved drains: concurrent pushers and drainers
// racing on one queue must neither lose nor duplicate a single occurrence
// — every push lands in exactly one drained batch. (TSan target.)
TEST(UpdateQueueTest, InterleavedConcurrentDrainsConserveOccurrences) {
  UpdateQueue q;
  constexpr int kPushers = 3;
  constexpr int kDrainers = 2;
  constexpr int kPushes = 2000;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> drainedTotal{0};

  std::vector<std::thread> drainers;
  for (int d = 0; d < kDrainers; ++d) {
    drainers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        for (const auto& [pw, n] : q.drain()) {
          (void)pw;
          drainedTotal.fetch_add(n, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<std::thread> pushers;
  for (int t = 0; t < kPushers; ++t) {
    pushers.emplace_back([&q, t] {
      for (int i = 0; i < kPushes; ++i) {
        q.push("pw" + std::to_string((t * kPushes + i) % 11),
               1 + static_cast<std::uint64_t>(i % 3));
      }
    });
  }
  for (auto& t : pushers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : drainers) t.join();
  // Final sweep: whatever raced past the drainers' last pass.
  for (const auto& [pw, n] : q.drain()) {
    (void)pw;
    drainedTotal.fetch_add(n, std::memory_order_relaxed);
  }

  // Each pusher contributed sum over i of (1 + i%3) occurrences.
  std::uint64_t expected = 0;
  for (int i = 0; i < kPushes; ++i) expected += 1 + i % 3;
  expected *= kPushers;
  EXPECT_EQ(drainedTotal.load(), expected);
  EXPECT_EQ(q.pendingTotal(), 0u);
  EXPECT_EQ(q.pendingDistinct(), 0u);
}

// -------------------------------------------------------- GrammarSnapshot

TEST(GrammarSnapshotTest, FrozenCopyIsImmutableUnderUpdates) {
  MeterService service(artifactOf(seedGrammar()));

  const auto before = service.snapshot();
  EXPECT_EQ(before->generation(), 0u);
  const double bitsBefore = before->strengthBits("password1");

  FuzzyPsm updated = seedGrammar();
  updated.update("password1", 50);
  EXPECT_EQ(service.publishFromArtifact(artifactOf(updated)), 1u);

  // The retired snapshot still scores exactly as it did.
  EXPECT_EQ(before->strengthBits("password1"), bitsBefore);
  EXPECT_EQ(before->generation(), 0u);
  // The published snapshot reflects the fold.
  const auto after = service.snapshot();
  EXPECT_EQ(after->generation(), 1u);
  EXPECT_LT(after->strengthBits("password1"), bitsBefore);
}

TEST(GrammarSnapshotTest, MatchesUnderlyingGrammarExactly) {
  const FuzzyPsm psm = seedGrammar();
  const auto snap = GrammarSnapshot::fromArtifact(artifactOf(psm), 7);
  const auto oracle = artifactOf(psm);
  EXPECT_EQ(snap->generation(), 7u);
  for (const auto& p : probes()) {
    EXPECT_EQ(snap->log2Prob(p), oracle->grammar().log2Prob(p)) << p;
    test_grammar::expectSameParse(snap->parse(p), psm.parse(p), p);
  }
}

// ------------------------------------------------------------ MeterService

TEST(MeterServiceTest, RequiresTrainedGrammar) {
  FuzzyPsm untrained;
  untrained.addBaseWord("password");
  EXPECT_THROW(MeterService(artifactOf(untrained)), NotTrained);
}

TEST(MeterServiceTest, ScoreMatchesGrammarAndCacheHitsAgree) {
  MeterService service(artifactOf(seedGrammar()));
  const auto replica = artifactOf(seedGrammar());
  for (const auto& p : probes()) {
    const auto first = service.score(p);
    EXPECT_EQ(first.bits, replica->grammar().strengthBits(p)) << p;
    EXPECT_EQ(first.generation, 0u);
    EXPECT_FALSE(first.fromCache);
    const auto second = service.score(p);
    EXPECT_TRUE(second.fromCache) << p;
    EXPECT_EQ(second.bits, first.bits) << p;
  }
  EXPECT_GT(service.stats().cache.hits, 0u);
}

TEST(MeterServiceTest, PublishInvalidatesCachedScores) {
  MeterService service(artifactOf(seedGrammar()));
  const auto cold = service.score("password1");
  const auto warm = service.score("password1");
  ASSERT_TRUE(warm.fromCache);

  FuzzyPsm replica = seedGrammar();
  replica.update("password1", 100);
  const auto published = artifactOf(replica);
  service.publishFromArtifact(published);

  const auto fresh = service.score("password1");
  EXPECT_FALSE(fresh.fromCache);  // stale entry evicted, not served
  EXPECT_EQ(fresh.generation, 1u);
  EXPECT_EQ(fresh.bits, published->grammar().strengthBits("password1"));
  EXPECT_NE(fresh.bits, cold.bits);
  EXPECT_GT(service.stats().cache.staleEvictions, 0u);
}

TEST(MeterServiceTest, BatchSharesOneGenerationAndMatchesSingles) {
  MeterService service(artifactOf(seedGrammar()));
  std::vector<std::string> pws = probes();
  // Explicit thread request exercises the parallelWorkerCount fix: small
  // batches must still honor the requested fan-out.
  const auto batch = service.scoreBatch(pws, 4);
  ASSERT_EQ(batch.size(), pws.size());
  const auto replica = artifactOf(seedGrammar());
  for (std::size_t i = 0; i < pws.size(); ++i) {
    EXPECT_EQ(batch[i].generation, 0u);
    EXPECT_EQ(batch[i].bits, replica->grammar().strengthBits(pws[i]))
        << pws[i];
  }
}

// ------------------------------------------------- multi-threaded stress

// N readers score continuously while a writer publishes one precompiled
// artifact per generation. Every observed (generation, bits) pair must
// equal the single-threaded oracle replay — exact double equality, since
// the artifact scores bit-identically to the grammar it was compiled from.
// Any torn read, out-of-order publish, or stale cache hit shows up as a
// mismatch.
TEST(ServeStress, ReadersObserveOnlyPublishedSnapshots) {
  constexpr std::size_t kBatches = 40;
  constexpr int kReaders = 4;

  const Replay replay = replaySchedule(updateSchedule(kBatches));
  const auto& oracle = replay.oracle;

  MeterServiceConfig cfg;
  cfg.cacheCapacity = 64;  // small: forces eviction + stale paths
  cfg.cacheShards = 4;
  MeterService service(replay.artifacts.front(), cfg);

  std::atomic<bool> writerDone{false};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> scoresTaken{0};
  std::mutex firstMismatchMutex;
  std::string firstMismatch;

  auto checkScore = [&](std::size_t probeIdx, const MeterService::Score& s) {
    ++scoresTaken;
    if (s.generation >= oracle.size() ||
        s.bits != oracle[s.generation][probeIdx]) {
      ++mismatches;
      const std::lock_guard<std::mutex> lock(firstMismatchMutex);
      if (firstMismatch.empty()) {
        firstMismatch = probes()[probeIdx] + " @gen " +
                        std::to_string(s.generation) + ": got " +
                        std::to_string(s.bits);
      }
    }
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::size_t i = static_cast<std::size_t>(r);  // staggered start
      while (!writerDone.load(std::memory_order_acquire)) {
        const std::size_t probeIdx = i++ % probes().size();
        checkScore(probeIdx, service.score(probes()[probeIdx]));
      }
      // A final full sweep against the terminal snapshot.
      for (std::size_t p = 0; p < probes().size(); ++p) {
        checkScore(p, service.score(probes()[p]));
      }
    });
  }

  std::thread writer([&] {
    for (std::size_t g = 1; g < replay.artifacts.size(); ++g) {
      service.publishFromArtifact(replay.artifacts[g]);
      std::this_thread::yield();
    }
    writerDone.store(true, std::memory_order_release);
  });

  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0u) << "first mismatch: " << firstMismatch;
  EXPECT_GT(scoresTaken.load(), 0u);
  EXPECT_EQ(service.generation(), kBatches);
  // Terminal state equals the oracle's terminal state for every probe.
  for (std::size_t p = 0; p < probes().size(); ++p) {
    EXPECT_EQ(service.score(probes()[p]).bits, oracle.back()[p])
        << probes()[p];
  }
}

}  // namespace
}  // namespace fpsm
