// TenantMeter — one tenant's complete serving unit (DESIGN.md §15).
//
// A TenantMeter serves one grammar: an RCU slot holding the current
// GrammarSnapshot (a view of a mapped .fpsmb artifact) and a
// generation-keyed score cache. It is self-contained — N of them can serve
// N tenants from one process, which is exactly what the GrammarRegistry
// (src/registry) does. MeterService is the same class under the name
// single-grammar callers use.
//
// The paper's fuzzyPSM is adaptive — accepted passwords are folded back
// into the grammar (Sec. IV-C) — but a mutable grammar cannot be scored
// and updated concurrently. TenantMeter only ever serves immutable
// artifacts and leaves the fold to OnlineUpdater (src/online), which
// compacts accepted passwords into a new logged, gated artifact and hands
// it to publishFromArtifact():
//
//   readers   score()/scoreBatch() pin the current GrammarSnapshot via an
//             RcuPtr (a shared_ptr copy under a pointer-sized critical
//             section), consult a generation-keyed LRU cache for hot
//             passwords, and then score with no synchronization at all;
//   writer    publishFromArtifact() wraps the artifact in a snapshot
//             under the next generation and publishes it with one pointer
//             swap. In-flight readers finish on the old snapshot; its
//             memory is reclaimed when the last of them drops its
//             reference (RCU lifetime rule).
//
// TenantMeter serves what it is handed and does not audit it: the bytes
// were validated by GrammarArtifact, and the semantics are trusted once,
// by OnlineUpdater's gate, before an artifact gets here. A caller serving
// an artifact from anywhere else lints it first (GrammarValidator,
// analysis/grammar_lint.h), as `fuzzypsm stats --grammar` does.
//
// Guarantees:
//   * Every score is computed against exactly one published snapshot; the
//     reported generation identifies which.
//   * A cached score is served only under the generation it was computed
//     from (ScoreCache evicts on mismatch), so a publish atomically
//     invalidates the cache.
//   * Generations are strictly increasing: publishes serialize on
//     publishMutex_, held across build-and-swap.
//
// Locking discipline (proven by the `tsa` build, DESIGN.md §13):
// nextGeneration_ is FPSM_GUARDED_BY(publishMutex_) and
// publishFromArtifact FPSM_EXCLUDES it. The reader side needs no
// capability at all: current_ is an RcuPtr (internally annotated) and
// cache_ is an internally locked type.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/grammar_snapshot.h"
#include "serve/score_cache.h"
#include "util/mutex.h"
#include "util/rcu_ptr.h"
#include "util/thread_annotations.h"

namespace fpsm {

struct TenantMeterConfig {
  /// Total score-cache entries (0 disables the cache).
  std::size_t cacheCapacity = 4096;
  /// Cache shards (lock striping for reader parallelism).
  std::size_t cacheShards = 8;
};

class TenantMeter {
 public:
  struct Score {
    double bits;                ///< strength in bits (-log2 probability)
    std::uint64_t generation;   ///< snapshot the score was computed against
    bool fromCache;             ///< served from the hot-password cache
  };

  struct Stats {
    std::uint64_t scores = 0;       ///< passwords scored
    std::uint64_t publishes = 0;    ///< snapshots published after gen 0
    ScoreCache::Stats cache;
  };

  /// Serves a compiled .fpsmb artifact (zero-copy, typically mmap'd) as
  /// generation 0. Throws NotTrained on an untrained artifact.
  explicit TenantMeter(std::shared_ptr<const GrammarArtifact> artifact,
                       TenantMeterConfig config = {});

  TenantMeter(const TenantMeter&) = delete;
  TenantMeter& operator=(const TenantMeter&) = delete;

  /// Scores one password against the current snapshot. Scoring itself is
  /// synchronization-free; the only locks touched are the RcuPtr's
  /// pointer-copy critical section and one cache shard's mutex.
  Score score(std::string_view pw) const FPSM_NO_CAPABILITY;

  /// Scores a batch against ONE consistent snapshot (all results share a
  /// generation, so a publish landing mid-batch cannot mix grammars in one
  /// response). The batch path amortizes the RCU pin, sweeps the score
  /// cache once, and scores the misses in contiguous chunks through the
  /// snapshot's batch pipeline (shared parser + SIMD byte kernels; see
  /// FlatGrammarView::log2ProbBatch) fanned out over util/parallel.h.
  /// Every Score.bits is bit-identical to what score() would return
  /// against the same snapshot — enforced by tests/batch_test.cpp.
  /// `requestedThreads` follows parallelFor semantics (0 = auto).
  std::vector<Score> scoreBatch(const std::vector<std::string>& pws,
                                unsigned requestedThreads = 0) const
      FPSM_NO_CAPABILITY;

  /// Replaces the served grammar with a compiled artifact, published under
  /// the next generation. An untrained artifact throws NotTrained and
  /// leaves the previous snapshot serving. Returns the published
  /// generation.
  std::uint64_t publishFromArtifact(
      std::shared_ptr<const GrammarArtifact> artifact)
      FPSM_EXCLUDES(publishMutex_);

  /// Current snapshot (pin it for consistent multi-call scoring).
  std::shared_ptr<const GrammarSnapshot> snapshot() const
      FPSM_NO_CAPABILITY {
    return current_.load();
  }

  /// Generation of the current snapshot.
  std::uint64_t generation() const FPSM_NO_CAPABILITY {
    return snapshot()->generation();
  }

  /// Bytes this unit keeps resident for serving: the mmap'd artifact
  /// behind the current snapshot. This is the quantity the
  /// GrammarRegistry's resident-bytes LRU budget sums.
  std::uint64_t residentBytes() const FPSM_NO_CAPABILITY {
    return snapshot()->residentBytes();
  }

  Stats stats() const FPSM_NO_CAPABILITY;

 private:
  /// Wraps `artifact` as generation `gen` (throws NotTrained on reject).
  std::shared_ptr<const GrammarSnapshot> buildSnapshot(
      std::shared_ptr<const GrammarArtifact> artifact,
      std::uint64_t gen) const FPSM_NO_CAPABILITY;

  const TenantMeterConfig config_;  // immutable after construction

  // Writer side: publishes serialize here so generations stay monotonic.
  Mutex publishMutex_;
  std::uint64_t nextGeneration_ FPSM_GUARDED_BY(publishMutex_) = 1;

  // Reader side (each type is internally synchronized).
  RcuPtr<GrammarSnapshot> current_;
  mutable ScoreCache cache_;

  // Counters (relaxed; monitoring only).
  mutable std::atomic<std::uint64_t> scoreCount_{0};
  std::atomic<std::uint64_t> publishCount_{0};
};

/// The single-grammar names for the same unit and its configuration.
using MeterService = TenantMeter;
using MeterServiceConfig = TenantMeterConfig;

}  // namespace fpsm
