// OnlineUpdater — the streaming adaptive-update loop (DESIGN.md §12).
//
// The paper's update phase folds accepted passwords back into the grammar.
// OnlineUpdater is the only way a served grammar changes: it drives a
// TenantMeter through a GenerationLog, so every fold is durable (kill the
// process and the log still holds every published generation) and
// auditable (the log records which grammar was serving when):
//
//   accept()     validates the password and appends it to one of
//                deltaShards UpdateQueues, picked by password hash. The
//                serve path never blocks on compaction: shard queues are
//                independent mutexes, and concurrent readers score the
//                current RCU snapshot untouched.
//   compactNow() drains every shard, parses the combined batch into a
//                GrammarCounts delta with ShardedTrainer (same parallel
//                pipeline as batch training), merges the delta into a COPY
//                of the cumulative counts, serializes the merged grammar
//                with the canonical artifact writer, appends it to the
//                GenerationLog, and only then gates + publishes:
//
//                   gate 1  GrammarArtifact::open — byte-level validation
//                   gate 2  GrammarValidator lint — semantic validation
//                   gate 3  TenantMeter::publishFromArtifact — RCU flip
//
//                Any gate failure rolls back: the cumulative counts were
//                never touched (the merge happened on a copy), the bad
//                generation stays quarantined in the log (never served,
//                sequence retired), and readers keep scoring the previous
//                snapshot with no serving gap. The drained occurrences are
//                counted as quarantined rather than re-queued — replaying
//                a batch that deterministically produces a rejected
//                grammar would wedge the loop.
//
// Determinism (the online-vs-batch contract, tests/online_test.cpp): a
// parse is a pure function of (password, base dictionary, config), and
// GrammarCounts::merge is commutative and associative, so
//
//   counts(C) + counts(S_1) + ... + counts(S_k) = counts(C + S)
//
// for any split of stream S into compaction batches S_i. With the
// canonical artifact writer, the final generation of an online run over C
// then S is byte-identical to a one-shot batch retrain over C + S, at any
// thread count and any compaction cadence.
//
// Restart durability: resume() walks the log from the newest generation
// backwards, serving the first one that passes all gates, and rebuilds
// the cumulative counts from it. Updates accepted after the served
// generation's compaction are lost on crash — the queue is volatile by
// design (bounded loss); the log bounds the loss to one compaction
// interval.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/fuzzy_psm.h"
#include "online/generation_log.h"
#include "serve/tenant_meter.h"
#include "serve/update_queue.h"
#include "train/sharded_trainer.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fpsm {

struct OnlineUpdaterConfig {
  /// Accept-path sharding: accepted passwords hash-partition over this
  /// many independent UpdateQueues so concurrent accept() calls rarely
  /// contend on one mutex. Must be >= 1.
  std::size_t deltaShards = 16;
  /// Threads for the compaction parse (ShardedTrainer); 0 = auto.
  unsigned compactionThreads = 0;
  /// Background compactor pacing: a compaction is attempted at most this
  /// often under light traffic.
  std::chrono::milliseconds compactionInterval{1000};
  /// Backlog bound: the background compactor wakes early once this many
  /// pending occurrences have accumulated across all shards.
  std::uint64_t maxPendingUpdates = std::uint64_t{1} << 16;
  /// Run compaction on a background thread. Off (the default) is
  /// deterministic mode: generations advance only on explicit
  /// compactNow() — tests, the CLI update loop, benchmarks.
  bool backgroundCompactor = false;
  /// Lint every compacted generation before it is published (gate 2).
  /// Off skips only the updater's semantic gate; byte validation (gate 1)
  /// always runs.
  bool lintGate = true;
  /// Options for the lint gate.
  LintOptions lintOptions{};
  /// Optional extra acceptance gate, run after the lint gate on every
  /// candidate generation — at compaction AND at resume(), so a grammar
  /// this policy rejects is never served from either path. Throw (any
  /// Error subclass; GrammarLintError carries a report) to reject the
  /// candidate: compaction rolls it back, resume skips it. Deployment
  /// hooks (canary scoring, external policy) and the test suite's
  /// deterministic rejection injection both plug in here.
  std::function<void(const FlatGrammarView&)> publishGate;
  /// Serving configuration of the TenantMeter the updater publishes to.
  TenantMeterConfig serviceConfig{};
};

class OnlineUpdater {
 public:
  /// Outcome of one compaction cycle.
  struct CompactionResult {
    std::uint64_t sequence = 0;    ///< log sequence written (0 = no-op)
    std::uint64_t generation = 0;  ///< TenantMeter generation published
    std::uint64_t folded = 0;      ///< occurrences drained into the batch
    bool published = false;        ///< false: empty batch, or rolled back
    std::string rejection;         ///< gate failure message when rolled back
  };

  struct Stats {
    std::uint64_t accepted = 0;     ///< occurrences accepted via accept()
    std::uint64_t compactions = 0;  ///< compactNow() cycles that drained work
    std::uint64_t published = 0;    ///< generations that passed all gates
    std::uint64_t rollbacks = 0;    ///< generations rejected by a gate
    std::uint64_t quarantined = 0;  ///< occurrences lost to rollbacks
    std::uint64_t lastSequence = 0; ///< newest published log sequence
  };

  /// Starts a fresh log at `directory` from a trained grammar: compiles it
  /// as generation 1 and serves it artifact-backed. Throws InvalidArgument
  /// if the log already has generations (use resume()) and NotTrained on
  /// an untrained grammar.
  static std::unique_ptr<OnlineUpdater> bootstrap(
      const FuzzyPsm& trained, const std::string& directory,
      OnlineUpdaterConfig config = {});

  /// Reopens an existing log after a crash or restart. Walks generations
  /// newest-first and serves the first one that opens and passes the lint
  /// gate; generations that fail are reported (RecoverySkip) and skipped.
  /// Throws GenerationLogError(NoSuchSequence) when no generation is
  /// servable.
  static std::unique_ptr<OnlineUpdater> resume(
      const std::string& directory, OnlineUpdaterConfig config = {},
      RecoveryReport* report = nullptr);

  /// Stops the background compactor. Pending accepted passwords that were
  /// never compacted are discarded (call compactNow() first to flush).
  ~OnlineUpdater();

  OnlineUpdater(const OnlineUpdater&) = delete;
  OnlineUpdater& operator=(const OnlineUpdater&) = delete;

  /// The serve path's update hook: validates and enqueues n occurrences of
  /// an accepted password. Never blocks on compaction; throws
  /// InvalidArgument on malformed passwords.
  void accept(std::string_view pw, std::uint64_t n = 1)
      FPSM_EXCLUDES(compactionMutex_);

  /// Runs one compaction cycle synchronously (see class comment). Returns
  /// what happened; never throws on gate failure — a rejected generation
  /// is a reported rollback, not an exception, because the loop must keep
  /// serving. Filesystem failures (GenerationLogError) do propagate.
  CompactionResult compactNow() FPSM_EXCLUDES(compactionMutex_);

  /// Scoring surface: the underlying serving unit. Scores always come from
  /// the newest published (log-backed) generation.
  const TenantMeter& service() const FPSM_NO_CAPABILITY { return service_; }
  TenantMeter& service() FPSM_NO_CAPABILITY { return service_; }

  /// The artifact log backing this updater. Read-only inspection surface
  /// for tests and the CLI; log_ itself is guarded by compactionMutex_,
  /// and this accessor deliberately opts out of the analysis — callers
  /// must be quiescent (background compactor off or stopped), which is a
  /// lifecycle contract the lock cannot express. See DESIGN.md §13 on
  /// annotated escape hatches.
  const GenerationLog& log() const FPSM_NO_THREAD_SAFETY_ANALYSIS {
    return log_;
  }

  /// Occurrences accepted but not yet compacted (approximate under
  /// concurrent accept()).
  std::uint64_t pendingUpdates() const FPSM_NO_CAPABILITY;

  Stats stats() const FPSM_NO_CAPABILITY;

 private:
  /// Serves `served` (the artifact of log sequence `servedSequence`).
  OnlineUpdater(GenerationLog log, FuzzyPsm base,
                std::shared_ptr<const GrammarArtifact> deferredBase,
                std::shared_ptr<const GrammarArtifact> served,
                std::uint64_t servedSequence, OnlineUpdaterConfig config);

  void compactorLoop() FPSM_EXCLUDES(compactionMutex_);
  /// Pays the one-time FuzzyPsm materialization for a deferred-base
  /// updater (see baseArtifact_). No-op once base_ is live.
  void materializeBaseLocked() FPSM_REQUIRES(compactionMutex_);

  const OnlineUpdaterConfig config_;  // immutable after construction

  // Cumulative state, all advanced atomically per compaction under
  // compactionMutex_: log_ is the durable artifact sequence and base_ the
  // dictionary plus every count that has ever been published.
  mutable Mutex compactionMutex_;
  GenerationLog log_ FPSM_GUARDED_BY(compactionMutex_);
  FuzzyPsm base_ FPSM_GUARDED_BY(compactionMutex_);
  // resume() defers the expensive FuzzyPsm::fromArtifact rebuild: until the
  // first compaction needs cumulative counts, the base stays this zero-copy
  // artifact and base_ is empty. That keeps a registry cold-load (which is
  // a resume()) at mmap cost, not materialization cost.
  std::shared_ptr<const GrammarArtifact> baseArtifact_
      FPSM_GUARDED_BY(compactionMutex_) FPSM_PT_GUARDED_BY(compactionMutex_);

  TenantMeter service_;  // internally synchronized

  // Accept path. Sized at construction, never resized (UpdateQueue is
  // immovable and internally locked).
  std::vector<UpdateQueue> shards_;

  // Background compactor. wakeMutex_ guards no data — the wake predicate
  // reads atomics — it exists only to carry wakeCv_'s sleep/notify
  // protocol, so nothing is FPSM_GUARDED_BY it.
  std::atomic<bool> stopping_{false};
  Mutex wakeMutex_;
  CondVar wakeCv_;
  std::thread compactor_;

  // Counters (relaxed; monitoring only).
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> pendingApprox_{0};
  std::atomic<std::uint64_t> compactions_{0};
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> rollbacks_{0};
  std::atomic<std::uint64_t> quarantined_{0};
  std::atomic<std::uint64_t> lastSequence_{0};
};

}  // namespace fpsm
