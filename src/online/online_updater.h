// OnlineUpdater — the streaming adaptive-update loop (DESIGN.md §12).
//
// The paper's update phase folds accepted passwords back into the grammar.
// OnlineUpdater is the only way a served grammar changes: it drives a
// TenantMeter through a GenerationLog, so every fold is durable (kill the
// process and the log still holds every published generation) and
// auditable (the log records which grammar was serving when). It owns no
// thread: every method runs on its caller's thread (the compaction parse
// fans out through util/parallel.h and joins before compactNow() returns).
//
//   accept()     validates the password and its count and appends it to
//                one of kDeltaShards UpdateQueues, picked by password hash.
//                The serve path never blocks on compaction: shard queues
//                are independent mutexes, and concurrent readers score the
//                current RCU snapshot untouched.
//   compactNow() drains every shard, parses the combined batch into a
//                GrammarCounts delta with ShardedTrainer against the served
//                artifact's flat dictionary (same parallel pipeline as
//                batch training), writes the next generation as that
//                artifact's config and dictionary sections, byte for byte,
//                plus its count tables merged with the delta
//                (writeArtifact(base, delta)), appends it to the
//                GenerationLog, and only then gates + publishes:
//
//                   gate 1  GrammarArtifact::open — byte-level validation
//                   gate 2  the trust gate — GrammarValidator's
//                           cross-section lint, then publishGate
//                   gate 3  TenantMeter::publishFromArtifact — RCU flip
//
//                Any gate failure rolls back: the served artifact, the
//                tenant's only cumulative state, was never touched, the bad
//                generation stays quarantined in the log (never served,
//                sequence retired), and readers keep scoring the previous
//                snapshot with no serving gap. A sum that would overflow a
//                64-bit count rolls back the same way before the append,
//                so nothing reaches the log. The drained occurrences are
//                counted as quarantined rather than re-queued — replaying
//                a batch that deterministically produces a rejected
//                grammar would wedge the loop.
//
// Trust: this class owns the one trust gate, gate(). It runs exactly once
// per served generation — in bootstrap() before generation 1 reaches the
// log, in compactNow() after the append, and in resume() for each
// candidate it walks — and GrammarRegistry::addTenant calls the same gate
// before a tenant's generation 1 reaches its log. TenantMeter does not
// re-audit what it is handed. The gate lints counts and tables only: the
// artifact loader (gate 1) has already proven both tries are trees, so a
// cold load (resume) reads, hashes and audits each byte once — the log's
// open hashes the file in place, GrammarArtifact::open checks sections
// and tries, and the lint reads the tables. resume() records each stage
// as a span (online.resume.log_open_us, artifact_open_us, gate_us).
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
// State: the newest published artifact is the only cumulative state a
// tenant has — it is what readers score, what the next compaction counts
// against and merges into, and what resume() maps back in. Nothing is
// materialized from it, so a resume costs the same before the first
// compaction as after it.
//
// Restart durability: resume() walks the log from the newest generation
// backwards and serves the first one that passes all gates; its artifact
// is the cumulative state from then on. Updates accepted after the served
// generation's compaction are lost on crash or destruction — the queue is
// volatile by design (bounded loss); the log bounds the loss to one
// compaction interval, which the caller's compactNow() cadence sets.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "artifact/artifact.h"
#include "online/generation_log.h"
#include "serve/tenant_meter.h"
#include "serve/update_queue.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fpsm {

struct OnlineUpdaterConfig {
  /// Threads for the compaction parse (ShardedTrainer); 0 = auto.
  unsigned compactionThreads = 0;
  /// Optional acceptance policy, run by the trust gate after the lint on
  /// every candidate generation — at bootstrap(), at compaction, at
  /// resume() and at GrammarRegistry::addTenant, so a grammar this policy
  /// rejects is never served from any path. Throw (any Error subclass;
  /// GrammarLintError carries a report) to reject the candidate: bootstrap
  /// and addTenant throw, compaction rolls back, resume skips it. Deployment hooks (canary scoring, external policy)
  /// and the test suite's deterministic rejection injection plug in here.
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
    std::string rejection;         ///< why it rolled back (gate, overflow)
  };

  struct Stats {
    std::uint64_t accepted = 0;     ///< occurrences accepted via accept()
    std::uint64_t compactions = 0;  ///< compactNow() cycles that drained work
    std::uint64_t published = 0;    ///< generations that passed all gates
    std::uint64_t rollbacks = 0;    ///< compactions rolled back
    std::uint64_t quarantined = 0;  ///< occurrences lost to rollbacks
    std::uint64_t lastSequence = 0; ///< newest published log sequence
  };

  /// Largest occurrence count one accept() call may fold. Counts are
  /// summed in 64-bit fields from the queue to the artifact, and every
  /// addition is checked (an overflow throws in accept() and rolls back in
  /// compactNow()); the cap keeps one call from reaching that limit alone.
  static constexpr std::uint64_t kMaxAcceptCount = std::uint64_t{1} << 32;

  /// Starts a fresh log at `directory` from `artifactBytes`, a compiled
  /// .fpsmb image (a grammar file's bytes, or compileArtifact's output):
  /// loads them (ArtifactError on bad bytes), runs the trust gate on the
  /// loaded image, commits them as generation 1 and serves the committed
  /// artifact. Throws InvalidArgument if the log already has generations
  /// (use resume()), NotTrained on an untrained grammar, and the gate's
  /// error (GrammarLintError for a lint failure) on rejection — a rejected
  /// grammar never reaches the log.
  static std::unique_ptr<OnlineUpdater> bootstrap(
      const std::string& directory, const void* artifactBytes,
      std::size_t byteCount, OnlineUpdaterConfig config = {});

  /// Reopens an existing log after a crash or restart. Walks generations
  /// newest-first and serves the first one that opens and passes the trust
  /// gate; generations that fail are reported (RecoverySkip) and skipped.
  /// Throws GenerationLogError(NoSuchSequence) when no generation is
  /// servable.
  static std::unique_ptr<OnlineUpdater> resume(
      const std::string& directory, OnlineUpdaterConfig config = {},
      RecoveryReport* report = nullptr);

  /// The trust gate: lints `grammar` (GrammarValidator), then runs
  /// config.publishGate. Throws GrammarLintError (or whatever the
  /// policy throws) on rejection. Besides the updater's own paths,
  /// GrammarRegistry::addTenant runs it before a new tenant's generation 1
  /// reaches its log, under the tenant config resume() will gate with.
  static void gate(const OnlineUpdaterConfig& config,
                   const FlatGrammarView& grammar);

  OnlineUpdater(const OnlineUpdater&) = delete;
  OnlineUpdater& operator=(const OnlineUpdater&) = delete;

  /// The serve path's update hook: validates and enqueues n occurrences of
  /// an accepted password. Never blocks on compaction; throws
  /// InvalidArgument on malformed passwords, on n > kMaxAcceptCount, and
  /// when a shard's pending total would overflow 64 bits. Pending
  /// occurrences are discarded if the updater is destroyed before a
  /// compactNow() folds them.
  void accept(std::string_view pw, std::uint64_t n = 1)
      FPSM_EXCLUDES(compactionMutex_);

  /// Runs one compaction cycle synchronously (see class comment). Returns
  /// what happened; never throws on gate failure or count overflow — a
  /// rejected generation is a reported rollback, not an exception, because
  /// the loop must keep serving. Filesystem failures (GenerationLogError)
  /// do propagate.
  CompactionResult compactNow() FPSM_EXCLUDES(compactionMutex_);

  /// Scoring surface: the underlying serving unit. Scores always come from
  /// the newest published (log-backed) generation.
  const TenantMeter& service() const FPSM_NO_CAPABILITY { return service_; }
  TenantMeter& service() FPSM_NO_CAPABILITY { return service_; }

  /// The artifact log backing this updater. Read-only inspection surface
  /// for tests and the CLI; log_ itself is guarded by compactionMutex_,
  /// and this accessor deliberately opts out of the analysis — callers
  /// must not run compactNow() on another thread while they hold the
  /// reference, a calling contract the lock cannot express. See DESIGN.md
  /// §13 on annotated escape hatches.
  const GenerationLog& log() const FPSM_NO_THREAD_SAFETY_ANALYSIS {
    return log_;
  }

  /// Occurrences accepted but not yet compacted (approximate under
  /// concurrent accept()).
  std::uint64_t pendingUpdates() const FPSM_NO_CAPABILITY;

  Stats stats() const FPSM_NO_CAPABILITY;

 private:
  /// Accept-path sharding: accepted passwords hash-partition over this
  /// many independent UpdateQueues so concurrent accept() calls rarely
  /// contend on one mutex.
  static constexpr std::size_t kDeltaShards = 16;

  /// Serves `served` (the artifact of log sequence `servedSequence`).
  OnlineUpdater(GenerationLog log,
                std::shared_ptr<const GrammarArtifact> served,
                std::uint64_t servedSequence, OnlineUpdaterConfig config);

  /// Counts a rejected compaction (rollbacks, quarantined occurrences) and
  /// records why in `res`.
  void rollBack(CompactionResult& res, std::string rejection);

  const OnlineUpdaterConfig config_;  // immutable after construction

  // Cumulative state, advanced together per compaction under
  // compactionMutex_: log_ is the durable artifact sequence and served_
  // its newest published generation — the dictionary plus every count
  // that has ever been published.
  mutable Mutex compactionMutex_;
  GenerationLog log_ FPSM_GUARDED_BY(compactionMutex_);
  std::shared_ptr<const GrammarArtifact> served_
      FPSM_GUARDED_BY(compactionMutex_);

  TenantMeter service_;  // internally synchronized

  // Accept path (UpdateQueue is immovable and internally locked).
  std::array<UpdateQueue, kDeltaShards> shards_;

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
