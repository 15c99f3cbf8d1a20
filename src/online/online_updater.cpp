#include "online/online_updater.h"

#include <utility>

#include "analysis/grammar_lint.h"
#include "artifact/artifact.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "train/sharded_trainer.h"
#include "util/chars.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/mutex.h"

namespace fpsm {

std::unique_ptr<OnlineUpdater> OnlineUpdater::bootstrap(
    const std::string& directory, const void* artifactBytes,
    std::size_t byteCount, OnlineUpdaterConfig config) {
  const auto* first = static_cast<const std::byte*>(artifactBytes);
  const auto image = GrammarArtifact::fromBytes(
      std::vector<std::byte>(first, first + byteCount));
  if (!image->grammar().trained()) {
    throw NotTrained("OnlineUpdater: grammar must be trained to bootstrap");
  }
  GenerationLog log(directory);
  if (log.latest() != nullptr) {
    throw InvalidArgument(
        "OnlineUpdater: log at " + directory +
        " already has generations; use resume()");
  }
  // Gate the in-memory image before it touches the log, so a rejected
  // grammar leaves the log empty rather than holding an unservable
  // generation 1.
  gate(config, image->grammar());
  const std::uint64_t seq = log.append(artifactBytes, byteCount);
  auto artifact = GrammarArtifact::open(log.pathFor(seq));
  return std::unique_ptr<OnlineUpdater>(new OnlineUpdater(
      std::move(log), std::move(artifact), seq, std::move(config)));
}

std::unique_ptr<OnlineUpdater> OnlineUpdater::resume(
    const std::string& directory, OnlineUpdaterConfig config,
    RecoveryReport* report) {
  RecoveryReport local;
  RecoveryReport& rep = report ? *report : local;
  obs::StageTimer logOpenSpan(obs::Histo::OnlineResumeLogOpen);
  GenerationLog log(directory, &rep);
  logOpenSpan.stop();

  // Newest-first: the freshest generation that clears every gate serves.
  // A generation that fails here was checksummed-good on disk but is
  // unservable (malformed bytes, or semantics the trust gate rejects) —
  // report it and keep walking, exactly like tail recovery one level down.
  // Each candidate records its open and gate spans, so a slow cold load
  // names its stage; a stage that throws still records (it ran and failed).
  const auto& entries = log.entries();
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    std::shared_ptr<const GrammarArtifact> artifact;
    try {
      obs::StageTimer openSpan(obs::Histo::OnlineResumeArtifactOpen);
      artifact = GrammarArtifact::open(log.pathFor(it->sequence));
    } catch (const Error& e) {
      rep.add(RecoverySkipReason::UnreadableArtifact, it->sequence, e.what());
      continue;
    }
    try {
      obs::StageTimer gateSpan(obs::Histo::OnlineResumeGate);
      gate(config, artifact->grammar());
    } catch (const Error& e) {
      rep.add(RecoverySkipReason::LintRejected, it->sequence, e.what());
      continue;
    }
    const std::uint64_t seq = it->sequence;
    return std::unique_ptr<OnlineUpdater>(new OnlineUpdater(
        std::move(log), std::move(artifact), seq, std::move(config)));
  }
  throw GenerationLogError(
      GenerationLogErrorCode::NoSuchSequence,
      "OnlineUpdater: no servable generation in " + directory);
}

OnlineUpdater::OnlineUpdater(GenerationLog log,
                             std::shared_ptr<const GrammarArtifact> served,
                             std::uint64_t servedSequence,
                             OnlineUpdaterConfig config)
    : config_(std::move(config)),
      log_(std::move(log)),
      served_(served),
      service_(std::move(served), config_.serviceConfig) {
  lastSequence_.store(servedSequence, std::memory_order_relaxed);
}

void OnlineUpdater::gate(const OnlineUpdaterConfig& config,
                         const FlatGrammarView& grammar) {
  LintReport lint = GrammarValidator().lint(grammar);
  if (!lint.ok()) throw GrammarLintError(std::move(lint));
  if (config.publishGate) config.publishGate(grammar);
}

void OnlineUpdater::accept(std::string_view pw, std::uint64_t n) {
  if (n == 0) return;
  try {
    if (n > kMaxAcceptCount) {
      throw InvalidArgument("OnlineUpdater::accept: " + std::to_string(n) +
                            " occurrences exceed the per-call bound of 2^32");
    }
    validatePassword(pw);
    shards_[StringHash{}(pw) % shards_.size()].push(pw, n);
  } catch (...) {
    obs::count(obs::Counter::OnlineAcceptInvalid);
    throw;
  }
  accepted_.fetch_add(n, std::memory_order_relaxed);
  obs::count(obs::Counter::OnlineAccepted, n);
  const std::uint64_t pending =
      pendingApprox_.fetch_add(n, std::memory_order_relaxed) + n;
  obs::gaugeSet(obs::Gauge::OnlineQueueDepth,
                static_cast<std::int64_t>(pending));
}

OnlineUpdater::CompactionResult OnlineUpdater::compactNow() {
  const MutexLock lock(compactionMutex_);
  CompactionResult res;

  // Drain every shard into one batch. Batch order is unspecified (hash-map
  // iteration), which is fine: counting is order-independent and the
  // artifact writer serializes canonically, so the emitted bytes do not
  // depend on it.
  obs::StageTimer drainSpan(obs::Histo::OnlineCompactDrain);
  std::vector<Dataset::Entry> entries;
  for (auto& shard : shards_) {
    for (auto& [pw, n] : shard.drain()) {
      res.folded += n;
      entries.push_back(Dataset::Entry{std::move(pw), n});
    }
  }
  if (entries.empty()) {
    drainSpan.cancel();  // no work item — an empty drain is not a sample
    return res;
  }
  drainSpan.stop();
  const std::uint64_t left =
      pendingApprox_.fetch_sub(res.folded, std::memory_order_relaxed) -
      res.folded;
  obs::gaugeSet(obs::Gauge::OnlineQueueDepth, static_cast<std::int64_t>(left));
  compactions_.fetch_add(1, std::memory_order_relaxed);
  obs::count(obs::Counter::OnlineCompactions);

  // Count the batch against the served artifact's dictionary, then write
  // the next generation as that artifact plus the delta. served_ itself is
  // only replaced after the gates pass, so a rollback needs no undo. The
  // parse-side detail is broken out by the train.* histograms one layer
  // down.
  TrainOptions topts;
  topts.threads = config_.compactionThreads;
  obs::StageTimer trainSpan(obs::Histo::OnlineCompactTrain);
  try {
    const FlatGrammarView& grammar = served_->grammar();
    const GrammarCounts delta =
        ShardedTrainer(grammar.config(), grammar.baseDictionary(),
                       grammar.reversedDictionary(), topts)
            .countEntries(entries);
    trainSpan.stop();
    obs::StageTimer writeSpan(obs::Histo::OnlineCompactWrite);
    const std::vector<std::byte> bytes = writeArtifact(*served_, delta);
    res.sequence = log_.append(bytes.data(), bytes.size());
  } catch (const InvalidArgument& e) {
    // A count that would overflow 64 bits is rejected like a gate failure,
    // one step earlier: nothing reaches the log.
    rollBack(res, e.what());
    return res;
  }

  try {
    // Gate 1: byte-level validation, through the same loader a restart
    // would use — if this process cannot reopen what it just wrote, no
    // future process can either. A gate that throws still records its
    // span (the stage ran and failed).
    obs::StageTimer gateSpan(obs::Histo::OnlineCompactGate);
    auto artifact = GrammarArtifact::open(log_.pathFor(res.sequence));
    // Gate 2: the trust gate — semantic lint, then the caller's policy.
    gate(config_, artifact->grammar());
    gateSpan.stop();
    // Gate 3: the RCU flip. TenantMeter serves what it is handed, so
    // readers never observe a grammar that failed either gate.
    obs::StageTimer publishSpan(obs::Histo::OnlineCompactPublish);
    res.generation = service_.publishFromArtifact(artifact);
    res.published = true;
    served_ = std::move(artifact);
    published_.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::OnlinePublished);
    lastSequence_.store(res.sequence, std::memory_order_relaxed);
  } catch (const Error& e) {
    // The bad generation stays quarantined in the log.
    rollBack(res, e.what());
  }
  return res;
}

void OnlineUpdater::rollBack(CompactionResult& res, std::string rejection) {
  // Served artifact untouched, previous snapshot keeps serving. The
  // drained occurrences are dropped, not re-queued — a batch that
  // deterministically produces a rejected grammar would wedge the loop.
  rollbacks_.fetch_add(1, std::memory_order_relaxed);
  quarantined_.fetch_add(res.folded, std::memory_order_relaxed);
  obs::count(obs::Counter::OnlineGateRejections);
  obs::count(obs::Counter::OnlineQuarantined, res.folded);
  res.rejection = std::move(rejection);
}

std::uint64_t OnlineUpdater::pendingUpdates() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard.pendingTotal();
  return total;
}

OnlineUpdater::Stats OnlineUpdater::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.compactions = compactions_.load(std::memory_order_relaxed);
  s.published = published_.load(std::memory_order_relaxed);
  s.rollbacks = rollbacks_.load(std::memory_order_relaxed);
  s.quarantined = quarantined_.load(std::memory_order_relaxed);
  s.lastSequence = lastSequence_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace fpsm
