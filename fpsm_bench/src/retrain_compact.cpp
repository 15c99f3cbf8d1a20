// retrain-compact: the write path.
//
// Compaction: the trained artifact serves as a tenant, and each of 30
// cycles sends 10k update() occurrences from a held-out stream, then
// compactTenant, while one open-loop reader scores the same tenant at
// 100k/s. Training: for the rest of the phase, `fuzzypsm train --threads
// nproc` over the 1M-entry synthesized corpus that the suite wrote to disk,
// pass after pass; every pass must produce the same bytes. Mostly writes: the training parse, merge, artifact
// write, log append and publish gates. The parse layer counts here rather
// than scores, so a parse change that helps scoring but hurts counting
// shows on this workload.
#include <algorithm>
#include <fstream>
#include <thread>

#include "corpus_synth.h"
#include "fleet.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "online/generation_log.h"
#include "process.h"
#include "samples.h"
#include "trace.h"
#include "workload.h"

namespace fpsm::suite {

namespace {

constexpr char kTenant[] = "retrain";
constexpr std::size_t kCycleUpdates = 10000;
constexpr double kReaderRate = 100000.0;

class RetrainCompact final : public Workload {
 public:
  using Workload::Workload;

  void prepare() override {
    const std::string dir = opts_.workDir + "/inputs";
    std::filesystem::create_directories(dir);
    corpusPath_ = dir + "/corpus.txt";
    basePath_ = dir + "/base.txt";
    streamPath_ = dir + "/stream.txt";
    corpusEntries_ = opts_.smoke ? 20000 : 1000000;
    Rng rng(deriveSeed(opts_.seed, 50));
    {
      std::ofstream corpus(corpusPath_, std::ios::trunc);
      for (std::size_t i = 0; i < corpusEntries_; ++i) {
        const Dataset::Entry e = synthesizeEntry(rng);
        corpus << e.password << '\t' << e.count << '\n';
        if (pool_.size() < 4096 && rng.below(64) == 0) pool_.push_back(e.password);
      }
      std::ofstream base(basePath_, std::ios::trunc);
      for (const std::string& w : synthBaseWords()) base << w << '\t' << 1 << '\n';
      if (!corpus.flush() || !base.flush()) {
        throw std::runtime_error("cannot write the training corpus");
      }
    }
    stream_ = Rng(deriveSeed(opts_.seed, 51));
    streamOut_.open(streamPath_, std::ios::trunc);
  }

  void setUp(const std::string& dir) override {
    const std::string artifact = dir + "/trained.fpsmb";
    {
      const Span span("cli.train");
      runCommand(trainCommand(artifact));
    }
    fleet_ = registerFleet(dir, {kTenant}, {artifact});
    oracle_ = std::make_unique<GenerationOracle>(fleet_.root);
    const Span span("registry.loadTenant");
    oracle_->serving(kTenant, fleet_.registry->loadTenant(kTenant), 1);
    lastSequence_ = 1;
  }

  void tearDown() override {
    oracle_.reset();
    fleet_ = Fleet{};
  }

  PhaseResult measure(double seconds) override {
    compactCycles(1, opts_.warmupSeconds());

    // A fixed number of compaction cycles with the reader (a count, not a
    // duration, so the log and the disk it takes stay bounded) ...
    const obs::MetricsSnapshot before = obs::snapshot();
    const std::uint64_t start = nowNs();
    const CompactionRecord rec = compactCycles(opts_.smoke ? 5 : 30, 0.0);
    const double compactWall = secondsSince(start);
    const obs::MetricsSnapshot after = obs::snapshot();

    // ... then training passes, at least three, for the rest of the phase.
    std::vector<double> passSeconds;
    const int minPasses = opts_.smoke ? 1 : 3;
    while (static_cast<int>(passSeconds.size()) < minPasses ||
           secondsSince(start) < seconds) {
      passSeconds.push_back(trainPass());
    }

    const double trainEps =
        static_cast<double>(corpusEntries_) / median(passSeconds);
    std::vector<double> compactUs = rec.compactUs;
    const Summary compaction = summarize(compactUs, 900000);
    const Summary reader = summarizeAll({&rec.reader.latencyUs}, 990000);
    const Summary lag = summarizeAll({&rec.reader.lagUs}, 990000);
    PhaseResult r;
    r.workPerS = trainEps;
    r.opP50Us = compaction.p50;
    r.named = {{"train_eps", trainEps, "1/s"},
               {"train_passes", static_cast<double>(passSeconds.size()), "count"}};
    addTiming(r.named, "compact", compaction, 1e-3, "ms");
    addTiming(r.named, "score", reader, 1.0, "us");
    r.live = observedCounts(before, after);
    r.live.push_back({"loadgen.op_tail_us", compaction.tail, "us"});
    r.live.push_back({"loadgen.lag_p99_us", lag.tail, "us"});
    r.parses = static_cast<double>(after.counter(obs::Counter::ServeCacheMisses) -
                                   before.counter(obs::Counter::ServeCacheMisses));
    r.threadSeconds = compactWall;
    return r;
  }

  void check() override {
    // Online vs batch: the last generation must be byte-identical to one
    // training run over the corpus followed by every update sent.
    streamOut_.flush();
    const std::string combined = opts_.workDir + "/inputs/combined.txt";
    writeFile(combined, readFile(corpusPath_) + readFile(streamPath_));
    const std::string batch = opts_.workDir + "/batch.fpsmb";
    runCommand(trainCommand(batch, combined));
    const std::string online = fleet_.root + "/" + kTenant + "/" +
                               GenerationLog::fileNameFor(lastSequence_);
    if (readFile(batch) != readFile(online)) {
      tally_.fail("online generation " + std::to_string(lastSequence_) +
                  " differs from a batch retrain over corpus + stream");
    }
    std::printf("retrain-compact: generation %llu %s a batch retrain; %zu "
                "reader scores re-checked\n",
                static_cast<unsigned long long>(lastSequence_),
                tally_.failed() == 0 ? "matches" : "checked against",
                oracle_->verify(tally_));
  }

  LayerTarget layerTarget() override {
    LayerTarget t;
    t.registry = fleet_.registry.get();
    t.tenant = kTenant;
    t.tenantLogDir = fleet_.root + "/" + kTenant;
    const std::size_t want = opts_.smoke ? 5000 : 50000;
    for (std::size_t i = 0; i < want; ++i) t.sample.push_back(pool_[(i * 7919) % pool_.size()]);
    Rng rng(deriveSeed(opts_.seed, 52));
    for (std::size_t i = 0; i < kCycleUpdates; ++i) {
      t.updates.push_back(synthesizeEntry(rng).password);
    }
    t.corpusPath = corpusPath_;
    return t;
  }

 private:
  struct CompactionRecord {
    explicit CompactionRecord(std::uint64_t start)
        : reader(start, UINT64_MAX, 1, 5) {}
    std::vector<double> compactUs;
    OpenLoopRecord reader;
  };

  std::vector<std::string> trainCommand(const std::string& out,
                                        const std::string& corpus = {}) const {
    return {opts_.fuzzypsm, "train", "--base", basePath_, "--training",
            corpus.empty() ? corpusPath_ : corpus, "--reverse", "--threads",
            std::to_string(std::max(1u, std::thread::hardware_concurrency())),
            "--out", out};
  }

  /// One timed `fuzzypsm train`; its artifact must equal the set-up's.
  double trainPass() {
    const std::string out = opts_.workDir + "/pass.fpsmb";
    tally_.attempt();
    const std::uint64_t t0 = nowNs();
    {
      const Span span("cli.train");
      runCommand(trainCommand(out));
    }
    const double s = secondsSince(t0);
    if (readFile(out) != readFile(fleet_.artifactPaths[0])) {
      tally_.fail("training pass produced different bytes");
    }
    return s;
  }

  /// Update/compact cycles beside the open-loop reader: at least
  /// `cycles`, and for at least `seconds`.
  CompactionRecord compactCycles(std::size_t cycles, double seconds) {
    const std::uint64_t start = nowNs();
    CompactionRecord rec(start);
    std::atomic<bool> stop{false};
    std::uint64_t read = 0;
    std::thread reader([&] {
      const auto interval = static_cast<std::uint64_t>(1e9 / kReaderRate);
      openLoop(start, UINT64_MAX, interval, rec.reader,
               [&](std::uint64_t k) { readOne(k, read); }, &stop);
    });
    const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    for (std::size_t done = 0; done < cycles || nowNs() < end; ++done) cycle(rec);
    stop.store(true);
    reader.join();
    tally_.attempt(read);
    return rec;
  }

  void readOne(std::uint64_t k, std::uint64_t& read) {
    const std::string& pw = pool_[k % pool_.size()];
    try {
      const Span span("registry.score", k);
      const TenantMeter::Score s = fleet_.registry->score(kTenant, pw);
      if (++read % 1000 == 0) oracle_->sample(kTenant, pw, s);
    } catch (const std::exception& e) {
      tally_.fail(std::string("score: ") + e.what());
    }
  }

  void cycle(CompactionRecord& rec) {
    for (std::size_t i = 0; i < kCycleUpdates; ++i) {
      const std::string pw = synthesizeEntry(stream_).password;
      tally_.attempt();
      try {
        const Span span("registry.update");
        fleet_.registry->update(kTenant, pw, 1);
        streamOut_ << pw << "\t1\n";
      } catch (const std::exception& e) {
        tally_.fail(std::string("update: ") + e.what());
      }
    }
    tally_.attempt();
    try {
      const Span span("registry.compactTenant");
      const std::uint64_t t0 = nowNs();
      const auto result = fleet_.registry->compactTenant(kTenant);
      rec.compactUs.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
      oracle_->compacted(kTenant, result);
      if (result.published) {
        lastSequence_ = result.sequence;
      } else {
        tally_.fail("compaction rolled back: " + result.rejection);
      }
    } catch (const std::exception& e) {
      tally_.fail(std::string("compactTenant: ") + e.what());
    }
  }

  std::string corpusPath_;
  std::string basePath_;
  std::string streamPath_;
  std::size_t corpusEntries_ = 0;
  std::vector<std::string> pool_;  ///< reader requests, drawn from the corpus
  Rng stream_;                     ///< the held-out update stream
  std::ofstream streamOut_;        ///< every update sent, for the batch check
  std::uint64_t lastSequence_ = 1;
  Fleet fleet_;
  std::unique_ptr<GenerationOracle> oracle_;
};

}  // namespace

std::unique_ptr<Workload> makeRetrainCompact(const Options& opts) {
  return std::make_unique<RetrainCompact>(opts);
}

}  // namespace fpsm::suite
