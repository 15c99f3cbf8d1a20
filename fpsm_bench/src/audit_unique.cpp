// audit-unique: a bulk audit that bypasses the score cache.
//
// One closed-loop caller sends scoreBatch("zh", 512 passwords) with
// automatic threads over a list of 100,352 distinct passwords, shuffled by
// seed and cycled. A password comes back only after 100k others, so the
// 4096-entry score cache never hits and almost all the time goes to the
// byte kernels, the trie walk, table lookups and the log2 sum. This is the
// workload that shows a parse or allocation gain; register-zipf should not.
#include <algorithm>

#include "artifact/checksum.h"
#include "corpus_synth.h"
#include "fleet.h"
#include "obs/metrics.h"
#include "samples.h"
#include "trace.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "workload.h"

namespace fpsm::suite {

namespace {

constexpr std::size_t kBatch = 512;

std::uint64_t digest(const std::vector<double>& bits) {
  return xxhash64(bits.data(), bits.size() * sizeof(double));
}

class AuditUnique final : public Workload {
 public:
  using Workload::Workload;

  void prepare() override {
    inputs_ = std::make_unique<TenantInputs>(
        opts_, std::vector<TenantSpec>{{"zh", "Tianya", "Dodonew"}}, 0);
    // Every distinct password the harness generated for any service,
    // topped up from the corpus synthesizer, then shuffled by seed.
    StringSet distinct;
    for (const char* service :
         {"Tianya", "Dodonew", "CSDN", "Zhenai", "Weibo", "Rockyou",
          "Battlefield", "Yahoo", "Phpbb", "Singles", "Faithwriters"}) {
      for (const Dataset::Entry& e :
           inputs_->harness().dataset(service).sortedByFrequency()) {
        distinct.insert(e.password);
      }
    }
    const std::size_t want = kBatch * (opts_.smoke ? 8 : 196);
    Rng rng(deriveSeed(opts_.seed, 30));
    while (distinct.size() < want) distinct.insert(synthesizeEntry(rng).password);
    std::vector<std::string> all(distinct.begin(), distinct.end());
    std::sort(all.begin(), all.end());
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(want);
    for (std::size_t off = 0; off < want; off += kBatch) {
      batches_.emplace_back(all.begin() + static_cast<std::ptrdiff_t>(off),
                            all.begin() + static_cast<std::ptrdiff_t>(off + kBatch));
    }
  }

  void setUp(const std::string& dir) override {
    fleet_ = buildFleet(*inputs_, dir);
    const Span span("registry.loadTenant");
    fleet_.registry->loadTenant("zh");
  }

  void tearDown() override { fleet_ = Fleet{}; }

  PhaseResult measure(double seconds) override {
    if (reference_.empty()) computeReference();
    runFor(opts_.warmupSeconds(), nullptr);

    const obs::MetricsSnapshot before = obs::snapshot();
    const std::uint64_t start = nowNs();
    const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    WindowedSamples batchUs(start, end, windowsFor(seconds), kKeepPerWindow,
                            deriveSeed(opts_.seed, 31));
    runFor(seconds, &batchUs);
    const double wall = secondsSince(start);
    const obs::MetricsSnapshot after = obs::snapshot();

    const Summary all = summarizeAll({&batchUs}, 990000);
    PhaseResult r;
    r.workPerS = kBatch * medianWindowRate({&batchUs});
    r.opP50Us = medianWindowMedian({&batchUs});
    r.named = {{"audit_pps", r.workPerS, "1/s"},
               {"distinct_passwords",
                static_cast<double>(batches_.size() * kBatch), "count"}};
    addTiming(r.named, "batch", all, 1e-3, "ms");
    r.live = observedCounts(before, after);
    r.live.push_back({"loadgen.op_tail_us", all.tail, "us"});
    r.parses = static_cast<double>(after.counter(obs::Counter::ServeCacheMisses) -
                                   before.counter(obs::Counter::ServeCacheMisses));
    r.threadSeconds = wall * parallelWorkerCount(kBatch);
    return r;
  }

  void check() override {
    std::printf("audit-unique: %llu batches matched the artifact's digest, "
                "%llu did not\n",
                static_cast<unsigned long long>(digestsMatched_),
                static_cast<unsigned long long>(digestsMissed_));
  }

  LayerTarget layerTarget() override {
    LayerTarget t;
    t.registry = fleet_.registry.get();
    t.tenant = "zh";
    t.tenantLogDir = fleet_.root + "/zh";
    const std::size_t want = opts_.smoke ? 4096 : 50000;
    for (const auto& b : batches_) {
      for (const std::string& pw : b) {
        if (t.sample.size() < want) t.sample.push_back(pw);
        if (t.updates.size() < 10000) t.updates.push_back(pw);
      }
    }
    t.corpusPath = inputs_->trainingPath(0);
    return t;
  }

 private:
  /// FlatGrammarView::strengthBits over the trained artifact: what every
  /// served score must equal, and each batch's digest.
  void computeReference() {
    const auto artifact = GrammarArtifact::open(fleet_.artifactPaths[0]);
    for (const auto& b : batches_) {
      std::vector<double>& bits = reference_.emplace_back();
      for (const std::string& pw : b) bits.push_back(artifact->grammar().strengthBits(pw));
      referenceDigests_.push_back(digest(bits));
    }
  }

  /// Sends batches back to back for `seconds`, timing each into `batchUs`
  /// when given.
  void runFor(double seconds, WindowedSamples* batchUs) {
    const std::uint64_t end = nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
    std::vector<double> bits(kBatch);
    for (std::size_t k = 0; nowNs() < end; ++k) {
      const std::size_t b = k % batches_.size();
      tally_.attempt(kBatch);
      try {
        const std::uint64_t t0 = nowNs();
        std::vector<TenantMeter::Score> served;
        {
          const Span span("registry.scoreBatch", k);
          served = fleet_.registry->scoreBatch("zh", batches_[b], 0);
        }
        const std::uint64_t t1 = nowNs();
        if (batchUs != nullptr) batchUs->add(t1, static_cast<double>(t1 - t0) * 1e-3);
        for (std::size_t i = 0; i < kBatch; ++i) bits[i] = served[i].bits;
        if (digest(bits) == referenceDigests_[b]) {
          ++digestsMatched_;
        } else {
          ++digestsMissed_;
          for (std::size_t i = 0; i < kBatch; ++i) {
            if (!sameBits(bits[i], reference_[b][i])) {
              tally_.fail("audit: '" + batches_[b][i] + "' scored " +
                          std::to_string(bits[i]) + " bits, artifact says " +
                          std::to_string(reference_[b][i]));
            }
          }
        }
      } catch (const std::exception& e) {
        tally_.fail(std::string("scoreBatch: ") + e.what());
      }
    }
  }

  std::unique_ptr<TenantInputs> inputs_;
  std::vector<std::vector<std::string>> batches_;
  std::vector<std::vector<double>> reference_;
  std::vector<std::uint64_t> referenceDigests_;
  std::uint64_t digestsMatched_ = 0;
  std::uint64_t digestsMissed_ = 0;
  Fleet fleet_;
};

}  // namespace

std::unique_ptr<Workload> makeAuditUnique(const Options& opts) {
  return std::make_unique<AuditUnique>(opts);
}

}  // namespace fpsm::suite
