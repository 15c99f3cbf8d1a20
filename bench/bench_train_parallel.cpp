// Sharded-training speedup + per-stage breakdown: wall-clock time to
// stream-train a synthesized ~1M-password corpus at 1/2/4/8 threads
// against the 1-thread baseline (DESIGN.md §10), with each run's time
// split across the pipeline stages — read (getline + line parse), shard
// parse, merge, emit — so a regression is attributable to a stage, not
// just a total.
//
// Stage times come from the src/obs metrics layer (DESIGN.md §14): the
// trainer and DatasetReader are instrumented with StageTimer spans, the
// bench resets the registry before each run and reads the histogram sums
// after. In a FPSM_METRICS=OFF build those sums are zero and the stage
// columns report 0 — the totals and the determinism check still stand.
//
// Beyond the timing table this is a determinism check at benchmark scale:
// every configuration's merged counts are compiled to .fpsmb bytes and
// compared against the 1-thread artifact — a mismatch fails the bench
// with a non-zero exit. Results are written machine-readable to
// ./BENCH_train.json for CI trend tracking.
//
// Speedup is bounded by physical cores. When the host exposes fewer than
// two hardware threads (hardware_concurrency 0 or 1) every thread-count
// row would time the same serialized work, so the bench drops to a
// stage-profile mode: one 1-thread run, stage breakdown recorded,
// "speedup_valid": false and null speedups in the json so trend tooling
// can never mistake single-core numbers for a scaling result.
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "artifact/artifact.h"
#include "bench_common.h"
#include "core/fuzzy_psm.h"
#include "corpus/dataset_reader.h"
#include "obs/metrics.h"
#include "train/sharded_trainer.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/wordlists.h"

using namespace fpsm;

namespace {

FuzzyPsm makeBase() {
  FuzzyConfig config;
  config.matchReverse = true;
  FuzzyPsm psm(config);
  for (const auto w : words::commonPasswords()) psm.addBaseWord(w);
  for (const auto w : words::englishWords()) psm.addBaseWord(w);
  for (const auto w : words::englishNames()) psm.addBaseWord(w);
  for (const auto w : words::pinyinWords()) psm.addBaseWord(w);
  for (const auto w : words::keyboardWalks()) psm.addBaseWord(w);
  return psm;
}

/// Synthesizes a training corpus shaped like real leaks: dictionary words
/// with mangling (suffix digits, capitalization, leet), pure-digit idioms,
/// and unmatchable random runs that exercise the L/D/S fallback.
std::vector<Dataset::Entry> synthesizeCorpus(std::size_t n) {
  const auto common = words::commonPasswords();
  const auto english = words::englishWords();
  const auto names = words::englishNames();
  const auto digits = words::digitStrings();
  Rng rng(20160628);  // the paper's DSN year+month+day
  std::vector<Dataset::Entry> entries;
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string pw;
    switch (rng.below(8)) {
      case 0: pw = std::string(common[rng.below(common.size())]); break;
      case 1: pw = std::string(english[rng.below(english.size())]); break;
      case 2:
        pw = std::string(english[rng.below(english.size())]) +
             std::to_string(rng.below(10000));
        break;
      case 3: {
        pw = std::string(names[rng.below(names.size())]);
        pw[0] = static_cast<char>(pw[0] - 'a' + 'A');
        pw += std::to_string(1950 + rng.below(70));
        break;
      }
      case 4: pw = std::string(digits[rng.below(digits.size())]); break;
      case 5: {
        pw = std::string(english[rng.below(english.size())]);
        for (auto& c : pw) {
          if (c == 'a') c = '@';
          if (c == 'o') c = '0';
        }
        break;
      }
      case 6:
        pw = std::string(common[rng.below(common.size())]) + "!";
        break;
      default: {
        pw.clear();
        const std::size_t len = 6 + rng.below(6);
        for (std::size_t k = 0; k < len; ++k) {
          pw += static_cast<char>('!' + rng.below(94));
        }
        break;
      }
    }
    entries.push_back(Dataset::Entry{pw, 1 + rng.below(3)});
  }
  return entries;
}

std::vector<std::byte> artifactBytes(const FuzzyPsm& base,
                                     const GrammarCounts& counts) {
  return writeArtifact(base.config(), base.baseWords(),
                       FlatTrie::fromTrie(base.baseDictionary()),
                       FlatTrie::fromTrie(base.reversedDictionary()), counts);
}

/// Per-run pipeline stage times, in milliseconds. read/parse/merge come
/// from the obs histogram sums the instrumented pipeline recorded (all
/// zero under FPSM_METRICS=OFF); emit and total are wall clock.
struct Stages {
  double readMs = 0;
  double parseMs = 0;
  double mergeMs = 0;
  double emitMs = 0;
};

double histoSumMs(const obs::MetricsSnapshot& snap, obs::Histo id) {
  return static_cast<double>(snap.histogram(id).sum) / 1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::scaleFromArgs(argc, argv, 1.0);
  const auto entryCount =
      static_cast<std::size_t>(1'000'000 * scale);

  // hardware_concurrency() is the real parallelism ceiling: 0 means
  // "unknown", 1 means the scheduler has a single core to hand out, and
  // in either case extra thread-count rows time the same serialized work.
  // Profile one thread honestly instead of fabricating a speedup column.
  const unsigned hw = std::thread::hardware_concurrency();
  const bool speedupValid = hw >= 2;
  const std::vector<unsigned> threadCounts =
      speedupValid ? std::vector<unsigned>{1, 2, 4, 8}
                   : std::vector<unsigned>{1};

  std::printf("sharded training speedup + stage breakdown (DESIGN.md §10)\n");
  std::printf("corpus: %zu synthesized entries, hardware_concurrency=%u\n",
              entryCount, hw);
  if (!speedupValid) {
    std::printf(
        "single-core host: stage-profile mode — one 1-thread run, no "
        "speedup column (json says \"speedup_valid\": false)\n");
  }

  const FuzzyPsm base = makeBase();
  const auto entries = synthesizeCorpus(entryCount);

  // The runs stream from disk so the read stage is real: write the corpus
  // once, then every configuration trains through DatasetReader exactly
  // like `fuzzypsm train` does.
  const std::string corpusPath = "BENCH_train_corpus.tmp";
  {
    std::ofstream out(corpusPath, std::ios::trunc);
    for (const Dataset::Entry& e : entries) {
      out << e.password << '\t' << e.count << '\n';
    }
    if (!out.flush()) {
      std::fprintf(stderr, "cannot write %s\n", corpusPath.c_str());
      return 1;
    }
  }

  struct Row {
    unsigned threads;
    double ms;
    double speedup;  // 0 when !speedupValid (json writes null)
    Stages stages;
  };
  std::vector<Row> rows;
  std::vector<std::byte> reference;
  bool byteIdentical = true;

  std::printf("\n%8s %10s %9s %9s %9s %9s %9s  artifact\n", "threads",
              "train ms", "read ms", "parse ms", "merge ms", "emit ms",
              "speedup");
  for (const unsigned threads : threadCounts) {
    TrainOptions options;
    options.threads = threads;
    const ShardedTrainer trainer(base, options);

    // Delta-free accounting: zero the registry, run, read the sums.
    obs::resetForTest();
    DatasetReader reader(corpusPath);
    Timer timer;
    const GrammarCounts counts = trainer.countStream(reader);
    const double ms = timer.millis();

    Timer emitTimer;
    const std::vector<std::byte> bytes = artifactBytes(base, counts);
    Stages stages;
    stages.emitMs = emitTimer.millis();
    const obs::MetricsSnapshot snap = obs::snapshot();
    stages.readMs = histoSumMs(snap, obs::Histo::TrainReadChunk);
    stages.parseMs = histoSumMs(snap, obs::Histo::TrainShardParse);
    stages.mergeMs = histoSumMs(snap, obs::Histo::TrainMerge);

    if (rows.empty()) reference = bytes;
    const bool same = bytes == reference;
    byteIdentical = byteIdentical && same;

    const double speedup =
        !speedupValid ? 0.0 : (rows.empty() ? 1.0 : rows.front().ms / ms);
    rows.push_back(Row{threads, ms, speedup, stages});
    if (speedupValid) {
      std::printf("%8u %10.1f %9.1f %9.1f %9.1f %9.1f %8.2fx  %s\n",
                  threads, ms, stages.readMs, stages.parseMs,
                  stages.mergeMs, stages.emitMs, speedup,
                  same ? "byte-identical" : "MISMATCH");
    } else {
      std::printf("%8u %10.1f %9.1f %9.1f %9.1f %9.1f %9s  %s\n", threads,
                  ms, stages.readMs, stages.parseMs, stages.mergeMs,
                  stages.emitMs, "n/a",
                  same ? "byte-identical" : "MISMATCH");
    }
  }
  std::remove(corpusPath.c_str());

  std::ofstream json("BENCH_train.json");
  json << "{\n";
  json << "  \"bench\": \"train_parallel\",\n";
  json << "  \"entries\": " << entryCount << ",\n";
  json << "  \"hardware_concurrency\": " << hw << ",\n";
  json << "  \"metrics_enabled\": " << (FPSM_METRICS_ENABLED ? "true" : "false")
       << ",\n";
  json << "  \"baseline_ms\": " << rows.front().ms << ",\n";
  json << "  \"byte_identical\": " << (byteIdentical ? "true" : "false")
       << ",\n";
  json << "  \"speedup_valid\": " << (speedupValid ? "true" : "false")
       << ",\n";
  json << "  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"threads\": " << r.threads << ", \"ms\": " << r.ms
         << ", \"speedup\": ";
    if (speedupValid) {
      json << r.speedup;
    } else {
      json << "null";
    }
    json << ",\n";
    json << "     \"stages\": {\"read_ms\": " << r.stages.readMs
         << ", \"parse_ms\": " << r.stages.parseMs
         << ", \"merge_ms\": " << r.stages.mergeMs
         << ", \"emit_ms\": " << r.stages.emitMs << "}}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n";
  json << "}\n";
  json.close();
  std::printf("\nwrote BENCH_train.json\n");

  if (!byteIdentical) {
    std::fprintf(stderr,
                 "FAIL: artifacts differ across thread counts — the "
                 "deterministic-merge contract is broken\n");
    return 1;
  }
  return 0;
}
