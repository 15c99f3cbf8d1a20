// fuzzypsm — command-line front end to the library.
//
// A grammar file is always a compiled .fpsmb artifact (src/artifact/
// format.h): `train` writes one, and every command that reads one opens it
// through GrammarArtifact, so a file that is not an artifact fails with
// [bad-magic].
//
//   fuzzypsm train --base BASE.txt --training TRAIN.txt --out GRAMMAR.fpsmb
//            [--threads N] [--reverse] [--prior P] [--min-base-len N]
//       Train a fuzzy PCFG from two password files (lines: "pw" or
//       "pw<TAB>count") and write it as an .fpsmb artifact. Training
//       streams the corpus in chunks and parses them sharded across N
//       threads (src/train/sharded_trainer.h); the artifact is compiled
//       straight from the merged counts and is byte-identical for any
//       thread count. The output is reopened through the validating loader
//       before the command reports success.
//
//   fuzzypsm measure --grammar GRAMMAR [--seed S] [--samples N] [PW...]
//       Score passwords (args, or stdin lines when none given): bits,
//       bucket, Monte Carlo guess number.
//
//   fuzzypsm suggest --grammar GRAMMAR --target BITS [--seed S] PW...
//       Propose stronger variants within 2 edits (H&A-style).
//
//   fuzzypsm explain --grammar GRAMMAR PW...
//       Print the full Fig.-11-style derivation of each password.
//
//   fuzzypsm guesses --grammar GRAMMAR --n N
//       Emit the model's top-N guesses in decreasing probability order
//       (the "meters are crackers" duality, paper footnote 6).
//
//   fuzzypsm generate --service NAME --scale S --seed N --out FILE.txt
//       Write a synthetic leak for one of the paper's 11 services.
//
//   fuzzypsm serve-bench (--grammar GRAMMAR | --tenants ROOT) [--threads N]
//            [--duration-ms MS] [--pool N] [--seed S] [--batch N]
//            [--budget BYTES] [--json FILE] [--metrics-dump FILE]
//       Drive mixed traffic through a GrammarRegistry: N reader threads
//       pick a random tenant per call and score passwords sampled from its
//       grammar, while a writer routes update() and compacts a random
//       tenant periodically (each compaction publishes a gated, logged
//       generation). --tenants serves an existing registry root; --grammar
//       registers GRAMMAR as the only tenant of a scratch root under the
//       system temp dir, removed when the command exits. Prints aggregate
//       scores/sec, cold loads, evictions, compactions, and a per-tenant
//       table. With --batch N (N >= 1) readers issue scoreBatch() calls of
//       N passwords instead of single score() calls and the report adds
//       per-call p50/p95/p99 latency. --budget BYTES caps resident bytes so
//       cold loads and LRU evictions happen mid-traffic. --json FILE
//       additionally writes the results machine-readable (the
//       "serve-bench-tenants" shape). --metrics-dump FILE writes the
//       process-wide metrics snapshot (src/obs, DESIGN.md §14) after the
//       run — readable later with `fuzzypsm stats --file FILE`.
//
//   fuzzypsm stats (--file DUMP.json | --grammar GRAMMAR [--seed S] [PW...])
//            [--json]
//       Render a metrics snapshot. With --file, re-render a dump written
//       by --metrics-dump (the line-oriented JSON format of DESIGN.md §14)
//       as a human-readable table, or echo it verbatim with --json. With
//       --grammar, lint the artifact (an Error-severity finding fails the
//       command, as it would fail OnlineUpdater's gate), then run a small
//       worked example — score the given passwords (or a few sampled from
//       the grammar) twice through a TenantMeter serving the artifact plus
//       one scoreBatch call — and print the live snapshot, showing cache
//       hits/misses and latency histograms end to end. Under a
//       FPSM_METRICS=OFF build every metric renders as zero; the shape of
//       both outputs is identical.
//
//   fuzzypsm inspect --artifact FILE.fpsmb
//       Validate an artifact and print its header, section table, and a
//       grammar summary.
//
//   fuzzypsm lint-grammar --grammar GRAMMAR [--json]
//       Load an artifact (the loader rejects any defect within one
//       section) and audit what spans sections zero-copy
//       (analysis/grammar_lint.h): dangling B_n references, counters that
//       drift apart, base words the tries cannot reach. Exit code is the
//       worst severity found: 0 clean/info, 1 warnings, 2 errors.
//
//   fuzzypsm update-loop --log DIR --stream FILE [--grammar GRAMMAR]
//            [--compact-every N] [--threads N] [--metrics-dump FILE]
//       Drive the streaming adaptive loop (src/online): bootstrap a
//       generation log at DIR from GRAMMAR (or resume if DIR already has
//       generations — then --grammar is ignored), accept every password of
//       the update stream, and compact a new .fpsmb generation every N
//       accepted occurrences (default 10000) plus once at end-of-stream.
//       Each generation is appended to the log, lint-gated, and published
//       without blocking scorers; rejected generations roll back and are
//       reported. A grammar the lint rejects cannot bootstrap, and resume
//       skips a rejected generation and serves the one before it. Prints
//       the final published sequence. The run is deterministic: the same
//       inputs and cadence produce byte-identical generations at any
//       --threads. --metrics-dump FILE writes the metrics snapshot after
//       the run (online.compact.* stage latencies, gate rejections, queue
//       depth).
//
//   fuzzypsm log inspect --dir DIR [--verify] [--json]
//       Print a generation log's manifest — sequence, file, size, checksum
//       per committed generation — plus anything recovery had to skip
//       (torn tail line, quarantined generations). --verify re-checksums
//       every generation file from scratch; --json emits the same facts
//       machine-readable (sequence, bytes, checksum, per-entry status, and
//       every skip's reason/detail). Exit code 1 if recovery skipped
//       anything or verification found damage, else 0.
//
//   fuzzypsm log gc --dir DIR --keep N
//       Retire all but the newest N committed generations: the manifest is
//       rewritten crash-safely (MANIFEST.tmp + rename) before any file is
//       deleted, then every gen-*.fpsmb strictly older than the kept
//       window — retired generations, old orphans, old quarantined files —
//       is removed. A crash at any point leaves a state the next open
//       recovers from (src/online/generation_log.h).
//
//   fuzzypsm tenants <list|add|evict|stats> --root DIR [--tenant ID]
//            [--grammar GRAMMAR] [--budget BYTES] [--json]
//       Operate a multi-tenant registry rooted at DIR (one subdirectory =
//       one tenant's generation log, src/registry). `add` registers a new
//       tenant whose generation 1 is the bytes of GRAMMAR — refused, with
//       nothing written, if they do not load or the grammar lint rejects
//       them — then cold-loads it through the registry to prove it serves. `evict` loads then
//       evicts one tenant, flushing pending updates to its log (exit 1 if
//       the tenant was pinned or compacting). `list` and `stats` render the
//       per-tenant table and aggregate counters.
//
// Each command accepts exactly the options listed for it above: any other
// --name is an error, reported before the command runs. The parallel
// commands (train, serve-bench, update-loop) honor --threads, falling back
// to the FPSM_THREADS environment variable and then to an automatic choice
// (util/parallel.h). -o is shorthand for --out.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/grammar_lint.h"
#include "artifact/artifact.h"
#include "core/explain.h"
#include "core/fuzzy_psm.h"
#include "core/suggest.h"
#include "corpus/dataset_reader.h"
#include "corpus/io.h"
#include "model/buckets.h"
#include "model/montecarlo.h"
#include "obs/metrics.h"
#include "online/generation_log.h"
#include "online/online_updater.h"
#include "registry/grammar_registry.h"
#include "serve/tenant_meter.h"
#include "stats/rank.h"
#include "synth/generator.h"
#include "train/sharded_trainer.h"
#include "trie/flat_trie.h"
#include "util/error.h"
#include "util/format.h"
#include "util/parallel.h"
#include "util/simd.h"

using namespace fpsm;

namespace {

struct Args {
  std::vector<std::string> positional;
  StringMap<std::string> options;
  StringSet flags;

  bool flag(const std::string& name) const { return flags.contains(name); }
  std::string option(const std::string& name,
                     const std::string& fallback = "") const {
    const auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
  std::string requiredOption(const std::string& name) const {
    const auto it = options.find(name);
    if (it == options.end()) {
      throw InvalidArgument("missing required option --" + name);
    }
    return it->second;
  }
};

/// One command: its handler and the names it reads, as options (which take
/// the next argument as their value) and flags (which take none).
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> options;
  std::vector<std::string_view> flags;
};

/// Parses argv[2..] for `command`. A --name the command does not read is
/// an error, so a misspelled or removed option never passes silently.
Args parseArgs(const Command& command, int argc, char** argv) {
  const auto reads = [](const std::vector<std::string_view>& names,
                        std::string_view name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a == "-o") a = "--out";  // shorthand
    if (a.rfind("--", 0) != 0) {
      args.positional.emplace_back(a);
      continue;
    }
    const std::string name(a.substr(2));
    if (reads(command.flags, name)) {
      args.flags.insert(name);
    } else if (!reads(command.options, name)) {
      throw InvalidArgument("unknown option --" + name + " for " +
                            std::string(command.name));
    } else if (i + 1 == argc) {
      throw InvalidArgument("option --" + name + " needs a value");
    } else {
      args.options.emplace(name, argv[++i]);
    }
  }
  return args;
}

Dataset loadFile(const std::string& path, const char* what) {
  Dataset ds(path);
  const LoadStats stats = loadDatasetFile(path, ds);
  std::fprintf(stderr, "%s: %s passwords (%s rejected)\n", what,
               fmtCount(stats.accepted).c_str(),
               fmtCount(stats.rejected).c_str());
  return ds;
}

FuzzyPsm loadGrammar(const Args& args) {
  return FuzzyPsm::fromArtifact(
      *GrammarArtifact::open(args.requiredOption("grammar")));
}

/// The bytes of a grammar file, for GrammarRegistry::addTenant, which
/// loads them as an artifact and runs the trust gate on them before
/// anything touches disk.
std::vector<char> readGrammarBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open grammar: " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The global threading knob: --threads when given (>= 1), else the
/// FPSM_THREADS environment variable, else `fallback` (0 = let
/// parallelWorkerCount decide from the workload).
unsigned threadsOption(const Args& args, unsigned fallback = 0) {
  if (const auto t = args.option("threads"); !t.empty()) {
    const unsigned v = static_cast<unsigned>(std::stoul(t));
    if (v == 0) throw InvalidArgument("--threads must be >= 1");
    return v;
  }
  if (const unsigned env = envThreadRequest(); env != 0) return env;
  return fallback;
}

FuzzyConfig configFromArgs(const Args& args) {
  FuzzyConfig config;
  config.matchReverse = args.flag("reverse");
  if (const auto p = args.option("prior"); !p.empty()) {
    config.transformationPrior = std::stod(p);
  }
  if (const auto m = args.option("min-base-len"); !m.empty()) {
    config.minBaseWordLen = std::stoul(m);
  }
  return config;
}

/// Streams the training file through the sharded trainer and returns the
/// merged counts (reporting cleaning stats like loadFile does).
GrammarCounts trainCounts(const FuzzyConfig& config, const FlatTrie& trie,
                          const FlatTrie& reversedTrie,
                          const std::string& path, unsigned threads) {
  TrainOptions options;
  options.threads = threads;
  const ShardedTrainer trainer(config, trie.view(), reversedTrie.view(),
                               options);
  DatasetReader reader(path);
  const GrammarCounts counts = trainer.countStream(reader);
  const LoadStats& stats = reader.stats();
  std::fprintf(stderr,
               "training: %s passwords (%s rejected, %s CRLF line endings, "
               "%s BOM)\n",
               fmtCount(stats.accepted).c_str(),
               fmtCount(stats.rejected).c_str(),
               fmtCount(stats.crlfNormalized).c_str(),
               fmtCount(stats.bomsStripped).c_str());
  return counts;
}

int cmdTrain(const Args& args) {
  FuzzyPsm psm(configFromArgs(args));
  psm.loadBaseDictionary(loadFile(args.requiredOption("base"), "base"));
  // Each trie is flattened once: the trainer parses through the flat tries
  // and the writer serializes the same ones.
  const FlatTrie trie = FlatTrie::fromTrie(psm.baseDictionary());
  const FlatTrie reversedTrie = FlatTrie::fromTrie(psm.reversedDictionary());
  const GrammarCounts counts =
      trainCounts(psm.config(), trie, reversedTrie,
                  args.requiredOption("training"), threadsOption(args));

  // Compile the artifact straight from the merged counts — no second
  // FuzzyPsm.
  const std::vector<std::byte> bytes = writeArtifact(
      psm.config(), psm.baseWords(), trie, reversedTrie, counts);
  const std::string out = args.requiredOption("out");
  std::FILE* file = std::fopen(out.c_str(), "wb");
  if (file == nullptr) throw IoError("cannot write artifact: " + out);
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  if (std::fclose(file) != 0 || !written) {
    throw IoError("write to " + out + " failed");
  }
  // Re-open through the validating loader: a train that produces an
  // unreadable artifact must fail here, not at serving time.
  const auto artifact = GrammarArtifact::open(out);
  std::fprintf(stderr,
               "artifact written to %s (%s bytes, %s base words, "
               "%s structures)\n",
               out.c_str(), fmtCount(artifact->sizeBytes()).c_str(),
               fmtCount(artifact->grammar().baseWordCount()).c_str(),
               fmtCount(artifact->grammar().structures().distinct()).c_str());
  return 0;
}

int cmdMeasure(const Args& args) {
  const FuzzyPsm psm = loadGrammar(args);
  Rng rng(std::stoull(args.option("seed", "7")));
  const std::size_t samples = std::stoul(args.option("samples", "20000"));
  const MonteCarloEstimator mc(psm, samples, rng);
  const BucketThresholds buckets;

  auto measure = [&](const std::string& pw) {
    if (!isValidPassword(pw)) {
      std::printf("%-24s  <invalid password>\n", pw.c_str());
      return;
    }
    const double bits = psm.strengthBits(pw);
    const double guesses = mc.guessNumber(psm.log2Prob(pw));
    std::printf("%-24s %8.2f bits  %-6s  ~%s guesses\n", pw.c_str(), bits,
                std::string(bucketName(buckets.bucketOf(bits))).c_str(),
                guesses >= 1e15
                    ? ">1e15"
                    : fmtCount(static_cast<std::uint64_t>(guesses)).c_str());
  };

  if (args.positional.empty()) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!line.empty()) measure(line);
    }
  } else {
    for (const auto& pw : args.positional) measure(pw);
  }
  return 0;
}

int cmdSuggest(const Args& args) {
  const FuzzyPsm psm = loadGrammar(args);
  Rng rng(std::stoull(args.option("seed", "7")));
  SuggestionConfig config;
  config.targetBits = std::stod(args.option("target", "40"));
  for (const auto& pw : args.positional) {
    const auto s = suggestStrongerPassword(psm, pw, config, rng);
    if (s) {
      std::printf("%-24s -> %-24s (%.1f bits, %d edit%s)\n", pw.c_str(),
                  s->password.c_str(), s->bits, s->edits,
                  s->edits == 1 ? "" : "s");
    } else {
      std::printf("%-24s -> no suggestion within %d edits\n", pw.c_str(),
                  config.maxEdits);
    }
  }
  return 0;
}

int cmdExplain(const Args& args) {
  const FuzzyPsm psm = loadGrammar(args);
  for (const auto& pw : args.positional) {
    if (!isValidPassword(pw)) {
      std::printf("%s: <invalid password>\n", pw.c_str());
      continue;
    }
    std::printf("%s:\n%s", pw.c_str(),
                explainDerivation(psm, pw).render().c_str());
  }
  return 0;
}

int cmdGuesses(const Args& args) {
  const FuzzyPsm psm = loadGrammar(args);
  const std::uint64_t n = std::stoull(args.option("n", "100"));
  psm.enumerateGuesses(n, [](std::string_view guess, double lp) {
    std::printf("%s\t%.3f\n", std::string(guess).c_str(), lp);
    return true;
  });
  return 0;
}

int cmdGenerate(const Args& args) {
  const double scale = std::stod(args.option("scale", "0.004"));
  const std::uint64_t seed = std::stoull(args.option("seed", "1"));
  const auto profile =
      ServiceProfile::byName(args.requiredOption("service"), scale);
  PopulationModel population(100000, 100000, seed);
  DatasetGenerator generator(population, SurveyModel::paper(), seed ^ 0xABCD);
  const Dataset ds = generator.generate(profile);
  const std::string out = args.requiredOption("out");
  saveDatasetFile(ds, out);
  std::fprintf(stderr, "%s: %s passwords (%s distinct) -> %s\n",
               profile.name.c_str(), fmtCount(ds.total()).c_str(),
               fmtCount(ds.unique()).c_str(), out.c_str());
  return 0;
}

/// --metrics-dump FILE: write the process-wide metrics snapshot as the
/// line-oriented JSON of DESIGN.md §14. No-op when the option is absent.
/// Under FPSM_METRICS=OFF builds the dump still has every metric listed
/// (all zero), so downstream tooling sees a stable shape.
void maybeWriteMetricsDump(const Args& args) {
  const std::string path = args.option("metrics-dump");
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw IoError("cannot write metrics dump: " + path);
  out << obs::snapshot().renderJson();
  out.flush();
  if (!out) throw IoError("write to " + path + " failed");
  std::fprintf(stderr, "metrics dump written to %s\n", path.c_str());
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void printTenantTable(const std::vector<GrammarRegistry::TenantInfo>& infos);

/// A fresh directory under the system temp dir, removed with everything in
/// it when the object goes out of scope (also while an error unwinds).
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& prefix) {
    std::string name =
        (std::filesystem::temp_directory_path() / (prefix + "-XXXXXX"))
            .string();
    if (mkdtemp(name.data()) == nullptr) {
      throw IoError("cannot create scratch directory " + name);
    }
    path_ = std::move(name);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// serve-bench: mixed traffic routed through the GrammarRegistry at
/// `root`. Per-tenant request pools are sampled from each tenant's newest
/// committed generation BEFORE the registry spins up any serving unit, so
/// pool construction never competes with (or pre-warms) the cold-load
/// path being measured.
int runServeBench(const Args& args, const std::string& root) {
  const unsigned threads = threadsOption(args, 4);
  const auto duration =
      std::chrono::milliseconds(std::stoul(args.option("duration-ms", "2000")));
  const std::size_t poolSize = std::stoul(args.option("pool", "512"));
  const std::size_t batchSize = std::stoul(args.option("batch", "0"));
  const std::uint64_t seed = std::stoull(args.option("seed", "7"));
  if (poolSize == 0) throw InvalidArgument("--pool must be >= 1");

  GrammarRegistryConfig cfg;
  cfg.rootDir = root;
  if (const auto b = args.option("budget"); !b.empty()) {
    cfg.residentBytesBudget = std::stoull(b);
  }

  // Pool pass: read each tenant's newest generation with a throwaway
  // mmap + model, scoped so nothing survives into the serving phase.
  std::vector<std::string> ids;
  std::vector<std::vector<std::string>> pools;
  {
    GrammarRegistry probe(cfg);
    ids = probe.tenantIds();
  }
  if (ids.empty()) {
    throw InvalidArgument("no tenants under " + cfg.rootDir +
                          " (register some with `fuzzypsm tenants add`)");
  }
  Rng rng(seed);
  for (const auto& id : ids) {
    GenerationLog log(cfg.rootDir + "/" + id);
    if (log.entries().empty()) {
      throw InvalidArgument("tenant " + id + " has an empty generation log");
    }
    const auto artifact =
        GrammarArtifact::open(log.pathFor(log.entries().back().sequence));
    const FuzzyPsm psm = FuzzyPsm::fromArtifact(*artifact);
    std::vector<std::string> pool;
    pool.reserve(poolSize);
    for (std::size_t i = 0; i < poolSize; ++i) pool.push_back(psm.sample(rng));
    pools.push_back(std::move(pool));
  }

  GrammarRegistry registry(cfg);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> totalScores{0};
  std::vector<std::vector<double>> latencySamples(threads);
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      Rng threadRng(1000 + t);
      std::uint64_t local = 0;
      std::vector<std::string> request(batchSize);
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t which = threadRng.below(ids.size());
        const auto& pool = pools[which];
        if (batchSize == 0) {
          (void)registry.score(ids[which],
                               pool[threadRng.below(pool.size())]);
          ++local;
        } else {
          for (auto& pw : request) pw = pool[threadRng.below(pool.size())];
          const auto t0 = std::chrono::steady_clock::now();
          (void)registry.scoreBatch(ids[which], request);
          const auto t1 = std::chrono::steady_clock::now();
          latencySamples[t].push_back(
              std::chrono::duration<double, std::micro>(t1 - t0).count());
          local += batchSize;
        }
      }
      totalScores.fetch_add(local, std::memory_order_relaxed);
    });
  }
  std::atomic<std::uint64_t> compactions{0};
  std::thread writer([&] {
    Rng writerRng(31337);
    std::uint64_t accepted = 0;
    while (!stop.load(std::memory_order_acquire)) {
      for (int i = 0; i < 8; ++i) {
        const std::size_t which = writerRng.below(ids.size());
        registry.update(ids[which],
                        pools[which][writerRng.below(poolSize)], 1);
        ++accepted;
      }
      // Periodic compaction of a random tenant: exercises the busy flag
      // against the eviction scan and appends real generations mid-run.
      if (accepted >= 512) {
        accepted = 0;
        registry.compactTenant(ids[writerRng.below(ids.size())]);
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

  const auto stats = registry.stats();
  const auto infos = registry.tenants();
  std::printf("tenants: %zu under %s, readers: %u, writer: 1\n", ids.size(),
              cfg.rootDir.c_str(), threads);
  if (cfg.residentBytesBudget > 0) {
    std::printf("budget: %s resident bytes (evictions expected)\n",
                fmtCount(cfg.residentBytesBudget).c_str());
  }
  std::printf("scores: %s in %.2f s -> %s scores/sec routed\n",
              fmtCount(totalScores.load()).c_str(), secs,
              fmtCount(static_cast<std::uint64_t>(
                           static_cast<double>(totalScores.load()) / secs))
                  .c_str());
  std::printf(
      "registry: %llu cold loads, %llu evictions (%llu flushed), "
      "%llu compactions, %s resident bytes\n",
      static_cast<unsigned long long>(stats.coldLoads),
      static_cast<unsigned long long>(stats.evictions),
      static_cast<unsigned long long>(stats.evictFlushes),
      static_cast<unsigned long long>(compactions.load()),
      fmtCount(stats.residentBytes).c_str());
  printTenantTable(infos);

  std::vector<double> latencies;
  for (auto& samples : latencySamples) {
    latencies.insert(latencies.end(), samples.begin(), samples.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50 = nearestRankPercentile(latencies, 0.50);
  const double p95 = nearestRankPercentile(latencies, 0.95);
  const double p99 = nearestRankPercentile(latencies, 0.99);
  if (batchSize > 0) {
    std::printf(
        "scoreBatch latency over %s calls: p50 %.1f us, p95 %.1f us, "
        "p99 %.1f us\n",
        fmtCount(latencies.size()).c_str(), p50, p95, p99);
  }

  if (const std::string jsonPath = args.option("json"); !jsonPath.empty()) {
    std::ofstream json(jsonPath);
    if (!json) throw IoError("cannot write " + jsonPath);
    json << "{\n";
    json << "  \"bench\": \"serve-bench-tenants\",\n";
    json << "  \"tenants\": " << ids.size() << ",\n";
    json << "  \"readers\": " << threads << ",\n";
    json << "  \"batch_size\": " << batchSize << ",\n";
    json << "  \"duration_ms\": " << duration.count() << ",\n";
    json << "  \"budget_bytes\": " << cfg.residentBytesBudget << ",\n";
    json << "  \"hardware_concurrency\": "
         << std::thread::hardware_concurrency() << ",\n";
    json << "  \"simd\": \"" << simdLevelName(activeSimdLevel()) << "\",\n";
    json << "  \"scores\": " << totalScores.load() << ",\n";
    json << "  \"scores_per_sec\": "
         << (static_cast<double>(totalScores.load()) / secs) << ",\n";
    json << "  \"cold_loads\": " << stats.coldLoads << ",\n";
    json << "  \"evictions\": " << stats.evictions << ",\n";
    json << "  \"evict_flushes\": " << stats.evictFlushes << ",\n";
    json << "  \"compactions\": " << compactions.load() << ",\n";
    json << "  \"resident_bytes\": " << stats.residentBytes << ",\n";
    if (batchSize > 0) {
      json << "  \"calls\": " << latencies.size() << ",\n";
      json << "  \"p50_us\": " << p50 << ",\n";
      json << "  \"p95_us\": " << p95 << ",\n";
      json << "  \"p99_us\": " << p99 << ",\n";
    } else {
      json << "  \"calls\": " << totalScores.load() << ",\n";
    }
    json << "  \"per_tenant\": [\n";
    for (std::size_t i = 0; i < infos.size(); ++i) {
      const auto& info = infos[i];
      json << "    {\"tenant\": \"" << jsonEscape(info.id)
           << "\", \"routed_scores\": " << info.routedScores
           << ", \"routed_updates\": " << info.routedUpdates
           << ", \"cold_loads\": " << info.coldLoads
           << ", \"evictions\": " << info.evictions << "}"
           << (i + 1 < infos.size() ? "," : "") << "\n";
    }
    json << "  ]\n";
    json << "}\n";
    std::fprintf(stderr, "wrote %s\n", jsonPath.c_str());
  }
  maybeWriteMetricsDump(args);
  return 0;
}

int cmdServeBench(const Args& args) {
  if (const std::string root = args.option("tenants"); !root.empty()) {
    return runServeBench(args, root);
  }
  // --grammar: the grammar becomes the only tenant of a scratch registry,
  // so it is served, updated and published exactly like a registry tenant.
  const ScratchDir scratch("fuzzypsm-serve-bench");
  {
    GrammarRegistryConfig cfg;
    cfg.rootDir = scratch.path();
    const std::vector<char> bytes =
        readGrammarBytes(args.requiredOption("grammar"));
    GrammarRegistry(cfg).addTenant("grammar", bytes.data(), bytes.size());
  }
  return runServeBench(args, scratch.path());
}

int cmdInspect(const Args& args) {
  std::string path = args.option("artifact");
  if (path.empty() && !args.positional.empty()) path = args.positional[0];
  if (path.empty()) throw InvalidArgument("missing --artifact FILE.fpsmb");
  const auto artifact = GrammarArtifact::open(path);
  const FlatGrammarView& g = artifact->grammar();

  std::printf("%s: fpsmb version %u, %s bytes%s\n", path.c_str(),
              artifact->formatVersion(),
              fmtCount(artifact->sizeBytes()).c_str(),
              artifact->memoryMapped() ? " (mmap)" : "");
  std::printf("sections:\n");
  for (const auto& s : artifact->sections()) {
    std::printf("  %-12s offset=%-10llu bytes=%-10llu xxh64=%016llx\n",
                artifactSectionName(s.id),
                static_cast<unsigned long long>(s.offset),
                static_cast<unsigned long long>(s.bytes),
                static_cast<unsigned long long>(s.checksum));
  }
  std::printf("config: minBaseWordLen=%zu cap=%d leet=%d retry=%d "
              "reverse=%d prior=%g\n",
              g.config().minBaseWordLen, g.config().matchCapitalization,
              g.config().matchLeet, g.config().retryTrieInsideRuns,
              g.config().matchReverse, g.config().transformationPrior);
  std::printf("base dictionary: %s words, trie %s nodes / %s edges\n",
              fmtCount(g.baseWordCount()).c_str(),
              fmtCount(g.baseDictionary().nodeCount()).c_str(),
              fmtCount(g.baseDictionary().edgeCount()).c_str());
  std::printf("structures: %s distinct / %s total\n",
              fmtCount(g.structures().distinct()).c_str(),
              fmtCount(g.structures().total()).c_str());
  std::uint64_t segDistinct = 0;
  for (const auto& [len, table] : g.segmentTables()) {
    (void)len;
    segDistinct += table.distinct();
  }
  std::printf("segments: %s tables, %s distinct forms\n",
              fmtCount(g.segmentTables().size()).c_str(),
              fmtCount(segDistinct).c_str());
  std::printf("trained passwords: %s%s\n",
              fmtCount(g.trainedPasswords()).c_str(),
              g.trained() ? "" : " (NOT trained)");
  return 0;
}

int cmdLintGrammar(const Args& args) {
  std::string path = args.option("grammar");
  if (path.empty() && !args.positional.empty()) path = args.positional[0];
  if (path.empty()) throw InvalidArgument("missing --grammar GRAMMAR");

  const LintReport report = lintGrammarFile(path);
  if (args.flag("json")) {
    std::printf("%s\n", report.renderJson().c_str());
  } else {
    std::printf("%s", report.render().c_str());
  }
  return static_cast<int>(report.worst());
}

/// Pulls one field out of a single metric line of the DESIGN.md §14 dump
/// format ("key": 123 or "key": "text"). The format writes one metric
/// object per line precisely so this kind of line-oriented extraction
/// works without a JSON parser.
std::optional<std::string> dumpField(const std::string& line,
                                     const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  std::size_t v = pos + needle.size();
  if (v >= line.size()) return std::nullopt;
  if (line[v] == '"') {
    const auto end = line.find('"', v + 1);
    if (end == std::string::npos) return std::nullopt;
    return line.substr(v + 1, end - v - 1);
  }
  std::size_t end = v;
  while (end < line.size() &&
         (std::isdigit(static_cast<unsigned char>(line[end])) ||
          line[end] == '-')) {
    ++end;
  }
  if (end == v) return std::nullopt;
  return line.substr(v, end - v);
}

int renderDumpFile(const std::string& path, bool wantJson) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open metrics dump: " + path);
  std::string line;
  if (!std::getline(in, line) || line.find('{') == std::string::npos) {
    throw InvalidArgument("not a fuzzypsm metrics dump: " + path);
  }
  if (!std::getline(in, line) ||
      line.find("\"fuzzypsm_metrics\"") == std::string::npos) {
    throw InvalidArgument("not a fuzzypsm metrics dump: " + path);
  }
  if (wantJson) {
    // Echo the dump verbatim: it is already the machine-readable form.
    std::ifstream whole(path);
    std::printf("%s", std::string(std::istreambuf_iterator<char>(whole),
                                  std::istreambuf_iterator<char>())
                          .c_str());
    return 0;
  }
  std::printf("metrics dump: %s\n", path.c_str());
  std::size_t metrics = 0;
  while (std::getline(in, line)) {
    const auto name = dumpField(line, "name");
    const auto type = dumpField(line, "type");
    if (!name || !type) continue;
    ++metrics;
    if (*type == "histogram") {
      std::printf(
          "%-10s %-34s count=%s sum=%s p50<=%s p95<=%s p99<=%s (%s)\n",
          type->c_str(), name->c_str(),
          dumpField(line, "count").value_or("?").c_str(),
          dumpField(line, "sum").value_or("?").c_str(),
          dumpField(line, "p50").value_or("?").c_str(),
          dumpField(line, "p95").value_or("?").c_str(),
          dumpField(line, "p99").value_or("?").c_str(),
          dumpField(line, "unit").value_or("?").c_str());
    } else {
      std::printf("%-10s %-34s %12s\n", type->c_str(), name->c_str(),
                  dumpField(line, "value").value_or("?").c_str());
    }
  }
  if (metrics == 0) {
    throw InvalidArgument("metrics dump has no metric rows: " + path);
  }
  std::printf("(%zu metrics)\n", metrics);
  return 0;
}

int cmdStats(const Args& args) {
  const bool wantJson = args.flag("json");
  if (const std::string file = args.option("file"); !file.empty()) {
    return renderDumpFile(file, wantJson);
  }

  // Live worked example (README "Observability"): drive a TenantMeter
  // with a handful of passwords — two single-score passes so the second
  // one hits the cache, plus one scoreBatch call — then print the
  // process-wide snapshot those calls populated.
  auto artifact = GrammarArtifact::open(args.requiredOption("grammar"));
  // TenantMeter serves what it is handed; a grammar read from disk is
  // audited here, the way OnlineUpdater gates every generation it serves.
  LintReport lint = GrammarValidator().lint(artifact->grammar());
  if (!lint.ok()) throw GrammarLintError(std::move(lint));
  std::vector<std::string> pws = args.positional;
  if (pws.empty()) {
    const FuzzyPsm psm = FuzzyPsm::fromArtifact(*artifact);
    Rng rng(std::stoull(args.option("seed", "7")));
    for (int i = 0; i < 8; ++i) pws.push_back(psm.sample(rng));
  }
  const TenantMeter service(std::move(artifact));
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& pw : pws) (void)service.score(pw);
  }
  (void)service.scoreBatch(pws);

  const obs::MetricsSnapshot snap = obs::snapshot();
  std::printf("%s", (wantJson ? snap.renderJson() : snap.renderText()).c_str());
  return 0;
}

int cmdUpdateLoop(const Args& args) {
  const std::string dir = args.requiredOption("log");
  const std::string streamPath = args.requiredOption("stream");
  std::uint64_t compactEvery = 10000;
  if (const auto n = args.option("compact-every"); !n.empty()) {
    compactEvery = std::stoull(n);
    if (compactEvery == 0) throw InvalidArgument("--compact-every must be >= 1");
  }

  OnlineUpdaterConfig config;
  config.compactionThreads = threadsOption(args);

  // Bootstrap on an empty/absent log, resume otherwise. Peek with a
  // throwaway GenerationLog: opening is recovery, so a fresh directory is
  // created (and a damaged one reported) before we commit to a mode.
  RecoveryReport peek;
  const bool fresh = GenerationLog(dir, &peek).latest() == nullptr;
  if (!peek.clean()) std::fprintf(stderr, "%s", peek.render().c_str());

  std::unique_ptr<OnlineUpdater> updater;
  if (fresh) {
    updater = OnlineUpdater::bootstrap(loadGrammar(args), dir,
                                       std::move(config));
    std::fprintf(stderr, "bootstrapped %s at sequence %llu\n", dir.c_str(),
                 static_cast<unsigned long long>(updater->stats().lastSequence));
  } else {
    RecoveryReport report;
    updater = OnlineUpdater::resume(dir, std::move(config), &report);
    if (!report.clean()) std::fprintf(stderr, "%s", report.render().c_str());
    std::fprintf(stderr, "resumed %s at sequence %llu\n", dir.c_str(),
                 static_cast<unsigned long long>(updater->stats().lastSequence));
  }

  const auto reportCompaction = [](const OnlineUpdater::CompactionResult& r) {
    if (r.folded == 0) return;
    if (r.published) {
      std::fprintf(stderr,
                   "compacted %llu occurrences -> sequence %llu "
                   "(generation %llu)\n",
                   static_cast<unsigned long long>(r.folded),
                   static_cast<unsigned long long>(r.sequence),
                   static_cast<unsigned long long>(r.generation));
    } else {
      std::fprintf(stderr,
                   "sequence %llu REJECTED (%llu occurrences quarantined): "
                   "%s\n",
                   static_cast<unsigned long long>(r.sequence),
                   static_cast<unsigned long long>(r.folded),
                   r.rejection.c_str());
    }
  };

  // Drive the stream: accept each occurrence, compact on cadence. The
  // cadence counts occurrences (not lines) so weighted corpora pace the
  // same as exploded ones.
  DatasetReader reader(streamPath);
  std::uint64_t sinceCompaction = 0;
  std::vector<Dataset::Entry> chunk;
  while (reader.nextChunk(chunk, 1024)) {
    for (const Dataset::Entry& entry : chunk) {
      updater->accept(entry.password, entry.count);
      sinceCompaction += entry.count;
      if (sinceCompaction >= compactEvery) {
        reportCompaction(updater->compactNow());
        sinceCompaction = 0;
      }
    }
  }
  reportCompaction(updater->compactNow());  // end-of-stream flush

  const OnlineUpdater::Stats stats = updater->stats();
  const LoadStats& rs = reader.stats();
  std::fprintf(stderr,
               "stream: %s accepted, %s rejected by validation\n",
               fmtCount(stats.accepted).c_str(), fmtCount(rs.rejected).c_str());
  std::printf("accepted %llu, compactions %llu, published %llu, "
              "rollbacks %llu, quarantined %llu\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.compactions),
              static_cast<unsigned long long>(stats.published),
              static_cast<unsigned long long>(stats.rollbacks),
              static_cast<unsigned long long>(stats.quarantined));
  std::printf("serving sequence %llu (%s)\n",
              static_cast<unsigned long long>(stats.lastSequence),
              updater->log().pathFor(stats.lastSequence).c_str());
  maybeWriteMetricsDump(args);
  return stats.rollbacks == 0 ? 0 : 1;
}

int cmdLogGc(const Args& args) {
  const std::string dir = args.requiredOption("dir");
  const std::uint64_t keep = std::stoull(args.requiredOption("keep"));

  RecoveryReport report;
  GenerationLog log(dir, &report);
  if (!report.clean()) std::fprintf(stderr, "%s", report.render().c_str());
  const auto res = log.gc(static_cast<std::size_t>(keep));
  std::printf("gc %s: kept %llu, retired %llu manifest entries, "
              "removed %llu files\n",
              dir.c_str(), static_cast<unsigned long long>(res.kept),
              static_cast<unsigned long long>(res.retired),
              static_cast<unsigned long long>(res.removedFiles));
  if (log.latest() != nullptr) {
    std::printf("newest generation: sequence %llu (%s)\n",
                static_cast<unsigned long long>(log.latest()->sequence),
                log.latest()->file.c_str());
  }
  return 0;
}

int cmdLog(const Args& args) {
  const std::string sub = args.positional.empty() ? "" : args.positional[0];
  if (sub == "gc") return cmdLogGc(args);
  if (sub != "inspect") {
    throw InvalidArgument(
        "usage: fuzzypsm log <inspect|gc> --dir DIR "
        "[--verify] [--json] [--keep N]");
  }
  const std::string dir = args.requiredOption("dir");
  const bool verify = args.flag("verify");

  RecoveryReport report;
  GenerationLog log(dir, &report);
  RecoveryReport verifyReport;
  if (verify) verifyReport = log.verify();
  const bool damaged = !report.clean() || !verifyReport.clean();

  // Per-entry checksum status: verified damage wins over "ok"; without
  // --verify the status reflects the open-time recovery checksums.
  const auto statusOf = [&](const GenerationEntry& e) -> std::string {
    for (const RecoverySkip& skip : verifyReport.skipped) {
      if (skip.sequence == e.sequence) {
        return recoverySkipReasonName(skip.reason);
      }
    }
    return "ok";
  };

  if (args.flag("json")) {
    // Same layout discipline as the metrics dump (DESIGN.md §14): one
    // generation / one skip per line, still a single JSON document.
    std::printf("{\n");
    std::printf("  \"generation_log\": \"%s\",\n",
                jsonEscape(log.directory()).c_str());
    std::printf("  \"next_sequence\": %llu,\n",
                static_cast<unsigned long long>(log.nextSequence()));
    std::printf("  \"verified\": %s,\n", verify ? "true" : "false");
    std::printf("  \"generations\": [\n");
    for (std::size_t i = 0; i < log.entries().size(); ++i) {
      const GenerationEntry& e = log.entries()[i];
      std::printf(
          "    {\"sequence\": %llu, \"file\": \"%s\", \"bytes\": %llu, "
          "\"checksum\": \"%016llx\", \"status\": \"%s\"}%s\n",
          static_cast<unsigned long long>(e.sequence),
          jsonEscape(e.file).c_str(),
          static_cast<unsigned long long>(e.bytes),
          static_cast<unsigned long long>(e.checksum), statusOf(e).c_str(),
          i + 1 < log.entries().size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"recovery_skips\": [\n");
    std::vector<std::pair<const char*, const RecoverySkip*>> skips;
    for (const RecoverySkip& s : report.skipped) {
      skips.push_back({"recovery", &s});
    }
    for (const RecoverySkip& s : verifyReport.skipped) {
      skips.push_back({"verify", &s});
    }
    for (std::size_t i = 0; i < skips.size(); ++i) {
      const RecoverySkip& s = *skips[i].second;
      std::printf(
          "    {\"phase\": \"%s\", \"reason\": \"%s\", \"sequence\": %llu, "
          "\"detail\": \"%s\"}%s\n",
          skips[i].first, recoverySkipReasonName(s.reason),
          static_cast<unsigned long long>(s.sequence),
          jsonEscape(s.detail).c_str(), i + 1 < skips.size() ? "," : "");
    }
    std::printf("  ]\n");
    std::printf("}\n");
    return damaged ? 1 : 0;
  }

  std::printf("generation log: %s\n", log.directory().c_str());
  std::printf("%-8s %-18s %12s  %s\n", "seq", "file", "bytes", "checksum");
  for (const GenerationEntry& e : log.entries()) {
    std::printf("%-8llu %-18s %12llu  %016llx\n",
                static_cast<unsigned long long>(e.sequence), e.file.c_str(),
                static_cast<unsigned long long>(e.bytes),
                static_cast<unsigned long long>(e.checksum));
  }
  std::printf("next sequence: %llu\n",
              static_cast<unsigned long long>(log.nextSequence()));

  if (!report.clean()) std::printf("%s", report.render().c_str());
  if (verify) {
    if (verifyReport.clean()) {
      std::printf("verify: all %zu generations intact\n", log.entries().size());
    } else {
      std::printf("%s", verifyReport.render().c_str());
    }
  }
  return damaged ? 1 : 0;
}

// ------------------------------------------------------ tenants command

void printTenantTable(const std::vector<GrammarRegistry::TenantInfo>& infos) {
  std::printf("%-20s %-8s %-6s %6s %12s %10s %10s\n", "tenant", "resident",
              "pinned", "gens", "bytes", "scores", "updates");
  for (const auto& info : infos) {
    std::printf("%-20s %-8s %-6s %6llu %12s %10s %10s\n", info.id.c_str(),
                info.resident ? "yes" : "no", info.pinned ? "yes" : "no",
                static_cast<unsigned long long>(info.logGenerations),
                fmtCount(info.residentBytes).c_str(),
                fmtCount(info.routedScores).c_str(),
                fmtCount(info.routedUpdates).c_str());
  }
}

void printTenantJson(const GrammarRegistry& registry,
                     const std::vector<GrammarRegistry::TenantInfo>& infos) {
  const GrammarRegistry::Stats stats = registry.stats();
  std::printf("{\n");
  std::printf("  \"registry\": \"%s\",\n",
              jsonEscape(registry.rootDir()).c_str());
  std::printf("  \"tenants\": %llu,\n",
              static_cast<unsigned long long>(stats.tenants));
  std::printf("  \"resident\": %llu,\n",
              static_cast<unsigned long long>(stats.resident));
  std::printf("  \"resident_bytes\": %llu,\n",
              static_cast<unsigned long long>(stats.residentBytes));
  std::printf("  \"cold_loads\": %llu,\n",
              static_cast<unsigned long long>(stats.coldLoads));
  std::printf("  \"evictions\": %llu,\n",
              static_cast<unsigned long long>(stats.evictions));
  std::printf("  \"detail\": [\n");
  for (std::size_t i = 0; i < infos.size(); ++i) {
    const auto& info = infos[i];
    std::printf(
        "    {\"tenant\": \"%s\", \"resident\": %s, \"pinned\": %s, "
        "\"generation\": %llu, \"log_generations\": %llu, "
        "\"resident_bytes\": %llu, \"routed_scores\": %llu, "
        "\"routed_updates\": %llu, \"cold_loads\": %llu, "
        "\"evictions\": %llu}%s\n",
        jsonEscape(info.id).c_str(), info.resident ? "true" : "false",
        info.pinned ? "true" : "false",
        static_cast<unsigned long long>(info.generation),
        static_cast<unsigned long long>(info.logGenerations),
        static_cast<unsigned long long>(info.residentBytes),
        static_cast<unsigned long long>(info.routedScores),
        static_cast<unsigned long long>(info.routedUpdates),
        static_cast<unsigned long long>(info.coldLoads),
        static_cast<unsigned long long>(info.evictions),
        i + 1 < infos.size() ? "," : "");
  }
  std::printf("  ]\n");
  std::printf("}\n");
}

int cmdTenants(const Args& args) {
  const std::string sub = args.positional.empty() ? "" : args.positional[0];
  if (sub != "list" && sub != "add" && sub != "evict" && sub != "stats") {
    throw InvalidArgument(
        "usage: fuzzypsm tenants <list|add|evict|stats> --root DIR "
        "[--tenant ID] [--grammar GRAMMAR] [--budget BYTES] [--json]");
  }
  GrammarRegistryConfig cfg;
  cfg.rootDir = args.requiredOption("root");
  if (const auto b = args.option("budget"); !b.empty()) {
    cfg.residentBytesBudget = std::stoull(b);
  }
  GrammarRegistry registry(cfg);

  if (sub == "add") {
    const std::string tenant = args.requiredOption("tenant");
    const std::vector<char> bytes =
        readGrammarBytes(args.requiredOption("grammar"));
    registry.addTenant(tenant, bytes.data(), bytes.size());
    // Prove the new tenant serves end to end: cold-load it through the
    // registry's own resume path before reporting success.
    registry.loadTenant(tenant);
    std::printf("tenant %s registered under %s and serving\n", tenant.c_str(),
                registry.rootDir().c_str());
    return 0;
  }

  if (sub == "evict") {
    const std::string tenant = args.requiredOption("tenant");
    // One-shot process: load the unit first so the evict demonstrates the
    // full resident -> flushed -> cold cycle against this tenant's log.
    registry.loadTenant(tenant);
    const bool evicted = registry.evictTenant(tenant);
    std::printf("tenant %s: %s\n", tenant.c_str(),
                evicted ? "evicted (pending updates flushed to the log)"
                        : "not evicted (pinned or compaction in flight)");
    return evicted ? 0 : 1;
  }

  // list / stats
  const auto infos = registry.tenants();
  if (args.flag("json")) {
    printTenantJson(registry, infos);
    return 0;
  }
  std::printf("registry: %s\n", registry.rootDir().c_str());
  printTenantTable(infos);
  if (sub == "stats") {
    const GrammarRegistry::Stats stats = registry.stats();
    std::printf(
        "tenants %llu, resident %llu (%s bytes), cold loads %llu, "
        "evictions %llu (%llu flushed), unknown-tenant requests %llu\n",
        static_cast<unsigned long long>(stats.tenants),
        static_cast<unsigned long long>(stats.resident),
        fmtCount(stats.residentBytes).c_str(),
        static_cast<unsigned long long>(stats.coldLoads),
        static_cast<unsigned long long>(stats.evictions),
        static_cast<unsigned long long>(stats.evictFlushes),
        static_cast<unsigned long long>(stats.unknownTenant));
  }
  return 0;
}

const std::vector<Command>& commands() {
  static const std::vector<Command> kCommands = {
      {"train", cmdTrain,
       {"base", "training", "out", "threads", "prior", "min-base-len"},
       {"reverse"}},
      {"measure", cmdMeasure, {"grammar", "seed", "samples"}, {}},
      {"suggest", cmdSuggest, {"grammar", "seed", "target"}, {}},
      {"explain", cmdExplain, {"grammar"}, {}},
      {"guesses", cmdGuesses, {"grammar", "n"}, {}},
      {"generate", cmdGenerate, {"service", "scale", "seed", "out"}, {}},
      {"serve-bench", cmdServeBench,
       {"grammar", "tenants", "threads", "duration-ms", "pool", "seed",
        "batch", "budget", "json", "metrics-dump"},
       {}},
      {"stats", cmdStats, {"file", "grammar", "seed"}, {"json"}},
      {"inspect", cmdInspect, {"artifact"}, {}},
      {"lint-grammar", cmdLintGrammar, {"grammar"}, {"json"}},
      {"update-loop", cmdUpdateLoop,
       {"log", "stream", "grammar", "compact-every", "threads",
        "metrics-dump"},
       {}},
      {"log", cmdLog, {"dir", "keep"}, {"verify", "json"}},
      {"tenants", cmdTenants, {"root", "tenant", "grammar", "budget"},
       {"json"}},
  };
  return kCommands;
}

int usage() {
  std::fprintf(stderr,
               "usage: fuzzypsm <train|measure|suggest|explain|guesses|"
               "generate|serve-bench|stats|inspect|lint-grammar|"
               "update-loop|log|tenants> [options]\n"
               "see the header of tools/fuzzypsm_cli.cpp for details\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const auto& all = commands();
  const auto command =
      std::find_if(all.begin(), all.end(),
                   [&](const Command& c) { return c.name == argv[1]; });
  if (command == all.end()) return usage();
  try {
    return command->run(parseArgs(*command, argc, argv));
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
