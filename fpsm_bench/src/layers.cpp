// The rung replay of the traced run.
//
// A fixed sample of the workload's requests is sent down the layers one
// rung at a time: through the live registry, through a standalone serving
// unit resumed from a copy of the tenant's log, through a bare ScoreCache,
// through the artifact's FlatGrammarView, through the fuzzy parser and
// through the byte kernels. Each rung is a loop of calls into one layer's
// public functions, timed as a whole and divided by the calls made, so the
// clock is read twice per rung rather than twice per call. A layer's self
// time is its rung minus the rung below it (registry.route_ns,
// serve.batch_overhead_ns_per_pw). Cold-load and write-path rungs repeat a
// few times and report the median.
#include <algorithm>
#include <filesystem>
#include <thread>

#include "alloc_count.h"
#include "analysis/grammar_lint.h"
#include "artifact/artifact.h"
#include "core/fuzzy_parse.h"
#include "corpus/dataset_reader.h"
#include "online/generation_log.h"
#include "online/online_updater.h"
#include "serve/score_cache.h"
#include "trace.h"
#include "train/sharded_trainer.h"
#include "util/byte_scan.h"
#include "workload.h"

namespace fs = std::filesystem;

namespace fpsm::suite {

namespace {

volatile double gSink = 0.0;  // keeps replayed results observable

template <typename Fn>
double nsPerCall(std::size_t n, Fn&& fn) {
  const std::uint64_t t0 = nowNs();
  for (std::size_t i = 0; i < n; ++i) fn(i);
  return n == 0 ? 0.0 : static_cast<double>(nowNs() - t0) / static_cast<double>(n);
}

template <typename Fn>
double medianMs(int repeats, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < repeats; ++r) {
    const std::uint64_t t0 = nowNs();
    fn();
    ms.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
  }
  return median(ms);
}

std::vector<std::vector<std::string>> chunked(
    const std::vector<std::string>& items, std::size_t size) {
  std::vector<std::vector<std::string>> chunks;
  for (std::size_t off = 0; off < items.size(); off += size) {
    const std::size_t end = std::min(items.size(), off + size);
    chunks.emplace_back(items.begin() + static_cast<std::ptrdiff_t>(off),
                        items.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return chunks;
}

}  // namespace

Metrics replayLayers(const Options& opts, const LayerTarget& t) {
  Metrics m;
  auto put = [&m](const char* name, double value, const char* unit) {
    m.push_back(Metric{name, value, unit});
  };
  const std::size_t n = t.sample.size();
  const int repeats = opts.smoke ? 2 : 5;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  double acc = 0.0;

  // The standalone unit gets its own copy of the log: one writer per log.
  const std::string scratch = opts.workDir + "/replay";
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  const std::string logCopy = scratch + "/log";
  fs::copy(t.tenantLogDir, logCopy, fs::copy_options::recursive);

  // --- registry -------------------------------------------------------------
  double registryNs = 0.0;
  {
    const Span span("replay.registry.score");
    registryNs = nsPerCall(n, [&](std::size_t i) {
      acc += t.registry->score(t.tenant, t.sample[i]).bits;
    });
  }

  // --- online: log open and resume ------------------------------------------
  const double genlogOpenMs =
      medianMs(repeats, [&] { const GenerationLog log(logCopy); });
  std::unique_ptr<OnlineUpdater> unit;
  std::vector<double> resumeMs;
  for (int r = 0; r < repeats; ++r) {
    unit.reset();
    const Span span("replay.online.resume");
    const std::uint64_t t0 = nowNs();
    unit = OnlineUpdater::resume(logCopy);
    resumeMs.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
  }

  // --- serve: the unit's score path, pin, batch ------------------------------
  MeterService& service = unit->service();
  double serveNs = 0.0;
  double allocsPerScore = 0.0;
  double pinNs = 0.0;
  double serveBatchNs = 0.0;
  const auto batches = chunked(t.sample, 512);
  // One untimed pass first, so the unit's cache holds what the live
  // registry's cache held when its rung was timed.
  for (const std::string& pw : t.sample) acc += service.score(pw).bits;
  {
    const Span span("replay.serve.score");
    const std::uint64_t a0 = threadAllocations();
    serveNs = nsPerCall(n, [&](std::size_t i) {
      acc += service.score(t.sample[i]).bits;
    });
    allocsPerScore =
        static_cast<double>(threadAllocations() - a0) / static_cast<double>(n);
  }
  {
    const Span span("replay.serve.snapshot");
    pinNs = nsPerCall(n, [&](std::size_t) {
      acc += static_cast<double>(service.snapshot()->generation());
    });
  }
  {
    const Span span("replay.serve.scoreBatch");
    serveBatchNs = nsPerCall(batches.size(), [&](std::size_t b) {
                     acc += service.scoreBatch(batches[b], 1).back().bits;
                   }) *
                   static_cast<double>(batches.size()) / static_cast<double>(n);
  }

  // --- artifact --------------------------------------------------------------
  std::string artifactPath;
  {
    const GenerationLog log(logCopy);
    artifactPath = log.pathFor(log.latest()->sequence);
  }
  std::shared_ptr<const GrammarArtifact> artifact;
  const double openMs = medianMs(repeats, [&] {
    artifact.reset();
    artifact = GrammarArtifact::open(artifactPath);
  });
  const FlatGrammarView& view = artifact->grammar();
  const GrammarValidator validator;
  const double lintMs =
      medianMs(repeats, [&] { acc += validator.lint(view).ok() ? 1.0 : 0.0; });

  std::vector<double> reference(n);
  std::vector<std::string_view> views(t.sample.begin(), t.sample.end());
  double artifactNs = 0.0;
  double artifactBatchNs = 0.0;
  {
    const Span span("replay.artifact.strengthBits");
    artifactNs = nsPerCall(
        n, [&](std::size_t i) { reference[i] = view.strengthBits(views[i]); });
  }
  {
    std::vector<double> out(n);
    const Span span("replay.artifact.strengthBitsBatch");
    artifactBatchNs = nsPerCall(batches.size(), [&](std::size_t b) {
                        const std::size_t off = b * 512;
                        view.strengthBitsBatch(views.data() + off,
                                               batches[b].size(),
                                               out.data() + off);
                      }) *
                      static_cast<double>(batches.size()) /
                      static_cast<double>(n);
    acc += out.empty() ? 0.0 : out.back();
  }
  std::vector<FuzzyParse> parses;
  parses.reserve(n);
  for (const std::string_view pw : views) parses.push_back(view.parse(pw));
  double derivationNs = 0.0;
  {
    const Span span("replay.artifact.derivationLog2Prob");
    derivationNs = nsPerCall(n, [&](std::size_t i) {
      acc += view.derivationLog2Prob(parses[i]);
    });
  }

  // --- serve: a bare ScoreCache replaying the same requests -------------------
  const TenantMeterConfig servingDefaults;
  ScoreCache cache(servingDefaults.cacheCapacity, servingDefaults.cacheShards);
  std::uint64_t hits = 0;
  double cacheNs = 0.0;
  {
    const Span span("replay.serve.cache");
    cacheNs = nsPerCall(n, [&](std::size_t i) {
      if (cache.lookup(0, views[i])) {
        ++hits;
      } else {
        cache.insert(0, views[i], reference[i]);
      }
    });
  }

  // --- core: the fuzzy parser over the mapped trie ----------------------------
  const BasicFuzzyParser<FlatTrieView> parser(
      view.baseDictionary(), view.config(), &view.reversedDictionary());
  double parseNs = 0.0;
  {
    const Span span("replay.core.parse");
    parseNs = nsPerCall(n, [&](std::size_t i) {
      acc += static_cast<double>(parser.parse(views[i]).segments.size());
    });
  }
  std::uint64_t segments = 0;
  std::uint64_t trieSegments = 0;
  for (const FuzzyParse& p : parses) {
    segments += p.segments.size();
    for (const FuzzySegment& s : p.segments) trieSegments += s.fromTrie ? 1 : 0;
  }
  const std::uint64_t a0 = threadAllocations();
  for (const std::string_view pw : views) acc += view.log2Prob(pw);
  const double allocsPerPw =
      static_cast<double>(threadAllocations() - a0) / static_cast<double>(n);

  // --- util: the four byte kernels --------------------------------------------
  std::size_t longest = 1;
  for (const std::string_view pw : views) longest = std::max(longest, pw.size());
  std::vector<char> partner(longest);
  std::vector<unsigned char> upper(longest);
  std::vector<unsigned char> cls(longest);
  const ByteScanKernels& kernels = byteScanKernels();
  double byteScanNs = 0.0;
  {
    const Span span("replay.util.byteScan");
    byteScanNs = nsPerCall(n, [&](std::size_t i) {
      const std::string_view pw = views[i];
      kernels.leetPartnerScan(pw.data(), pw.size(), partner.data());
      kernels.upperScan(pw.data(), pw.size(), upper.data());
      kernels.segmentClassScan(pw.data(), pw.size(), cls.data());
      acc += kernels.allPrintableAscii(pw.data(), pw.size()) ? 1.0 : 0.0;
    });
  }

  // --- registry: cold loads of the live tenant --------------------------------
  if (t.pinned) t.registry->pinTenant(t.tenant, false);
  std::vector<double> coldMs;
  for (int r = 0; r < repeats; ++r) {
    if (!t.registry->evictTenant(t.tenant)) continue;
    const Span span("replay.registry.loadTenant");
    const std::uint64_t t0 = nowNs();
    t.registry->loadTenant(t.tenant);
    coldMs.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
  }
  if (t.pinned) t.registry->pinTenant(t.tenant, true);

  // --- write path: accept, count, compile, append -------------------------------
  double acceptNs = 0.0;
  {
    const Span span("replay.online.accept");
    acceptNs = nsPerCall(t.updates.size(),
                         [&](std::size_t i) { unit->accept(t.updates[i], 1); });
  }
  const FuzzyPsm base = FuzzyPsm::fromArtifact(*artifact);
  TrainOptions trainOptions;
  trainOptions.threads = nproc;
  const ShardedTrainer trainer(base, trainOptions);
  std::vector<Dataset::Entry> entries;
  for (const std::string& pw : t.updates) entries.push_back(Dataset::Entry{pw, 1});
  const double countMs = medianMs(repeats, [&] {
    const Span span("replay.train.countEntries");
    acc += static_cast<double>(trainer.countEntries(entries).trainedPasswords());
  });
  const double writeMs = medianMs(repeats, [&] {
    const Span span("replay.artifact.compileArtifact");
    acc += static_cast<double>(compileArtifact(base).size());
  });
  const std::string artifactBytes = readFile(artifactPath);
  GenerationLog appendLog(scratch + "/append");
  const double appendMs = medianMs(repeats, [&] {
    const Span span("replay.online.genlogAppend");
    acc += static_cast<double>(
        appendLog.append(artifactBytes.data(), artifactBytes.size()));
  });

  // --- corpus and train: stream the training corpus ----------------------------
  std::uint64_t corpusEntries = 0;
  double readS = 0.0;
  {
    const Span span("replay.corpus.read");
    DatasetReader reader(t.corpusPath);
    std::vector<Dataset::Entry> chunk;
    const std::uint64_t t0 = nowNs();
    while (reader.nextChunk(chunk, std::size_t{1} << 16)) {
      corpusEntries += chunk.size();
    }
    readS = secondsSince(t0);
  }
  double countS = 0.0;
  {
    const Span span("replay.train.countStream");
    DatasetReader reader(t.corpusPath);
    const std::uint64_t t0 = nowNs();
    acc += static_cast<double>(trainer.countStream(reader).trainedPasswords());
    countS = secondsSince(t0);
  }

  unit.reset();
  fs::remove_all(scratch);
  gSink = acc;

  const double corpus = static_cast<double>(corpusEntries);
  put("registry.score_ns", registryNs, "ns");
  put("registry.route_ns", registryNs - serveNs, "ns");
  put("serve.score_ns", serveNs, "ns");
  put("serve.pin_ns", pinNs, "ns");
  put("serve.allocs_per_score", allocsPerScore, "count");
  put("serve.cache_probe_ns", cacheNs, "ns");
  put("serve.cache_hit_ratio",
      static_cast<double>(hits) / static_cast<double>(n), "ratio");
  put("serve.batch_overhead_ns_per_pw", serveBatchNs - artifactBatchNs, "ns");
  put("artifact.score_ns", artifactNs, "ns");
  put("artifact.batch_ns_per_pw", artifactBatchNs, "ns");
  put("artifact.derivation_ns", derivationNs, "ns");
  put("core.parse_ns", parseNs, "ns");
  put("core.allocs_per_pw", allocsPerPw, "count");
  put("core.segments_per_pw",
      static_cast<double>(segments) / static_cast<double>(n), "count");
  put("core.trie_segment_share",
      segments == 0 ? 0.0
                    : static_cast<double>(trieSegments) /
                          static_cast<double>(segments),
      "ratio");
  put("util.byte_scan_ns", byteScanNs, "ns");
  put("registry.cold_load_ms", median(coldMs), "ms");
  put("online.resume_ms", median(resumeMs), "ms");
  put("online.genlog_open_ms", genlogOpenMs, "ms");
  put("artifact.open_ms", openMs, "ms");
  put("analysis.lint_ms", lintMs, "ms");
  put("artifact.bytes", static_cast<double>(artifactBytes.size()), "bytes");
  put("online.accept_ns", acceptNs, "ns");
  put("online.genlog_append_ms", appendMs, "ms");
  put("train.count_ms", countMs, "ms");
  put("artifact.write_ms", writeMs, "ms");
  put("corpus.read_eps", readS > 0 ? corpus / readS : 0.0, "1/s");
  put("train.count_eps", countS > 0 ? corpus / countS : 0.0, "1/s");
  return m;
}

Metrics observedCounts(const obs::MetricsSnapshot& before,
                       const obs::MetricsSnapshot& after) {
  const auto delta = [&](obs::Counter c) {
    return static_cast<double>(after.counter(c) - before.counter(c));
  };
  const double hits = delta(obs::Counter::ServeCacheHits);
  const double lookups = hits + delta(obs::Counter::ServeCacheMisses);
  return {
      {"serve.live_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio"},
      {"registry.cold_loads", delta(obs::Counter::RegistryColdLoads), "count"},
      {"registry.evictions", delta(obs::Counter::RegistryEvictions), "count"},
  };
}

Metrics withLiveDefaults(Metrics live) {
  for (const char* name : {"loadgen.lag_p99_us", "registry.cold_load_share"}) {
    const bool present = std::any_of(live.begin(), live.end(),
                                     [&](const Metric& m) { return m.name == name; });
    if (!present) {
      live.push_back({name, 0.0, std::string_view(name).ends_with("_us") ? "us" : "ratio"});
    }
  }
  return live;
}

}  // namespace fpsm::suite
