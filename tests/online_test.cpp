// Online-update battery (src/online): the streaming adaptive loop and its
// append-only generation log. Carries the ctest label "online"; the drift,
// rollback and concurrent-compaction stress tests are its TSan targets
// (`ctest --preset tsan -L online`).
//
// What is pinned here:
//   * crash recovery — every way a crash can damage the log (torn manifest
//     tail, truncated/corrupted/missing tail generation, orphan files,
//     stray .tmp) recovers to the last checksummed-good generation with a
//     typed RecoveryReport, and damage recovery cannot explain throws;
//   * the online-vs-batch contract — an online run over stream S after
//     corpus C emits a final .fpsmb byte-identical to a one-shot batch
//     retrain over C+S, across thread counts and compaction cadences;
//   * a golden digest of that final artifact, committed as a fixture, so
//     the whole pipeline (parse, merge, canonical serialization, log
//     framing) cannot drift silently;
//   * one gate per served generation — bootstrap, every compaction that
//     drains work, and resume each run the trust gate exactly once;
//   * rollback — a lint-rejected generation is quarantined without a
//     serving gap, observed by concurrent readers;
//   * drift adaptation — a growing password family's strength estimate
//     falls monotonically across compaction cycles while concurrent
//     readers score.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "analysis/grammar_lint.h"
#include "artifact/artifact.h"
#include "artifact/checksum.h"
#include "artifact_tamper.h"
#include "compiled_grammar.h"
#include "core/fuzzy_psm.h"
#include "corpus/dataset.h"
#include "corpus/dataset_reader.h"
#include "corpus/io.h"
#include "obs/metrics.h"
#include "online/generation_log.h"
#include "online/online_updater.h"
#include "util/error.h"
#include "util/rng.h"

namespace fs = std::filesystem;

namespace fpsm {
namespace {

using Bytes = std::vector<std::byte>;
using test_grammar::bootstrapped;
using test_grammar::compiled;

// --------------------------------------------------------------- helpers

std::string dataPath(const char* name) {
  return std::string(FPSM_TEST_DATA_DIR) + "/" + name;
}

/// Fresh scratch directory per test (removed up front so reruns are clean).
std::string scratchDir(const char* name) {
  const std::string dir = testing::TempDir() + "online_test_" + name;
  fs::remove_all(dir);
  return dir;
}

Dataset fixtureDataset(const char* name) {
  Dataset ds(name);
  loadDatasetFile(dataPath(name), ds);
  return ds;
}

/// Base grammar with the committed fixture dictionary loaded, untrained.
FuzzyPsm fixtureBase() {
  FuzzyPsm psm;
  Dataset base("base");
  loadDatasetFile(dataPath("online_base.txt"), base);
  psm.loadBaseDictionary(base);
  return psm;
}

Bytes readFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<char> buf{std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>()};
  Bytes bytes(buf.size());
  std::memcpy(bytes.data(), buf.data(), buf.size());
  return bytes;
}

std::string hexDigest(const Bytes& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    xxhash64(bytes.data(), bytes.size())));
  return std::string(buf, 16);
}

void appendRaw(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << data;
  ASSERT_TRUE(out.good());
}

/// Acceptance policy that refuses every candidate generation with a
/// synthetic lint report.
void rejectEveryCandidate(const FlatGrammarView&) {
  LintReport report;
  report.add(LintCode::DanglingSegmentRef, LintSeverity::Error, "policy",
             "rejected by test acceptance gate");
  throw GrammarLintError(std::move(report));
}

/// Drives the committed fixture stream through an updater in file order,
/// compacting every `chunkEntries` entries. Returns the final published
/// log sequence.
std::uint64_t driveFixtureStream(OnlineUpdater& updater,
                                 std::size_t chunkEntries) {
  DatasetReader reader(dataPath("online_stream.txt"));
  std::vector<Dataset::Entry> chunk;
  while (reader.nextChunk(chunk, chunkEntries)) {
    for (const auto& e : chunk) updater.accept(e.password, e.count);
    const auto result = updater.compactNow();
    EXPECT_TRUE(result.published) << result.rejection;
  }
  return updater.stats().lastSequence;
}

// ---------------------------------------------------- GenerationLog: happy

TEST(GenerationLog, CreatesAppendsAndReopens) {
  const std::string dir = scratchDir("happy");
  const std::string a = "first generation payload";
  const std::string b = "second generation payload";
  {
    GenerationLog log(dir);
    EXPECT_EQ(log.entries().size(), 0u);
    EXPECT_EQ(log.latest(), nullptr);
    EXPECT_EQ(log.nextSequence(), 1u);
    EXPECT_EQ(log.append(a.data(), a.size()), 1u);
    EXPECT_EQ(log.append(b.data(), b.size()), 2u);
    ASSERT_NE(log.latest(), nullptr);
    EXPECT_EQ(log.latest()->sequence, 2u);
    EXPECT_EQ(log.entry(1).bytes, a.size());
  }
  RecoveryReport report;
  GenerationLog log(dir, &report);
  EXPECT_TRUE(report.clean()) << report.render();
  EXPECT_EQ(report.manifestLines, 2u);
  ASSERT_EQ(log.entries().size(), 2u);
  EXPECT_EQ(log.nextSequence(), 3u);
  EXPECT_EQ(log.entries()[0].file, "gen-000001.fpsmb");
  EXPECT_EQ(log.entries()[1].file, "gen-000002.fpsmb");
  // Round-trip the payloads through pathFor.
  const Bytes got = readFileBytes(log.pathFor(2));
  EXPECT_EQ(got.size(), b.size());
  EXPECT_EQ(std::memcmp(got.data(), b.data(), b.size()), 0);
  // verify() agrees with recovery.
  EXPECT_TRUE(log.verify().clean());
}

TEST(GenerationLog, NoSuchSequenceIsTyped) {
  const std::string dir = scratchDir("noseq");
  GenerationLog log(dir);
  try {
    (void)log.pathFor(7);
    FAIL() << "pathFor on an uncommitted sequence must throw";
  } catch (const GenerationLogError& e) {
    EXPECT_EQ(static_cast<int>(e.code()),
              static_cast<int>(GenerationLogErrorCode::NoSuchSequence));
  }
}

// ------------------------------------------- GenerationLog: crash recovery

TEST(GenerationLog, TornManifestTailLineIsSkippedAndHealed) {
  const std::string dir = scratchDir("torntail");
  const std::string payload = "payload";
  {
    GenerationLog log(dir);
    log.append(payload.data(), payload.size());
    log.append(payload.data(), payload.size());
  }
  // Simulate a crash mid-manifest-append: a prefix of a real entry line
  // with no (or a truncated) checksum field.
  appendRaw(dir + "/MANIFEST", "gen 3 gen-000003.fpsmb 7 deadbe");

  RecoveryReport report;
  GenerationLog log(dir, &report);
  ASSERT_EQ(report.skipped.size(), 1u) << report.render();
  EXPECT_EQ(report.skipped[0].reason, RecoverySkipReason::TornManifestLine);
  ASSERT_EQ(log.entries().size(), 2u);
  EXPECT_EQ(log.latest()->sequence, 2u);

  // The torn line was truncated away, so appending and reopening is clean:
  // no valid-after-corrupt line sequence can ever form.
  EXPECT_EQ(log.append(payload.data(), payload.size()), 3u);
  RecoveryReport again;
  GenerationLog reopened(dir, &again);
  EXPECT_TRUE(again.clean()) << again.render();
  EXPECT_EQ(reopened.entries().size(), 3u);
}

TEST(GenerationLog, TruncatedTailGenerationIsQuarantined) {
  const std::string dir = scratchDir("truncfile");
  const std::string payload = "twelve bytes";
  std::string tailPath;
  {
    GenerationLog log(dir);
    log.append(payload.data(), payload.size());
    log.append(payload.data(), payload.size());
    tailPath = log.pathFor(2);
  }
  fs::resize_file(tailPath, 5);  // torn write under a committed line

  RecoveryReport report;
  GenerationLog log(dir, &report);
  ASSERT_EQ(report.skipped.size(), 1u) << report.render();
  EXPECT_EQ(report.skipped[0].reason, RecoverySkipReason::SizeMismatch);
  EXPECT_EQ(report.skipped[0].sequence, 2u);
  ASSERT_EQ(log.entries().size(), 1u);
  EXPECT_EQ(log.latest()->sequence, 1u);
  // The dead sequence stays retired: the next append skips past it.
  EXPECT_EQ(log.nextSequence(), 3u);
  EXPECT_EQ(log.append(payload.data(), payload.size()), 3u);
  EXPECT_THROW((void)log.pathFor(2), GenerationLogError);
}

TEST(GenerationLog, CorruptTailGenerationIsQuarantined) {
  const std::string dir = scratchDir("corruptfile");
  const std::string payload = "some generation bytes";
  std::string tailPath;
  {
    GenerationLog log(dir);
    log.append(payload.data(), payload.size());
    log.append(payload.data(), payload.size());
    tailPath = log.pathFor(2);
  }
  {
    // Flip one byte without changing the size.
    std::fstream f(tailPath, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(3);
    f.put('X' ^ payload[3]);
  }
  RecoveryReport report;
  GenerationLog log(dir, &report);
  ASSERT_EQ(report.skipped.size(), 1u) << report.render();
  EXPECT_EQ(report.skipped[0].reason, RecoverySkipReason::ChecksumMismatch);
  EXPECT_EQ(report.skipped[0].sequence, 2u);
  EXPECT_EQ(log.latest()->sequence, 1u);
}

TEST(GenerationLog, MissingTailFileIsQuarantined) {
  const std::string dir = scratchDir("missingfile");
  const std::string payload = "bytes";
  std::string tailPath;
  {
    GenerationLog log(dir);
    log.append(payload.data(), payload.size());
    log.append(payload.data(), payload.size());
    tailPath = log.pathFor(2);
  }
  fs::remove(tailPath);
  RecoveryReport report;
  GenerationLog log(dir, &report);
  ASSERT_EQ(report.skipped.size(), 1u) << report.render();
  EXPECT_EQ(report.skipped[0].reason, RecoverySkipReason::MissingFile);
  EXPECT_EQ(log.latest()->sequence, 1u);
}

TEST(GenerationLog, CorruptLineMidManifestThrowsManifestCorrupt) {
  const std::string dir = scratchDir("midcorrupt");
  const std::string payload = "bytes";
  {
    GenerationLog log(dir);
    log.append(payload.data(), payload.size());
    log.append(payload.data(), payload.size());
  }
  // Damage the FIRST entry line (line 2 of the file, after the header):
  // flip one character inside it. A torn line mid-manifest cannot be a
  // crashed append, so recovery must refuse rather than guess.
  const std::string manifestPath = dir + "/MANIFEST";
  std::string manifest;
  {
    std::ifstream in(manifestPath, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    manifest = buf.str();
  }
  const std::size_t firstEntry = manifest.find("gen 1");
  ASSERT_NE(firstEntry, std::string::npos);
  manifest[firstEntry + 4] = '9';  // "gen 1" -> "gen 9": line hash mismatch
  {
    std::ofstream out(manifestPath, std::ios::binary | std::ios::trunc);
    out << manifest;
  }
  try {
    GenerationLog log(dir);
    FAIL() << "mid-manifest corruption must not open";
  } catch (const GenerationLogError& e) {
    EXPECT_EQ(static_cast<int>(e.code()),
              static_cast<int>(GenerationLogErrorCode::ManifestCorrupt));
  }
}

TEST(GenerationLog, DuplicatedSequenceThrowsSequenceOrder) {
  const std::string dir = scratchDir("seqorder");
  const std::string payload = "bytes";
  {
    GenerationLog log(dir);
    log.append(payload.data(), payload.size());
  }
  // Replay the (checksum-valid) entry line: append-only order broken.
  const std::string manifestPath = dir + "/MANIFEST";
  std::string manifest;
  {
    std::ifstream in(manifestPath, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    manifest = buf.str();
  }
  const std::size_t firstEntry = manifest.find("gen 1");
  ASSERT_NE(firstEntry, std::string::npos);
  appendRaw(manifestPath, manifest.substr(firstEntry));
  try {
    GenerationLog log(dir);
    FAIL() << "non-increasing sequences must not open";
  } catch (const GenerationLogError& e) {
    EXPECT_EQ(static_cast<int>(e.code()),
              static_cast<int>(GenerationLogErrorCode::SequenceOrder));
  }
}

TEST(GenerationLog, OrphanGenerationFileRetiresItsSequence) {
  const std::string dir = scratchDir("orphan");
  const std::string payload = "bytes";
  GenerationLog setup(dir);
  setup.append(payload.data(), payload.size());
  // Crash between rename and manifest append: the file exists, no line.
  {
    std::ofstream out(dir + "/gen-000005.fpsmb", std::ios::binary);
    out << "orphaned bytes never committed";
  }
  RecoveryReport report;
  GenerationLog log(dir, &report);
  EXPECT_TRUE(report.clean()) << report.render();
  ASSERT_EQ(log.entries().size(), 1u);
  // The orphan is not served, but its sequence is never reused.
  EXPECT_EQ(log.nextSequence(), 6u);
  EXPECT_EQ(log.append(payload.data(), payload.size()), 6u);
}

TEST(GenerationLog, StrayTmpFilesAreRemovedAtOpen) {
  const std::string dir = scratchDir("straytmp");
  {
    GenerationLog setup(dir);
    const std::string payload = "bytes";
    setup.append(payload.data(), payload.size());
  }
  const std::string tmp = dir + "/gen-000002.fpsmb.tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out << "half-written";
  }
  GenerationLog log(dir);
  EXPECT_FALSE(fs::exists(tmp));
  EXPECT_EQ(log.entries().size(), 1u);
}

TEST(GenerationLog, VerifyDetectsLaterCorruption) {
  const std::string dir = scratchDir("verify");
  const std::string payload = "generation payload bytes";
  GenerationLog log(dir);
  log.append(payload.data(), payload.size());
  log.append(payload.data(), payload.size());
  EXPECT_TRUE(log.verify().clean());
  fs::resize_file(log.pathFor(1), 3);  // mid-log damage (bit rot, not crash)
  const RecoveryReport report = log.verify();
  ASSERT_EQ(report.skipped.size(), 1u);
  EXPECT_EQ(report.skipped[0].reason, RecoverySkipReason::SizeMismatch);
  EXPECT_EQ(report.skipped[0].sequence, 1u);
  EXPECT_NE(report.render().find("size-mismatch"), std::string::npos);
}

// --------------------------------------------------- GenerationLog: gc

TEST(GenerationLog, GcRetainsNewestAndPreservesSequences) {
  const std::string dir = scratchDir("gc_retention");
  GenerationLog log(dir);
  for (int i = 1; i <= 5; ++i) {
    const std::string payload = "generation " + std::to_string(i);
    log.append(payload.data(), payload.size());
  }

  const auto res = log.gc(2);
  EXPECT_EQ(res.kept, 2u);
  EXPECT_EQ(res.retired, 3u);
  EXPECT_EQ(res.removedFiles, 3u);

  // The retention rule: newest N survive WITH their original sequence
  // numbers — the window slides, it does not renumber.
  ASSERT_EQ(log.entries().size(), 2u);
  EXPECT_EQ(log.entries()[0].sequence, 4u);
  EXPECT_EQ(log.entries()[1].sequence, 5u);
  EXPECT_EQ(log.nextSequence(), 6u);
  EXPECT_FALSE(fs::exists(dir + "/gen-000001.fpsmb"));
  EXPECT_FALSE(fs::exists(dir + "/gen-000002.fpsmb"));
  EXPECT_FALSE(fs::exists(dir + "/gen-000003.fpsmb"));
  EXPECT_TRUE(fs::exists(dir + "/gen-000004.fpsmb"));
  EXPECT_TRUE(fs::exists(dir + "/gen-000005.fpsmb"));

  // A reopen sees a clean two-entry log that keeps appending where the
  // pre-gc log left off.
  RecoveryReport report;
  GenerationLog reopened(dir, &report);
  EXPECT_TRUE(report.clean()) << report.render();
  ASSERT_EQ(reopened.entries().size(), 2u);
  EXPECT_EQ(reopened.nextSequence(), 6u);
  const std::string next = "generation 6";
  EXPECT_EQ(reopened.append(next.data(), next.size()), 6u);
  EXPECT_TRUE(reopened.verify().clean());
}

TEST(GenerationLog, GcKeepZeroThrows) {
  const std::string dir = scratchDir("gc_zero");
  GenerationLog log(dir);
  const std::string payload = "bytes";
  log.append(payload.data(), payload.size());
  EXPECT_THROW(log.gc(0), InvalidArgument);
  EXPECT_EQ(log.entries().size(), 1u);  // untouched
}

TEST(GenerationLog, GcIsNoopWhenNothingExceedsTheWindow) {
  const std::string dir = scratchDir("gc_noop");
  GenerationLog log(dir);
  EXPECT_EQ(log.gc(3).kept, 0u);  // empty log: nothing to do
  const std::string payload = "bytes";
  log.append(payload.data(), payload.size());
  log.append(payload.data(), payload.size());
  const auto res = log.gc(5);  // window larger than the log
  EXPECT_EQ(res.kept, 2u);
  EXPECT_EQ(res.retired, 0u);
  EXPECT_EQ(res.removedFiles, 0u);
  EXPECT_EQ(log.entries().size(), 2u);
  EXPECT_TRUE(log.verify().clean());
}

TEST(GenerationLog, GcReapsOrphansBelowTheKeptWindow) {
  const std::string dir = scratchDir("gc_orphans");
  {
    GenerationLog log(dir);
    const std::string payload = "bytes";
    log.append(payload.data(), payload.size());  // seq 1
    log.append(payload.data(), payload.size());  // seq 2
  }
  // An orphan from a crash between rename and manifest append: the file
  // for seq 3 exists but was never committed. Recovery retires its
  // sequence; gc may finally delete it once it falls below the window.
  {
    std::ofstream out(dir + "/gen-000003.fpsmb", std::ios::binary);
    out << "orphaned payload";
  }
  GenerationLog log(dir);
  EXPECT_EQ(log.nextSequence(), 4u);  // orphan retired its sequence
  const std::string next = "bytes";
  log.append(next.data(), next.size());  // seq 4

  const auto res = log.gc(1);
  EXPECT_EQ(res.retired, 2u);       // committed seqs 1 and 2
  EXPECT_EQ(res.removedFiles, 3u);  // ...plus the orphaned seq 3
  EXPECT_FALSE(fs::exists(dir + "/gen-000001.fpsmb"));
  EXPECT_FALSE(fs::exists(dir + "/gen-000002.fpsmb"));
  EXPECT_FALSE(fs::exists(dir + "/gen-000003.fpsmb"));
  EXPECT_TRUE(fs::exists(dir + "/gen-000004.fpsmb"));
}

TEST(GenerationLog, GcCrashBeforeManifestSwapLosesNothing) {
  const std::string dir = scratchDir("gc_crash_early");
  {
    GenerationLog log(dir);
    for (int i = 1; i <= 3; ++i) {
      const std::string payload = "generation " + std::to_string(i);
      log.append(payload.data(), payload.size());
    }
  }
  // Simulate a crash after gc wrote its rewritten manifest but BEFORE the
  // rename moved the commit authority: a stray MANIFEST.tmp exists and the
  // original manifest is untouched.
  {
    std::ofstream out(dir + "/MANIFEST.tmp", std::ios::binary);
    out << "# fpsm generation log v1\n";
  }
  RecoveryReport report;
  GenerationLog log(dir, &report);
  EXPECT_TRUE(report.clean()) << report.render();
  EXPECT_FALSE(fs::exists(dir + "/MANIFEST.tmp"));  // swept like any .tmp
  ASSERT_EQ(log.entries().size(), 3u);  // nothing was lost
  EXPECT_TRUE(log.verify().clean());
}

TEST(GenerationLog, GcCrashAfterManifestSwapRecoversAndReaps) {
  const std::string dir = scratchDir("gc_crash_late");
  {
    GenerationLog log(dir);
    for (int i = 1; i <= 4; ++i) {
      const std::string payload = "generation " + std::to_string(i);
      log.append(payload.data(), payload.size());
    }
  }
  // Simulate a crash after the manifest swap but before file deletion:
  // rewrite the manifest to the kept window (verbatim committed lines, as
  // gc writes them) while every gen file is still on disk.
  {
    std::ifstream in(dir + "/MANIFEST", std::ios::binary);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 5u);  // header + 4 entries
    std::ofstream out(dir + "/MANIFEST",
                      std::ios::binary | std::ios::trunc);
    out << lines[0] << '\n' << lines[3] << '\n' << lines[4] << '\n';
  }

  // Recovery: the kept entries serve; the undeleted files are orphans
  // whose sequences are already below nextSequence — clean, no skips.
  RecoveryReport report;
  GenerationLog log(dir, &report);
  EXPECT_TRUE(report.clean()) << report.render();
  ASSERT_EQ(log.entries().size(), 2u);
  EXPECT_EQ(log.entries()[0].sequence, 3u);
  EXPECT_EQ(log.nextSequence(), 5u);
  EXPECT_TRUE(fs::exists(dir + "/gen-000001.fpsmb"));  // not yet reaped

  // The next gc pass finishes the interrupted cleanup.
  const auto res = log.gc(2);
  EXPECT_EQ(res.retired, 0u);
  EXPECT_EQ(res.removedFiles, 2u);
  EXPECT_FALSE(fs::exists(dir + "/gen-000001.fpsmb"));
  EXPECT_FALSE(fs::exists(dir + "/gen-000002.fpsmb"));
  EXPECT_TRUE(fs::exists(dir + "/gen-000003.fpsmb"));
  EXPECT_TRUE(fs::exists(dir + "/gen-000004.fpsmb"));
}

// --------------------------------------------------- OnlineUpdater: basics

TEST(OnlineUpdater, BootstrapServesTheTrainedGrammar) {
  const std::string dir = scratchDir("bootstrap");
  FuzzyPsm seed = fixtureBase();
  seed.train(fixtureDataset("online_corpus.txt"));
  auto updater = bootstrapped(seed, dir);
  EXPECT_EQ(updater->log().entries().size(), 1u);
  EXPECT_EQ(updater->stats().lastSequence, 1u);
  // Serving from the committed generation is bit-identical to the
  // compiled grammar.
  const auto artifact = compiled(seed);
  for (const char* probe : {"password1", "qwerty12", "tyxdqd123", "zzzzzz"}) {
    EXPECT_EQ(updater->service().score(probe).bits,
              artifact->grammar().strengthBits(probe))
        << probe;
  }
  // A second bootstrap on a non-empty log is a usage error.
  EXPECT_THROW((void)bootstrapped(seed, dir), InvalidArgument);
  // An untrained grammar cannot bootstrap.
  EXPECT_THROW(
      (void)bootstrapped(fixtureBase(), scratchDir("untrained")),
      NotTrained);
}

TEST(OnlineUpdater, AcceptValidatesAndCoalesces) {
  const std::string dir = scratchDir("acceptval");
  FuzzyPsm seed = fixtureBase();
  seed.train(fixtureDataset("online_corpus.txt"));
  auto updater = bootstrapped(seed, dir);
  EXPECT_THROW(updater->accept(""), InvalidArgument);
  EXPECT_THROW(updater->accept(std::string("bad\x01pw")), InvalidArgument);
  updater->accept("password1", 0);  // explicit no-op
  EXPECT_EQ(updater->pendingUpdates(), 0u);
  updater->accept("password1", 2);
  updater->accept("password1");
  updater->accept("zzzzzz");
  EXPECT_EQ(updater->pendingUpdates(), 4u);
  const auto result = updater->compactNow();
  EXPECT_TRUE(result.published) << result.rejection;
  EXPECT_EQ(result.folded, 4u);
  EXPECT_EQ(result.sequence, 2u);
  EXPECT_EQ(updater->pendingUpdates(), 0u);
  // An empty compaction is a no-op: no generation written.
  const auto noop = updater->compactNow();
  EXPECT_FALSE(noop.published);
  EXPECT_EQ(noop.sequence, 0u);
  EXPECT_EQ(updater->log().entries().size(), 2u);
  // The per-call count bound: 2^32 is admitted, one more is rejected,
  // counted as invalid, and leaves the queue untouched.
  constexpr std::uint64_t kBound = std::uint64_t{1} << 32;
  EXPECT_EQ(OnlineUpdater::kMaxAcceptCount, kBound);
  updater->accept("password1", kBound);
  EXPECT_EQ(updater->pendingUpdates(), kBound);
  const std::uint64_t invalidBefore =
      obs::snapshot().counter(obs::Counter::OnlineAcceptInvalid);
  EXPECT_THROW(updater->accept("password1", kBound + 1), InvalidArgument);
  EXPECT_EQ(obs::snapshot().counter(obs::Counter::OnlineAcceptInvalid) -
                invalidBefore,
            FPSM_METRICS_ENABLED ? 1u : 0u);
  EXPECT_EQ(updater->pendingUpdates(), kBound);
}

// Counts are checked, not wrapped: a compaction whose merge would overflow
// a 64-bit count is rolled back before it reaches the log.
TEST(OnlineUpdater, OverflowingCompactionRollsBack) {
  const std::string dir = scratchDir("overflow");
  // "qwerty" is one segment with one site per leet rule, so every total
  // it touches — the structure total first — sits 2^31 below 2^64. The
  // grammar lints clean.
  FuzzyPsm seed;
  seed.update("12345", 2);
  seed.update("qwerty", ~std::uint64_t{0} - (std::uint64_t{1} << 31) + 1);
  auto updater = bootstrapped(seed, dir);
  const double before = updater->service().score("12345").bits;

  // One admitted call takes those totals past 2^64. Unchecked, the merge
  // wrapped the structure total to about 2^31, passed every gate and
  // published a grammar that scored "12345" about 33 bits weaker.
  updater->accept("qwerty", OnlineUpdater::kMaxAcceptCount);
  const auto result = updater->compactNow();
  EXPECT_FALSE(result.published);
  EXPECT_NE(result.rejection.find("overflows 64 bits"), std::string::npos)
      << result.rejection;
  EXPECT_EQ(result.sequence, 0u);
  EXPECT_EQ(updater->log().entries().size(), 1u) << "nothing appended";
  const auto stats = updater->stats();
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(stats.quarantined, OnlineUpdater::kMaxAcceptCount);
  EXPECT_EQ(stats.lastSequence, 1u);
  EXPECT_EQ(updater->service().score("12345").bits, before);

  // The cumulative counts were untouched: the next compaction writes
  // exactly the grammar a batch fold of the same update would.
  updater->accept("12345");
  const auto next = updater->compactNow();
  ASSERT_TRUE(next.published) << next.rejection;
  FuzzyPsm expected = seed;
  expected.update("12345");
  EXPECT_EQ(readFileBytes(updater->log().pathFor(next.sequence)),
            compileArtifact(expected));
}

TEST(OnlineUpdater, GateRunsOncePerServedGeneration) {
  const std::string dir = scratchDir("gatecount");
  FuzzyPsm seed = fixtureBase();
  seed.train(fixtureDataset("online_corpus.txt"));
  auto calls = std::make_shared<std::uint64_t>(0);
  OnlineUpdaterConfig cfg;
  cfg.publishGate = [calls](const FlatGrammarView&) { ++*calls; };

  auto updater = bootstrapped(seed, dir, cfg);
  EXPECT_EQ(*calls, 1u) << "bootstrap gates generation 1 once";
  EXPECT_FALSE(updater->compactNow().published);
  EXPECT_EQ(*calls, 1u) << "a compaction that drains nothing gates nothing";
  for (std::uint64_t round = 1; round <= 3; ++round) {
    updater->accept("dragon123", 2);
    const auto result = updater->compactNow();
    ASSERT_TRUE(result.published) << result.rejection;
    EXPECT_EQ(*calls, 1u + round) << "one gate per compaction";
  }
  updater.reset();

  // A clean log: resume gates its newest generation once and serves it.
  RecoveryReport report;
  const auto resumed = OnlineUpdater::resume(dir, cfg, &report);
  EXPECT_TRUE(report.clean()) << report.render();
  EXPECT_EQ(resumed->stats().lastSequence, 4u);
  EXPECT_EQ(*calls, 5u) << "one gate per resume of a clean log";
}

// A cold load explains itself: resume() records the log open once and the
// artifact open and gate once per candidate it walks.
TEST(OnlineUpdater, ResumeRecordsOneSpanPerStagePerCandidate) {
  const std::string dir = scratchDir("resumespans");
  {
    FuzzyPsm seed = fixtureBase();
    seed.train(fixtureDataset("online_corpus.txt"));
    auto updater = bootstrapped(seed, dir);
  }
  const auto samples = [] {
    const auto snap = obs::snapshot();
    return std::vector<std::uint64_t>{
        snap.histogram(obs::Histo::OnlineResumeLogOpen).count,
        snap.histogram(obs::Histo::OnlineResumeArtifactOpen).count,
        snap.histogram(obs::Histo::OnlineResumeGate).count};
  };
  const std::uint64_t on = FPSM_METRICS_ENABLED ? 1 : 0;
  const auto delta = [&](const std::vector<std::uint64_t>& before) {
    const auto after = samples();
    return std::vector<std::uint64_t>{after[0] - before[0],
                                      after[1] - before[1],
                                      after[2] - before[2]};
  };

  // A clean one-generation log: one sample per stage.
  auto before = samples();
  auto resumed = OnlineUpdater::resume(dir);
  EXPECT_EQ(delta(before), (std::vector<std::uint64_t>{on, on, on}));

  // Publish generation 2, then resume under a policy that rejects the
  // first candidate it sees: the walk opens and gates both generations.
  resumed->accept("dragon123", 2);
  ASSERT_TRUE(resumed->compactNow().published);
  resumed.reset();
  OnlineUpdaterConfig cfg;
  auto candidates = std::make_shared<int>(0);
  cfg.publishGate = [candidates](const FlatGrammarView& grammar) {
    if ((*candidates)++ == 0) rejectEveryCandidate(grammar);
  };
  RecoveryReport report;
  before = samples();
  resumed = OnlineUpdater::resume(dir, cfg, &report);
  ASSERT_EQ(report.skipped.size(), 1u) << report.render();
  EXPECT_EQ(report.skipped[0].reason, RecoverySkipReason::LintRejected);
  EXPECT_EQ(resumed->stats().lastSequence, 1u);
  EXPECT_EQ(delta(before), (std::vector<std::uint64_t>{on, 2 * on, 2 * on}));
  if (!FPSM_METRICS_ENABLED) {
    EXPECT_EQ(samples(), (std::vector<std::uint64_t>{0, 0, 0}));
  }
}

// -------------------------------------- the online-vs-batch determinism core

TEST(OnlineUpdater, OnlineRunMatchesBatchRetrainByteIdentically) {
  // Batch oracle: one-shot retrain over C + S.
  FuzzyPsm batch = fixtureBase();
  Dataset all = fixtureDataset("online_corpus.txt");
  all.merge(fixtureDataset("online_stream.txt"));
  batch.train(all);
  const Bytes expected = compileArtifact(batch);

  // Online runs: same corpus then streamed S, across thread counts and
  // compaction cadences. Every final artifact must be byte-identical to
  // the oracle.
  struct Variant {
    unsigned threads;
    std::size_t chunk;
  };
  for (const Variant v :
       {Variant{1, 4}, Variant{1, 3}, Variant{4, 1}, Variant{4, 5}}) {
    SCOPED_TRACE("threads=" + std::to_string(v.threads) +
                 " chunk=" + std::to_string(v.chunk));
    const std::string dir = scratchDir("equiv");
    FuzzyPsm seed = fixtureBase();
    seed.train(fixtureDataset("online_corpus.txt"));
    OnlineUpdaterConfig cfg;
    cfg.compactionThreads = v.threads;
    auto updater = bootstrapped(seed, dir, cfg);
    const std::uint64_t lastSeq = driveFixtureStream(*updater, v.chunk);
    ASSERT_GT(lastSeq, 1u);
    const Bytes actual = readFileBytes(updater->log().pathFor(lastSeq));
    ASSERT_EQ(actual.size(), expected.size());
    EXPECT_EQ(std::memcmp(actual.data(), expected.data(), expected.size()),
              0)
        << "online final artifact diverged from batch retrain";
    // And the served scores equal the batch grammar's scores.
    const auto batchArtifact = compiled(batch);
    for (const char* probe : {"password1", "dragon123", "zzzzzz", "abc123"}) {
      EXPECT_EQ(updater->service().score(probe).bits,
                batchArtifact->grammar().strengthBits(probe))
          << probe;
    }
  }
}

TEST(OnlineUpdater, GoldenFinalArtifactDigestIsPinned) {
  // Canonical run: threads 1, compact every 3 stream entries.
  const std::string dir = scratchDir("golden");
  FuzzyPsm seed = fixtureBase();
  seed.train(fixtureDataset("online_corpus.txt"));
  OnlineUpdaterConfig cfg;
  cfg.compactionThreads = 1;
  auto updater = bootstrapped(seed, dir, cfg);
  const std::uint64_t lastSeq = driveFixtureStream(*updater, 3);
  const std::string digest =
      hexDigest(readFileBytes(updater->log().pathFor(lastSeq)));

  std::ifstream in(dataPath("online_golden.digest"));
  ASSERT_TRUE(in.good())
      << "missing golden fixture tests/data/online_golden.digest; actual "
         "digest of this build: "
      << digest;
  std::string expected;
  in >> expected;
  EXPECT_EQ(digest, expected)
      << "the end-to-end online pipeline changed its output encoding; if "
         "intentional, re-pin tests/data/online_golden.digest";
}

// ------------------------------------------------- compaction work (counts)

/// A trained grammar over `words` distinct pseudo-random 6..12-letter base
/// words, each trained once with a one- or two-digit suffix, so every word
/// is its own B_n table entry.
FuzzyPsm sizedGrammar(std::size_t words) {
  Rng rng(7);
  FuzzyPsm psm;
  while (psm.baseWords().size() < words) {
    std::string word(6 + rng.below(7), 'a');
    for (char& c : word) c = static_cast<char>('a' + rng.below(26));
    psm.addBaseWord(word);
  }
  for (const std::string& word : psm.baseWords()) {
    psm.update(word + std::to_string(rng.below(100)));
  }
  return psm;
}

// A compaction counts its batch against the served artifact and merges the
// delta into the artifact's tables, so what it allocates follows the batch,
// not the grammar: the first compaction after a resume rebuilds nothing,
// and no compaction copies the cumulative counts. Allocation counts are
// exact, so the gate holds on any machine.
TEST(OnlineUpdater, CompactionAllocationsFollowTheBatchNotTheGrammar) {
  const std::string dir = scratchDir("allocs");
  const FuzzyPsm seed = sizedGrammar(12000);
  const std::size_t baseWords = seed.baseWords().size();
  std::size_t tableEntries = seed.structures().distinct();
  for (const std::size_t len : seed.counts().segmentLengths()) {
    tableEntries += seed.segmentTable(len)->distinct();
  }
  ASSERT_GE(baseWords, 10000u);
  ASSERT_GE(tableEntries, 10000u);
  (void)bootstrapped(seed, dir);

  OnlineUpdaterConfig cfg;
  cfg.compactionThreads = 1;  // the parse runs on this thread and is counted
  auto updater = OnlineUpdater::resume(dir, cfg);
  const auto compactionAllocations = [&] {
    for (const char* pw : {"dragon123", "Password1!", "zqxjkv99", "monkey"}) {
      updater->accept(pw, 3);
    }
    const std::uint64_t before = test_alloc::allocations();
    const auto result = updater->compactNow();
    const std::uint64_t allocations = test_alloc::allocations() - before;
    EXPECT_TRUE(result.published) << result.rejection;
    return allocations;
  };
  const std::uint64_t first = compactionAllocations();
  const std::uint64_t second = compactionAllocations();
  EXPECT_LT(first, baseWords / 10);
  EXPECT_LT(second, baseWords / 10);
  EXPECT_LE(first, second) << "the first compaction pays no extra set-up";
}

// ----------------------------------------------- OnlineUpdater: durability

TEST(OnlineUpdater, ResumeAfterCrashServesLastGoodGeneration) {
  const std::string dir = scratchDir("resume");
  std::vector<std::string> probes = {"password1", "dragon123", "qwerty12",
                                     "zzzzzz"};
  std::vector<double> gen1Bits;
  std::string gen2Path;
  {
    FuzzyPsm seed = fixtureBase();
    seed.train(fixtureDataset("online_corpus.txt"));
    auto updater = bootstrapped(seed, dir);
    for (const auto& p : probes) {
      gen1Bits.push_back(updater->service().score(p).bits);
    }
    updater->accept("dragon123", 7);
    updater->accept("zzzzzz", 2);
    const auto result = updater->compactNow();
    ASSERT_TRUE(result.published) << result.rejection;
    gen2Path = updater->log().pathFor(result.sequence);
  }  // "crash": updater destroyed, queue lost

  // The crash tore the newest generation file.
  fs::resize_file(gen2Path, fs::file_size(gen2Path) / 2);

  RecoveryReport report;
  auto resumed = OnlineUpdater::resume(dir, {}, &report);
  ASSERT_EQ(report.skipped.size(), 1u) << report.render();
  EXPECT_EQ(report.skipped[0].reason, RecoverySkipReason::SizeMismatch);
  EXPECT_EQ(report.skipped[0].sequence, 2u);
  EXPECT_EQ(resumed->stats().lastSequence, 1u);
  // No serving gap: scores are exactly generation 1's.
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(resumed->service().score(probes[i]).bits, gen1Bits[i])
        << probes[i];
  }
  // The loop keeps going: new updates land in a fresh generation whose
  // sequence skips the dead one.
  resumed->accept("dragon123", 7);
  const auto result = resumed->compactNow();
  EXPECT_TRUE(result.published) << result.rejection;
  EXPECT_EQ(result.sequence, 3u);
}

TEST(OnlineUpdater, ResumeSkipsCommittedButUnloadableGeneration) {
  const std::string dir = scratchDir("unloadable");
  {
    FuzzyPsm seed = fixtureBase();
    seed.train(fixtureDataset("online_corpus.txt"));
    auto updater = bootstrapped(seed, dir);
  }
  {
    // A generation whose bytes checksum fine in the log but are not a
    // valid artifact: a real compiled grammar with its magic stomped
    // (same tamper primitives as the loader's corruption battery). The
    // log commits it — it only promises byte integrity — and gate 1
    // rejects it on resume.
    FuzzyPsm seed = fixtureBase();
    seed.train(fixtureDataset("online_corpus.txt"));
    Bytes tampered = compileArtifact(seed);
    test_tamper::writeU32(tampered, 0, 0xBADC0DEu);
    test_tamper::expectRejected(tampered, "stomped magic");
    GenerationLog log(dir);
    ASSERT_EQ(log.append(tampered.data(), tampered.size()), 2u);
  }
  RecoveryReport report;
  auto resumed = OnlineUpdater::resume(dir, {}, &report);
  ASSERT_EQ(report.skipped.size(), 1u) << report.render();
  EXPECT_EQ(report.skipped[0].reason,
            RecoverySkipReason::UnreadableArtifact);
  EXPECT_EQ(report.skipped[0].sequence, 2u);
  EXPECT_EQ(resumed->stats().lastSequence, 1u);
  EXPECT_TRUE(resumed->service().snapshot()->trained());
}

TEST(OnlineUpdater, ResumeWithNothingServableThrows) {
  const std::string dir = scratchDir("nothingservable");
  {
    GenerationLog log(dir);
    const std::string junk = "no generation here is an artifact";
    log.append(junk.data(), junk.size());
  }
  EXPECT_THROW((void)OnlineUpdater::resume(dir), GenerationLogError);
}

// ------------------------------------------------ rollback without a gap

TEST(OnlineUpdater, LintRejectedGenerationRollsBackWithoutServingGap) {
  const std::string dir = scratchDir("rollback");
  FuzzyPsm seed = fixtureBase();
  seed.train(fixtureDataset("online_corpus.txt"));

  OnlineUpdaterConfig cfg;
  // Deterministic rejection injection via the acceptance policy: the first
  // candidate (bootstrap's generation 1) is admitted and every later one
  // is refused, so every compaction below rolls back.
  auto candidates = std::make_shared<int>(0);
  cfg.publishGate = [candidates](const FlatGrammarView& grammar) {
    if ((*candidates)++ > 0) rejectEveryCandidate(grammar);
  };
  auto updater = bootstrapped(seed, dir, cfg);

  const std::vector<std::string> probes = {"password1", "dragon123",
                                           "qwerty12", "zzzzzz"};
  std::vector<double> gen1Bits;
  for (const auto& p : probes) {
    gen1Bits.push_back(updater->service().score(p).bits);
  }

  // Concurrent readers assert there is never a serving gap: every score
  // they observe equals generation 1's, before, during, and after the
  // rejected publishes. (TSan target.)
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto scores = updater->service().scoreBatch(probes);
        for (std::size_t i = 0; i < probes.size(); ++i) {
          if (scores[i].bits != gen1Bits[i]) {
            ADD_FAILURE() << "reader observed a non-gen-1 score for "
                          << probes[i];
            return;
          }
        }
      }
    });
  }

  for (int round = 1; round <= 3; ++round) {
    updater->accept("dragon123", 5);
    updater->accept("password1", 2);
    const auto result = updater->compactNow();
    EXPECT_FALSE(result.published);
    EXPECT_FALSE(result.rejection.empty());
    EXPECT_EQ(result.folded, 7u);
    const auto stats = updater->stats();
    EXPECT_EQ(stats.rollbacks, static_cast<std::uint64_t>(round));
    EXPECT_EQ(stats.quarantined, static_cast<std::uint64_t>(7 * round));
    EXPECT_EQ(stats.published, 0u);
    EXPECT_EQ(stats.lastSequence, 1u);  // still serving the bootstrap gen
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  // The rejected generations are quarantined in the log (committed bytes,
  // never served), and the service still answers with generation 1.
  EXPECT_EQ(updater->log().entries().size(), 4u);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(updater->service().score(probes[i]).bits, gen1Bits[i]);
  }
  updater.reset();

  // Resume under a gate that rejects everything: EVERY generation
  // (including the bootstrap one) fails it, so there is nothing servable —
  // typed refusal, with each rejection reported.
  OnlineUpdaterConfig rejectAll;
  rejectAll.publishGate = rejectEveryCandidate;
  RecoveryReport report;
  try {
    (void)OnlineUpdater::resume(dir, rejectAll, &report);
    FAIL() << "poisoned lint gate must leave nothing servable";
  } catch (const GenerationLogError& e) {
    EXPECT_EQ(static_cast<int>(e.code()),
              static_cast<int>(GenerationLogErrorCode::NoSuchSequence));
  }
  EXPECT_EQ(report.skipped.size(), 4u) << report.render();
  for (const auto& skip : report.skipped) {
    EXPECT_EQ(skip.reason, RecoverySkipReason::LintRejected);
  }

  // Under the DEFAULT gate the quarantined generations are perfectly
  // valid grammars (the rejection was pure policy), so a default resume
  // serves the newest one — quarantine is gate-dependent by design.
  auto resumed = OnlineUpdater::resume(dir);
  EXPECT_EQ(resumed->stats().lastSequence, 4u);
}

// ----------------------------------------------------- drift stress (TSan)

TEST(OnlineUpdater, DriftStressAdaptsMonotonicallyUnderConcurrentReaders) {
  const std::string dir = scratchDir("drift");
  // Seed: heavy static background, no sign of the drifted family.
  FuzzyPsm seed;
  for (const char* w : {"password", "dragon", "monkey"}) seed.addBaseWord(w);
  Dataset corpus("seed");
  corpus.add("password1", 60);
  corpus.add("123456", 30);
  corpus.add("monkey!", 10);
  seed.train(corpus);

  auto updater = bootstrapped(seed, dir);

  const std::string drifted = "Dr@gon2026";  // reuse+modification family
  const std::vector<std::string> probes = {"password1", "123456", drifted,
                                           "monkey!"};

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::uint64_t lastGen = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto scores = updater->service().scoreBatch(probes);
        for (const auto& s : scores) {
          // +inf is legitimate early on (the drifted family is unseen and
          // correctly scores probability 0); NaN never is.
          if (std::isnan(s.bits)) {
            ADD_FAILURE() << "NaN score under drift";
            return;
          }
          // Generations only move forward under concurrent publishes.
          if (s.generation < lastGen) {
            ADD_FAILURE() << "generation went backwards";
            return;
          }
          lastGen = s.generation;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Make sure the readers genuinely overlap the compaction cycles: on a
  // loaded single-core machine they may not be scheduled before the tiny
  // cycles below finish. Bounded wait so a crashed reader cannot hang us.
  for (int spin = 0; reads.load(std::memory_order_relaxed) == 0 &&
                     !testing::Test::HasFailure() && spin < 5000;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // N compaction cycles: the drifted family's share of the update stream
  // grows each cycle while the background stays constant, so its estimated
  // strength must fall monotonically — the meter adapting to drift.
  std::vector<double> driftedBits;
  driftedBits.push_back(updater->service().score(drifted).bits);
  constexpr int kCycles = 5;
  for (int cycle = 1; cycle <= kCycles; ++cycle) {
    updater->accept("password1", 5);  // constant background
    updater->accept(drifted, static_cast<std::uint64_t>(8 * cycle));
    const auto result = updater->compactNow();
    ASSERT_TRUE(result.published) << result.rejection;
    driftedBits.push_back(updater->service().score(drifted).bits);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  for (std::size_t i = 1; i < driftedBits.size(); ++i) {
    EXPECT_LT(driftedBits[i], driftedBits[i - 1])
        << "cycle " << i << ": drifted family did not strengthen its "
        << "probability estimate";
  }
  EXPECT_LT(driftedBits.back(), driftedBits.front() - 1.0)
      << "meter barely adapted across " << kCycles << " cycles";
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(updater->stats().published, static_cast<std::uint64_t>(kCycles));
  EXPECT_EQ(updater->stats().rollbacks, 0u);
}

// ---------------------------------- concurrent compaction under load (TSan)

TEST(OnlineUpdater, BackgroundCompactorPublishesUnderLoad) {
  const std::string dir = scratchDir("background");
  FuzzyPsm seed = fixtureBase();
  seed.train(fixtureDataset("online_corpus.txt"));
  auto updater = bootstrapped(seed, dir);

  // The updater starts no thread; this test owns the background compactor:
  // one thread runs compactNow() in a loop while two writers accept and a
  // reader scores.
  std::atomic<bool> writing{true};
  std::thread compactor([&] {
    while (writing.load(std::memory_order_acquire)) {
      if (updater->compactNow().folded == 0) std::this_thread::yield();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&updater, w] {
      for (int i = 0; i < 200; ++i) {
        updater->accept(w == 0 ? "password1" : "dragon123", 1);
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)updater->service().score("password1");
    }
  });
  for (auto& t : writers) t.join();
  writing.store(false, std::memory_order_release);
  compactor.join();
  // Flush whatever the compactor thread has not picked up yet.
  const auto result = updater->compactNow();
  (void)result;  // may be a no-op if the compactor already drained it all
  stop.store(true, std::memory_order_release);
  reader.join();

  const auto stats = updater->stats();
  EXPECT_EQ(stats.accepted, 400u);
  EXPECT_GE(stats.published, 1u);
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_EQ(updater->pendingUpdates(), 0u);
  // Every accepted occurrence was folded exactly once: the served grammar
  // equals the oracle that folds all 400 in one step.
  FuzzyPsm oracle = fixtureBase();
  Dataset all = fixtureDataset("online_corpus.txt");
  all.add("password1", 200);
  all.add("dragon123", 200);
  oracle.train(all);
  const auto oracleArtifact = compiled(oracle);
  for (const char* probe : {"password1", "dragon123", "qwerty12"}) {
    EXPECT_EQ(updater->service().score(probe).bits,
              oracleArtifact->grammar().strengthBits(probe))
        << probe;
  }
}

}  // namespace
}  // namespace fpsm
