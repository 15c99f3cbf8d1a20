// GrammarValidator battery (ctest label: lint).
//
// The lint audits only what spans sections; every defect within one
// section is the loader's, and tests/artifact_test.cpp's corruption
// battery pins each of those. Two corruption channels seed what the lint
// owns, through artifacts that load:
//   * counts tampering — a bare parse folded in with GrammarCounts::
//     addParse + absorbCounts, bypassing the parser (the defect survives
//     compilation and byte validation);
//   * byte tampering — a compiled artifact edited in place, checksums
//     repaired (tests/artifact_tamper.h), so the loader accepts it.
// Hand-built FlatTrieViews exercise the loader's own trie audit,
// FlatTrieView::validate() (unsorted or no-tree tries).
//
// Every seeded corruption asserts its exact LintCode, and the gate tests
// prove a linted-bad artifact cannot reach readers through OnlineUpdater
// (bootstrap, resume, the gate itself), while TenantMeter serves what it
// is handed.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "analysis/grammar_lint.h"
#include "artifact/artifact.h"
#include "artifact_tamper.h"
#include "core/fuzzy_psm.h"
#include "online/generation_log.h"
#include "online/online_updater.h"
#include "serve/grammar_snapshot.h"
#include "serve/tenant_meter.h"
#include "trie/flat_trie.h"
#include "trie/trie.h"
#include "util/check.h"
#include "util/rng.h"

namespace fpsm {
namespace {

FuzzyPsm makeTrainedPsm(FuzzyConfig config = {}) {
  FuzzyPsm psm(config);
  psm.addBaseWord("password");
  psm.addBaseWord("monkey");
  psm.addBaseWord("dragon");
  psm.update("password1", 4);
  psm.update("Monkey", 3);
  psm.update("dragon123", 2);
  psm.update("12345", 2);
  return psm;
}

/// The trained grammar plus two occurrences of a bare B9 B9 structure whose
/// segments were never counted: a dangling reference. The semantic defect
/// survives compilation AND byte validation.
FuzzyPsm makeDanglingPsm() {
  FuzzyPsm psm = makeTrainedPsm();
  GrammarCounts dangling;
  dangling.addParse(FuzzyParse{{}, "B9B9"}, 2, false);
  psm.absorbCounts(dangling);
  return psm;
}

/// Lints the artifact compiled from `psm`, the form every trust point
/// audits.
LintReport lintCompiled(const FuzzyPsm& psm) {
  const auto artifact = GrammarArtifact::fromBytes(compileArtifact(psm));
  return GrammarValidator().lint(artifact->grammar());
}

const LintDiagnostic* findCode(const LintReport& report, LintCode code) {
  for (const auto& d : report.diagnostics()) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Clean grammars audit clean, with and without the reverse rule.
// ---------------------------------------------------------------------------

TEST(GrammarLintTest, TrainedGrammarIsClean) {
  const FuzzyPsm psm = makeTrainedPsm();
  const LintReport report = lintCompiled(psm);
  EXPECT_TRUE(report.clean()) << report.render();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.worst(), LintSeverity::Info);
}

TEST(GrammarLintTest, CompiledArtifactIsClean) {
  const auto artifact =
      GrammarArtifact::fromBytes(compileArtifact(makeTrainedPsm()));
  const LintReport report = GrammarValidator().lint(artifact->grammar());
  EXPECT_TRUE(report.clean()) << report.render();
}

TEST(GrammarLintTest, ReverseGrammarIsClean) {
  FuzzyConfig config;
  config.matchReverse = true;
  EXPECT_TRUE(lintCompiled(makeTrainedPsm(config)).clean());
}

TEST(GrammarLintTest, UntrainedGrammarWarnsNotTrained) {
  FuzzyPsm psm;
  psm.addBaseWord("password");
  const LintReport report = lintCompiled(psm);
  EXPECT_TRUE(report.has(LintCode::NotTrained));
  EXPECT_TRUE(report.ok());  // warning, not error
  EXPECT_EQ(report.worst(), LintSeverity::Warning);
}

// ---------------------------------------------------------------------------
// Seeded corruption: raw flat tries. The loader's FlatTrieView::validate()
// is the one trie audit (the lint no longer walks tries), so every shape
// defect is asserted on it directly, and the artifact battery proves the
// loader rejects the same defects in checksum-repaired bytes.
// ---------------------------------------------------------------------------

/// Asserts `defect` is non-empty and names the problem (`expect`).
void expectDefect(const std::string& defect, const char* expect) {
  ASSERT_FALSE(defect.empty()) << "expected a defect naming: " << expect;
  EXPECT_NE(defect.find(expect), std::string::npos) << defect;
}

TEST(GrammarLintTest, UnsortedTrieChildren) {
  // root --b--> 1, root --a--> 2: labels out of order, so child() binary
  // search misses edges.
  const std::uint32_t edgeBegin[] = {0, 2, 2};
  const std::uint32_t edgeMeta[] = {2, FlatTrieView::kTerminalBit,
                                    FlatTrieView::kTerminalBit};
  const std::uint32_t edgeTargets[] = {1, 2};
  const char edgeLabels[] = {'b', 'a'};
  const FlatTrieView trie(edgeBegin, edgeMeta, 3, edgeTargets, edgeLabels, 2,
                          2);
  expectDefect(trie.validate(), "edge labels of node 0 not strictly ascending");
}

TEST(GrammarLintTest, TrieEdgeTargetOutOfRange) {
  const std::uint32_t edgeBegin[] = {0, 1};
  const std::uint32_t edgeMeta[] = {1, FlatTrieView::kTerminalBit};
  const std::uint32_t edgeTargets[] = {5};  // only nodes 0..1 exist
  const char edgeLabels[] = {'a'};
  const FlatTrieView trie(edgeBegin, edgeMeta, 2, edgeTargets, edgeLabels, 1,
                          1);
  expectDefect(trie.validate(), "edge target 5 out of range");
}

TEST(GrammarLintTest, TrieEdgeSliceOutOfRange) {
  const std::uint32_t edgeBegin[] = {0, 7};  // node 1 slice starts past end
  const std::uint32_t edgeMeta[] = {1, 1 | FlatTrieView::kTerminalBit};
  const std::uint32_t edgeTargets[] = {1};
  const char edgeLabels[] = {'a'};
  const FlatTrieView trie(edgeBegin, edgeMeta, 2, edgeTargets, edgeLabels, 1,
                          1);
  expectDefect(trie.validate(), "edge slice of node 1 out of range");
}

TEST(GrammarLintTest, TrieNodeWithTwoParents) {
  // root --a--> 1, root --b--> 2, 1 --c--> 2: node 2 has two incoming
  // edges, so the structure is a DAG, not a tree.
  const std::uint32_t edgeBegin[] = {0, 2, 3};
  const std::uint32_t edgeMeta[] = {2, 1, FlatTrieView::kTerminalBit};
  const std::uint32_t edgeTargets[] = {1, 2, 2};
  const char edgeLabels[] = {'a', 'b', 'c'};
  const FlatTrieView trie(edgeBegin, edgeMeta, 3, edgeTargets, edgeLabels, 3,
                          1);
  expectDefect(trie.validate(), "node 2 has two parents");
}

TEST(GrammarLintTest, TrieNodeWithNoParent) {
  // root --a--> 1 and nothing reaches node 2: its slice is never pointed
  // at, so the walk parents one node fewer than a tree needs.
  const std::uint32_t edgeBegin[] = {0, 1, 1};
  const std::uint32_t edgeMeta[] = {1, FlatTrieView::kTerminalBit,
                                    FlatTrieView::kTerminalBit};
  const std::uint32_t edgeTargets[] = {1, 2};
  const char edgeLabels[] = {'a', 'b'};
  const FlatTrieView trie(edgeBegin, edgeMeta, 3, edgeTargets, edgeLabels, 2,
                          2);
  expectDefect(trie.validate(), "1 non-root node(s) have no parent");
}

TEST(GrammarLintTest, TrieTerminalCountDrift) {
  const std::uint32_t edgeBegin[] = {0, 1};
  const std::uint32_t edgeMeta[] = {1, FlatTrieView::kTerminalBit};
  const std::uint32_t edgeTargets[] = {1};
  const char edgeLabels[] = {'a'};
  // One terminal node, but the header claims 3 stored words.
  const FlatTrieView trie(edgeBegin, edgeMeta, 2, edgeTargets, edgeLabels, 1,
                          3);
  expectDefect(trie.validate(), "terminal count 1 != stored word count 3");
}

TEST(GrammarLintTest, TrieDetachedCycle) {
  // root --a--> 1 is the whole reachable trie; nodes 2 and 3 point at each
  // other, so each has exactly one incoming edge, yet no walk from the root
  // reaches them.
  const std::uint32_t edgeBegin[] = {0, 1, 1, 2};
  const std::uint32_t edgeMeta[] = {1, FlatTrieView::kTerminalBit, 1, 1};
  const std::uint32_t edgeTargets[] = {1, 3, 2};
  const char edgeLabels[] = {'a', 'b', 'c'};
  const FlatTrieView trie(edgeBegin, edgeMeta, 4, edgeTargets, edgeLabels, 3,
                          1);
  expectDefect(trie.validate(),
               "edge target 2 of node 3 does not follow its source node");
}

TEST(GrammarLintTest, CleanPointerTrieAndFlatTrieAgree) {
  // FlatTrie::fromTrie keeps node ids, so the compiled trie has the
  // pointer trie's exact shape, and the loader's audit passes it.
  const FuzzyPsm psm = makeTrainedPsm();
  const Trie& pointer = psm.baseDictionary();
  const auto artifact = GrammarArtifact::fromBytes(compileArtifact(psm));
  const FlatTrieView& flat = artifact->grammar().baseDictionary();
  ASSERT_EQ(flat.nodeCount(), pointer.nodeCount());
  EXPECT_EQ(flat.size(), pointer.size());
  for (Trie::NodeId node = 0; node < pointer.nodeCount(); ++node) {
    EXPECT_EQ(flat.isTerminal(node), pointer.isTerminal(node)) << node;
    pointer.forEachEdge(node, [&](char label, Trie::NodeId target) {
      EXPECT_EQ(flat.child(node, label), std::optional(target)) << node;
    });
  }
  EXPECT_EQ(flat.validate(), "");
}

// ---------------------------------------------------------------------------
// Work count: a clean load + lint allocates the same number of times for
// any grammar. The loader's trie audit and the lint build no string or
// vector per trie node, structure or base word, so the count is a fixed
// handful of buffers (section table, segment index, one parent map per
// trie).
// ---------------------------------------------------------------------------

/// A trained grammar over `words` pseudo-random 6..12-letter base words,
/// each trained once with a suffix of 1..`suffixes` digits, so it has one
/// structure per (word length, suffix length) pair it draws.
FuzzyPsm makeSizedPsm(std::size_t words, std::size_t suffixes,
                      std::uint64_t seed) {
  Rng rng(seed);
  FuzzyPsm psm;
  for (std::size_t i = 0; i < words; ++i) {
    std::string word(6 + rng.below(7), 'a');
    for (char& c : word) c = static_cast<char>('a' + rng.below(26));
    psm.addBaseWord(word);
    psm.update(word + std::string(1 + i % suffixes, '7'));
  }
  return psm;
}

/// Heap allocations of GrammarArtifact::fromBytes + a default lint of the
/// view; `clean` reports whether the lint came back clean.
std::uint64_t loadAndLintAllocations(std::vector<std::byte> bytes,
                                     bool& clean) {
  const std::uint64_t before = test_alloc::allocations();
  {
    const auto artifact = GrammarArtifact::fromBytes(std::move(bytes));
    clean = GrammarValidator().lint(artifact->grammar()).clean();
  }
  return test_alloc::allocations() - before;
}

TEST(GrammarLintTest, CleanLoadAndLintAllocationsDoNotGrowWithTheGrammar) {
  const FuzzyPsm small = makeSizedPsm(20, 2, 1);
  const FuzzyPsm large = makeSizedPsm(2500, 6, 2);
  // Past node id 9999 a per-node locus such as "trie.node[12345]"
  // outgrows the small-string buffer, so building one per node would
  // allocate once per node and show up here.
  ASSERT_GT(large.baseDictionary().nodeCount(), 10000u);
  ASSERT_GE(large.baseDictionary().nodeCount(),
            10 * small.baseDictionary().nodeCount());
  ASSERT_GT(large.structures().distinct(), small.structures().distinct());

  bool smallClean = false;
  bool largeClean = false;
  const std::uint64_t smallAllocs =
      loadAndLintAllocations(compileArtifact(small), smallClean);
  const std::uint64_t largeAllocs =
      loadAndLintAllocations(compileArtifact(large), largeClean);
  EXPECT_TRUE(smallClean);
  EXPECT_TRUE(largeClean);
  EXPECT_EQ(largeAllocs, smallAllocs);
}

// ---------------------------------------------------------------------------
// Seeded corruption: tampered counts and tampered artifact bytes.
// ---------------------------------------------------------------------------

TEST(GrammarLintTest, DanglingSegmentRefFromTamperedStructure) {
  const LintReport report = lintCompiled(makeDanglingPsm());
  const auto* d = findCode(report, LintCode::DanglingSegmentRef);
  ASSERT_NE(d, nullptr) << report.render();
  EXPECT_EQ(d->severity, LintSeverity::Error);
  EXPECT_EQ(d->locus, "structures[B9B9]");
}

TEST(GrammarLintTest, TamperedTrainedCountIsWarning) {
  test_tamper::Bytes b = compileArtifact(makeTrainedPsm());
  const std::size_t cfgOff = static_cast<std::size_t>(
      GrammarArtifact::fromBytes(b)->sections()[0].offset);
  // trainedPasswords is the fixed 152-byte Config section's last u64.
  test_tamper::writeU64(b, cfgOff + 144, 5000);
  test_tamper::repairChecksums(b);
  const auto artifact = GrammarArtifact::fromBytes(std::move(b));
  ASSERT_EQ(artifact->grammar().trainedPasswords(), 5000u);
  const LintReport report = GrammarValidator().lint(artifact->grammar());
  const auto* d = findCode(report, LintCode::CountInconsistency);
  ASSERT_NE(d, nullptr) << report.render();
  EXPECT_EQ(d->severity, LintSeverity::Warning);
  EXPECT_TRUE(report.ok());  // warnings do not block publish
  EXPECT_EQ(report.worst(), LintSeverity::Warning);
}

// A base word the tries cannot reach: the word pool and the tries are
// separate sections, each of which loads on its own. Base word 0 is the
// first one the lint probes.

/// Repairs the checksums of `bytes`, loads them, and expects the lint to
/// report WordNotInTrie at "baseWords[0]" and the gate to reject them.
void expectWordNotInTrie(test_tamper::Bytes bytes) {
  test_tamper::repairChecksums(bytes);
  const auto artifact = GrammarArtifact::fromBytes(std::move(bytes));
  const LintReport report = GrammarValidator().lint(artifact->grammar());
  const auto* d = findCode(report, LintCode::WordNotInTrie);
  ASSERT_NE(d, nullptr) << report.render();
  EXPECT_EQ(d->severity, LintSeverity::Error);
  EXPECT_EQ(d->locus, "baseWords[0]");
  try {
    OnlineUpdater::gate(OnlineUpdaterConfig{}, artifact->grammar());
    FAIL() << "expected GrammarLintError";
  } catch (const GrammarLintError& e) {
    EXPECT_TRUE(e.report().has(LintCode::WordNotInTrie));
  }
}

TEST(GrammarLintTest, BaseWordMissingFromTheTrie) {
  test_tamper::Bytes b = compileArtifact(makeTrainedPsm());
  const auto artifact = GrammarArtifact::fromBytes(b);
  ASSERT_EQ(artifact->grammar().baseWord(0), "password");
  // The BaseWords payload is u64 count, u64 poolBytes, u32 off[count + 1],
  // then the pool; word 0 starts the pool. "qassword" is printable, so the
  // section loads, but the trie never stored it.
  const std::size_t poolOff =
      static_cast<std::size_t>(artifact->sections()[1].offset) + 16 +
      4 * (artifact->grammar().baseWordCount() + 1);
  ASSERT_EQ(b[poolOff], std::byte{'p'});
  b[poolOff] = std::byte{'q'};
  expectWordNotInTrie(std::move(b));
}

TEST(GrammarLintTest, BaseWordMissingFromTheReversedTrie) {
  FuzzyConfig config;
  config.matchReverse = true;
  test_tamper::Bytes b = compileArtifact(makeTrainedPsm(config));
  const auto artifact = GrammarArtifact::fromBytes(b);
  ASSERT_EQ(artifact->grammar().baseWord(0), "password");
  // "drowssap" is the only reversed word starting with 'd', so the edge
  // 'd' -> 'r' is its node's only edge: relabelling it keeps the trie a
  // tree with sorted labels, and the forward trie still holds "password".
  // The ReverseTrie payload is u32 nodeCount, u32 edgeCount, u64
  // wordCount, u32 edgeBegin[], u32 edgeMeta[], u32 edgeTargets[], then
  // the labels.
  const FlatTrieView& trie = artifact->grammar().reversedDictionary();
  const auto d = trie.child(FlatTrieView::kRoot, 'd');
  ASSERT_TRUE(d.has_value());
  const std::size_t trieOff =
      static_cast<std::size_t>(artifact->sections()[3].offset);
  const std::size_t nodes = trie.nodeCount();
  ASSERT_EQ(test_tamper::readU32(b, trieOff + 16 + 4 * nodes + 4 * *d) &
                FlatTrieView::kEdgeCountMask,
            1u);
  const std::size_t edge = test_tamper::readU32(b, trieOff + 16 + 4 * *d);
  const std::size_t labelOff =
      trieOff + 16 + 8 * nodes + 4 * (nodes - 1) + edge;
  ASSERT_EQ(b[labelOff], std::byte{'r'});
  b[labelOff] = std::byte{'x'};
  expectWordNotInTrie(std::move(b));
}

// ---------------------------------------------------------------------------
// The dangling reference passes the byte loader but is stopped by
// OnlineUpdater's gate — the one place a generation is trusted — on both
// paths into serving, bootstrap and resume. TenantMeter serves what it is
// handed.
// ---------------------------------------------------------------------------

class LintGateTest : public ::testing::Test {
 protected:
  /// A dangling B9 B9 structure (makeDanglingPsm). The semantic defect
  /// survives compilation AND byte validation.
  FuzzyPsm makeBadPsm() { return makeDanglingPsm(); }
  std::shared_ptr<const GrammarArtifact> makeBadArtifact() {
    return GrammarArtifact::fromBytes(compileArtifact(makeBadPsm()));
  }
  /// Fresh scratch directory for a generation log.
  static std::string logDir(const char* name) {
    const std::string dir = testing::TempDir() + "lint_gate_" + name;
    std::filesystem::remove_all(dir);
    return dir;
  }
};

TEST_F(LintGateTest, BootstrapRejectsBadArtifact) {
  const std::string dir = logDir("bootstrap");
  try {
    (void)OnlineUpdater::bootstrap(makeBadPsm(), dir);
    FAIL() << "expected GrammarLintError";
  } catch (const GrammarLintError& e) {
    EXPECT_TRUE(e.report().has(LintCode::DanglingSegmentRef));
    EXPECT_NE(std::string(e.what()).find("dangling-segment-ref"),
              std::string::npos);
  }
  // The rejected grammar never reached the log, so a good one can still
  // bootstrap there.
  EXPECT_EQ(GenerationLog(dir).latest(), nullptr);
  const auto updater = OnlineUpdater::bootstrap(makeTrainedPsm(), dir);
  EXPECT_EQ(updater->stats().lastSequence, 1u);
}

TEST_F(LintGateTest, ResumeSkipsBadArtifactOnColdStart) {
  const std::string dir = logDir("resume");
  const FuzzyPsm good = makeTrainedPsm();
  (void)OnlineUpdater::bootstrap(good, dir);
  {
    // The newest generation is the tampered grammar. The log only promises
    // byte integrity, so it commits the bytes; the gate is resume's job.
    const std::vector<std::byte> bad = compileArtifact(makeBadPsm());
    GenerationLog log(dir);
    ASSERT_EQ(log.append(bad.data(), bad.size()), 2u);
  }
  RecoveryReport report;
  const auto resumed = OnlineUpdater::resume(dir, {}, &report);
  ASSERT_EQ(report.skipped.size(), 1u) << report.render();
  EXPECT_EQ(report.skipped[0].reason, RecoverySkipReason::LintRejected);
  EXPECT_EQ(report.skipped[0].sequence, 2u);
  EXPECT_NE(report.skipped[0].detail.find("dangling-segment-ref"),
            std::string::npos);
  // The generation before it serves.
  EXPECT_EQ(resumed->stats().lastSequence, 1u);
  EXPECT_EQ(resumed->service().score("password1").bits,
            good.strengthBits("password1"));
}

// The serve layer has no audit to override any more: serving a lint-bad
// artifact, once opt-in, is what GrammarSnapshot and TenantMeter always do
// with a byte-valid artifact, whatever its semantics.
TEST_F(LintGateTest, SnapshotGateOverrideServesBadArtifact) {
  const auto snapshot = GrammarSnapshot::fromArtifact(makeBadArtifact(), 1);
  EXPECT_TRUE(snapshot->trained());
}

TEST_F(LintGateTest, MeterServiceOverrideServesBadArtifact) {
  // At cold start and at publish.
  MeterService service(makeBadArtifact());
  EXPECT_GE(service.score("password1").bits, 0.0);
  EXPECT_EQ(service.publishFromArtifact(makeBadArtifact()), 1u);
}

TEST_F(LintGateTest, PublishFromArtifactKeepsServingOnRejection) {
  const auto good =
      GrammarArtifact::fromBytes(compileArtifact(makeTrainedPsm()));
  MeterService service(good);
  const double before = service.score("password1").bits;
  FuzzyPsm untrained;
  untrained.addBaseWord("password");
  EXPECT_THROW(service.publishFromArtifact(
                   GrammarArtifact::fromBytes(compileArtifact(untrained))),
               NotTrained);
  // The rejected artifact must not have displaced the healthy grammar.
  EXPECT_EQ(service.generation(), 0u);
  EXPECT_EQ(service.score("password1").bits, before);
  // A clean artifact still publishes afterwards.
  EXPECT_EQ(service.publishFromArtifact(good), 1u);
}

// ---------------------------------------------------------------------------
// Report surface: rendering, JSON, worst-severity mapping.
// ---------------------------------------------------------------------------

TEST(LintReportTest, RenderAndJson) {
  LintReport report;
  report.add(LintCode::DanglingSegmentRef, LintSeverity::Error,
             "structures[B9B9]", "references B_9");
  report.add(LintCode::CountInconsistency, LintSeverity::Warning,
             "config.cap", "drift");
  EXPECT_EQ(report.errorCount(), 1u);
  EXPECT_EQ(report.warningCount(), 1u);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.worst(), LintSeverity::Error);

  const std::string text = report.render();
  EXPECT_NE(text.find("error [dangling-segment-ref] structures[B9B9]"),
            std::string::npos);
  EXPECT_NE(text.find("1 error(s), 1 warning(s)"), std::string::npos);

  const std::string json = report.renderJson();
  EXPECT_NE(json.find("\"clean\": false"), std::string::npos);
  EXPECT_NE(json.find("\"worst\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("\"code\": \"dangling-segment-ref\""),
            std::string::npos);
}

TEST(LintReportTest, JsonEscapesControlCharacters) {
  LintReport report;
  report.add(LintCode::DanglingSegmentRef, LintSeverity::Error,
             "structures[\"a\\b\tc]", "quote \" backslash \\");
  const std::string json = report.renderJson();
  EXPECT_NE(json.find("\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\"), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
}

TEST(LintReportTest, CleanReportJson) {
  const LintReport report;
  EXPECT_TRUE(report.clean());
  const std::string json = report.renderJson();
  EXPECT_NE(json.find("\"clean\": true"), std::string::npos);
  EXPECT_NE(json.find("\"worst\": \"none\""), std::string::npos);
}

TEST(LintReportTest, StableCodeNames) {
  // The CLI and CI grep for these identifiers; renames are breaking.
  EXPECT_STREQ(lintCodeName(LintCode::DanglingSegmentRef),
               "dangling-segment-ref");
  EXPECT_STREQ(lintCodeName(LintCode::WordNotInTrie), "word-not-in-trie");
  EXPECT_STREQ(lintCodeName(LintCode::CountInconsistency),
               "count-inconsistency");
  EXPECT_STREQ(lintCodeName(LintCode::NotTrained), "not-trained");
  EXPECT_STREQ(lintSeverityName(LintSeverity::Error), "error");
}

// ---------------------------------------------------------------------------
// lintGrammarFile: an .fpsmb artifact is the only grammar file.
// ---------------------------------------------------------------------------

/// Writes the artifact compiled from `psm` to a temp file; returns its path.
std::string writeArtifactTo(const FuzzyPsm& psm, const char* name) {
  const std::string path = testing::TempDir() + name;
  const std::vector<std::byte> bytes = compileArtifact(psm);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
  return path;
}

TEST(LintGrammarFileTest, OnlyArtifactFilesLint) {
  EXPECT_TRUE(
      lintGrammarFile(writeArtifactTo(makeTrainedPsm(), "lint_grammar.fpsmb"))
          .clean());

  // A password list longer than the artifact header, so the loader gets as
  // far as the magic.
  const std::string textPath = testing::TempDir() + "lint_grammar.txt";
  {
    std::ofstream out(textPath);
    for (const char* pw : {"password1", "123456", "iloveyou", "dragon",
                           "monkey", "sunshine", "qwerty"}) {
      out << pw << '\n';
    }
  }
  try {
    (void)lintGrammarFile(textPath);
    FAIL() << "a file that is not an artifact linted";
  } catch (const ArtifactError& e) {
    EXPECT_EQ(e.code(), ArtifactErrorCode::BadMagic) << e.what();
  }
}

TEST(LintGrammarFileTest, TamperedArtifactFileReportsDanglingRef) {
  const LintReport report = lintGrammarFile(
      writeArtifactTo(makeDanglingPsm(), "lint_tampered.fpsmb"));
  EXPECT_TRUE(report.has(LintCode::DanglingSegmentRef)) << report.render();
}

TEST(LintGrammarFileTest, MissingFileThrowsIoError) {
  EXPECT_THROW(lintGrammarFile("/nonexistent/grammar.fpsm"), IoError);
}

// ---------------------------------------------------------------------------
// FPSM_CHECK / FPSM_DCHECK runtime contract.
// ---------------------------------------------------------------------------

using CheckMacrosDeathTest = ::testing::Test;

TEST(CheckMacrosDeathTest, CheckAbortsWithLocation) {
  EXPECT_DEATH(FPSM_CHECK(1 == 2), "FPSM_CHECK failed: 1 == 2");
}

TEST(CheckMacrosTest, CheckPassesSilently) {
  FPSM_CHECK(1 + 1 == 2);  // must not abort
  SUCCEED();
}

#if defined(NDEBUG) && !defined(FPSM_FORCE_DCHECKS)
TEST(CheckMacrosTest, DcheckCompiledOutInRelease) {
  bool evaluated = false;
  FPSM_DCHECK((evaluated = true));  // parsed but never evaluated
  EXPECT_FALSE(evaluated);
}
#else
TEST(CheckMacrosDeathTest, DcheckAbortsInDebug) {
  EXPECT_DEATH(FPSM_DCHECK(false), "FPSM_CHECK failed");
}
#endif

}  // namespace
}  // namespace fpsm
