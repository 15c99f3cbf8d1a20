// GrammarValidator battery (ctest label: lint).
//
// Two corruption channels drive the tests, matching how a bad grammar can
// actually reach production:
//   * text tampering — FuzzyPsm::save output edited line-wise, then
//     reloaded (load() trusts counter relationships, so semantic defects
//     survive into a live grammar and even into a compiled artifact);
//   * raw views — hand-built FlatTableView/FlatTrieView fed to the
//     granular lint entry points, for defects the byte loader would refuse
//     to reproduce (mass drift, zero counts, unsorted/no-tree tries).
//
// Every seeded corruption asserts its exact LintCode, and the gate tests
// prove a linted-bad artifact cannot reach readers through OnlineUpdater
// (bootstrap, resume), while TenantMeter serves what it is handed.
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/grammar_lint.h"
#include "artifact/artifact.h"
#include "core/fuzzy_psm.h"
#include "online/generation_log.h"
#include "online/online_updater.h"
#include "serve/grammar_snapshot.h"
#include "serve/tenant_meter.h"
#include "trie/flat_trie.h"
#include "util/check.h"

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

std::string saveToText(const FuzzyPsm& psm) {
  std::ostringstream out;
  psm.save(out);
  return out.str();
}

FuzzyPsm loadFromText(const std::string& text) {
  std::istringstream in(text);
  return FuzzyPsm::load(in);
}

/// Replaces the first line starting with `prefix` by `replacement`.
std::string tamperLine(const std::string& text, const std::string& prefix,
                       const std::string& replacement) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  bool done = false;
  while (std::getline(in, line)) {
    if (!done && line.rfind(prefix, 0) == 0) {
      out << replacement << '\n';
      done = true;
    } else {
      out << line << '\n';
    }
  }
  EXPECT_TRUE(done) << "no line with prefix: " << prefix;
  return out.str();
}

const LintDiagnostic* findCode(const LintReport& report, LintCode code) {
  for (const auto& d : report.diagnostics()) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Clean grammars audit clean, across all three representations.
// ---------------------------------------------------------------------------

TEST(GrammarLintTest, TrainedGrammarIsClean) {
  const FuzzyPsm psm = makeTrainedPsm();
  const LintReport report = GrammarValidator().lint(psm);
  EXPECT_TRUE(report.clean()) << report.render();
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.worst(), LintSeverity::Info);
}

TEST(GrammarLintTest, TextRoundTripIsClean) {
  const FuzzyPsm psm = loadFromText(saveToText(makeTrainedPsm()));
  const LintReport report = GrammarValidator().lint(psm);
  EXPECT_TRUE(report.clean()) << report.render();
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
  const FuzzyPsm psm = makeTrainedPsm(config);
  EXPECT_TRUE(GrammarValidator().lint(psm).clean());
  const auto artifact = GrammarArtifact::fromBytes(compileArtifact(psm));
  EXPECT_TRUE(GrammarValidator().lint(artifact->grammar()).clean());
}

TEST(GrammarLintTest, UntrainedGrammarWarnsNotTrained) {
  FuzzyPsm psm;
  psm.addBaseWord("password");
  const LintReport report = GrammarValidator().lint(psm);
  EXPECT_TRUE(report.has(LintCode::NotTrained));
  EXPECT_TRUE(report.ok());  // warning, not error
  EXPECT_EQ(report.worst(), LintSeverity::Warning);
}

// ---------------------------------------------------------------------------
// Seeded corruption: raw count tables.
// ---------------------------------------------------------------------------

TEST(GrammarLintTest, MassNotConservedInRawTable) {
  const std::uint64_t counts[] = {2, 3};
  const std::uint32_t strOff[] = {0, 1};
  const std::uint32_t strLen[] = {1, 1};
  const char pool[] = "ab";
  // Counts sum to 5 but the stored total claims 10: every probability
  // computed from this table is off by 2x.
  const FlatTableView table(counts, strOff, strLen, pool, 2, 10);
  LintReport report;
  GrammarValidator().lintCountTable("structures", table, 0, report);
  const auto* d = findCode(report, LintCode::MassNotConserved);
  ASSERT_NE(d, nullptr) << report.render();
  EXPECT_EQ(d->severity, LintSeverity::Error);
  EXPECT_EQ(d->locus, "structures");
  EXPECT_FALSE(report.ok());
}

TEST(GrammarLintTest, MassWithinToleranceAccepted) {
  const std::uint64_t counts[] = {999999, 1};
  const std::uint32_t strOff[] = {0, 1};
  const std::uint32_t strLen[] = {1, 1};
  const char pool[] = "ab";
  const FlatTableView table(counts, strOff, strLen, pool, 2, 1000001);
  LintOptions loose;
  loose.massTolerance = 1e-5;  // deviation here is 1e-6
  LintReport report;
  GrammarValidator(loose).lintCountTable("structures", table, 0, report);
  EXPECT_FALSE(report.has(LintCode::MassNotConserved)) << report.render();
}

TEST(GrammarLintTest, ZeroCountEntryInRawTable) {
  const std::uint64_t counts[] = {0, 3};
  const std::uint32_t strOff[] = {0, 1};
  const std::uint32_t strLen[] = {1, 1};
  const char pool[] = "ab";
  const FlatTableView table(counts, strOff, strLen, pool, 2, 3);
  LintReport report;
  GrammarValidator().lintCountTable("segments[B1]", table, 1, report);
  const auto* d = findCode(report, LintCode::ZeroCountEntry);
  ASSERT_NE(d, nullptr) << report.render();
  EXPECT_EQ(d->severity, LintSeverity::Error);
}

TEST(GrammarLintTest, UnsortedRawTable) {
  const std::uint64_t counts[] = {2, 3};
  const std::uint32_t strOff[] = {0, 1};
  const std::uint32_t strLen[] = {1, 1};
  const char pool[] = "ba";  // forms "b", "a": descending
  const FlatTableView table(counts, strOff, strLen, pool, 2, 5);
  LintReport report;
  GrammarValidator().lintCountTable("structures", table, 0, report);
  EXPECT_TRUE(report.has(LintCode::TableUnsorted)) << report.render();
}

TEST(GrammarLintTest, SegmentLengthMismatchInRawTable) {
  const std::uint64_t counts[] = {2};
  const std::uint32_t strOff[] = {0};
  const std::uint32_t strLen[] = {2};
  const char pool[] = "ab";
  const FlatTableView table(counts, strOff, strLen, pool, 1, 2);
  LintReport report;
  // A 2-character form in the B_3 table.
  GrammarValidator().lintCountTable("segments[B3]", table, 3, report);
  EXPECT_TRUE(report.has(LintCode::SegmentLengthMismatch))
      << report.render();
}

TEST(GrammarLintTest, EmptyTableWithMass) {
  const FlatTableView table(nullptr, nullptr, nullptr, nullptr, 0, 7);
  LintReport report;
  GrammarValidator().lintCountTable("structures", table, 0, report);
  EXPECT_TRUE(report.has(LintCode::EmptyTable)) << report.render();
}

// ---------------------------------------------------------------------------
// Seeded corruption: raw flat tries.
// ---------------------------------------------------------------------------

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
  LintReport report;
  GrammarValidator().lintFlatTrie("trie", trie, report);
  const auto* d = findCode(report, LintCode::TrieUnsortedChildren);
  ASSERT_NE(d, nullptr) << report.render();
  EXPECT_EQ(d->severity, LintSeverity::Error);
  EXPECT_EQ(d->locus, "trie.node[0]");
}

TEST(GrammarLintTest, TrieEdgeTargetOutOfRange) {
  const std::uint32_t edgeBegin[] = {0, 1};
  const std::uint32_t edgeMeta[] = {1, FlatTrieView::kTerminalBit};
  const std::uint32_t edgeTargets[] = {5};  // only nodes 0..1 exist
  const char edgeLabels[] = {'a'};
  const FlatTrieView trie(edgeBegin, edgeMeta, 2, edgeTargets, edgeLabels, 1,
                          1);
  LintReport report;
  GrammarValidator().lintFlatTrie("trie", trie, report);
  EXPECT_TRUE(report.has(LintCode::TrieIndexOutOfRange)) << report.render();
}

TEST(GrammarLintTest, TrieEdgeSliceOutOfRange) {
  const std::uint32_t edgeBegin[] = {0, 7};  // node 1 slice starts past end
  const std::uint32_t edgeMeta[] = {1, 1 | FlatTrieView::kTerminalBit};
  const std::uint32_t edgeTargets[] = {1};
  const char edgeLabels[] = {'a'};
  const FlatTrieView trie(edgeBegin, edgeMeta, 2, edgeTargets, edgeLabels, 1,
                          1);
  LintReport report;
  GrammarValidator().lintFlatTrie("trie", trie, report);
  EXPECT_TRUE(report.has(LintCode::TrieIndexOutOfRange)) << report.render();
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
  LintReport report;
  GrammarValidator().lintFlatTrie("trie", trie, report);
  EXPECT_TRUE(report.has(LintCode::TrieStructure)) << report.render();
}

TEST(GrammarLintTest, TrieTerminalCountDrift) {
  const std::uint32_t edgeBegin[] = {0, 1};
  const std::uint32_t edgeMeta[] = {1, FlatTrieView::kTerminalBit};
  const std::uint32_t edgeTargets[] = {1};
  const char edgeLabels[] = {'a'};
  // One terminal node, but the header claims 3 stored words.
  const FlatTrieView trie(edgeBegin, edgeMeta, 2, edgeTargets, edgeLabels, 1,
                          3);
  LintReport report;
  GrammarValidator().lintFlatTrie("trie", trie, report);
  EXPECT_TRUE(report.has(LintCode::TrieStructure)) << report.render();
}

TEST(GrammarLintTest, CleanPointerTrieAndFlatTrieAgree) {
  const FuzzyPsm psm = makeTrainedPsm();
  LintReport pointer;
  GrammarValidator().lintTrie("trie", psm.baseDictionary(), pointer);
  EXPECT_TRUE(pointer.clean()) << pointer.render();

  const auto artifact = GrammarArtifact::fromBytes(compileArtifact(psm));
  LintReport flat;
  GrammarValidator().lintFlatTrie("trie", artifact->grammar().baseDictionary(),
                                  flat);
  EXPECT_TRUE(flat.clean()) << flat.render();
}

// ---------------------------------------------------------------------------
// Seeded corruption: transformation rules.
// ---------------------------------------------------------------------------

TEST(GrammarLintTest, NanPriorIsNonFinite) {
  LintReport report;
  GrammarValidator().lintTransformRule(
      "config.cap", 1, 2, std::numeric_limits<double>::quiet_NaN(), report);
  const auto* d = findCode(report, LintCode::NonFiniteValue);
  ASSERT_NE(d, nullptr) << report.render();
  EXPECT_EQ(d->severity, LintSeverity::Error);
}

TEST(GrammarLintTest, NegativePriorIsNegativeValue) {
  LintReport report;
  GrammarValidator().lintTransformRule("config.cap", 1, 2, -0.5, report);
  EXPECT_TRUE(report.has(LintCode::NegativeValue)) << report.render();
}

TEST(GrammarLintTest, YesExceedingTotalIsProbOutOfRange) {
  LintReport report;
  GrammarValidator().lintTransformRule("config.cap", 5, 2, 0.5, report);
  const auto* d = findCode(report, LintCode::ProbOutOfRange);
  ASSERT_NE(d, nullptr) << report.render();
  EXPECT_EQ(d->severity, LintSeverity::Error);
  EXPECT_EQ(d->locus, "config.cap");
}

TEST(GrammarLintTest, NanPriorInLiveGrammar) {
  FuzzyConfig config;
  config.transformationPrior = std::numeric_limits<double>::quiet_NaN();
  const FuzzyPsm psm = makeTrainedPsm(config);
  const LintReport report = GrammarValidator().lint(psm);
  EXPECT_TRUE(report.has(LintCode::NonFiniteValue)) << report.render();
  EXPECT_FALSE(report.ok());
}

// ---------------------------------------------------------------------------
// Seeded corruption: text tampering (survives FuzzyPsm::load).
// ---------------------------------------------------------------------------

TEST(GrammarLintTest, TamperedCapCounterIsProbOutOfRange) {
  const std::string text = saveToText(makeTrainedPsm());
  const FuzzyPsm psm = loadFromText(tamperLine(text, "cap\t", "cap\t100\t2"));
  const LintReport report = GrammarValidator().lint(psm);
  const auto* d = findCode(report, LintCode::ProbOutOfRange);
  ASSERT_NE(d, nullptr) << report.render();
  EXPECT_EQ(d->locus, "config.cap");
  EXPECT_FALSE(report.ok());
}

TEST(GrammarLintTest, DanglingSegmentRefFromTamperedStructure) {
  const std::string text = saveToText(makeTrainedPsm());
  // "12345" trained a B5 structure; point it at the never-trained B9 B9.
  const FuzzyPsm psm =
      loadFromText(tamperLine(text, "B5\t", "B9B9\t2"));
  const LintReport report = GrammarValidator().lint(psm);
  const auto* d = findCode(report, LintCode::DanglingSegmentRef);
  ASSERT_NE(d, nullptr) << report.render();
  EXPECT_EQ(d->severity, LintSeverity::Error);
  EXPECT_EQ(d->locus, "structures[B9B9]");
}

TEST(GrammarLintTest, BadStructureKeyFromTamperedStructure) {
  const std::string text = saveToText(makeTrainedPsm());
  const FuzzyPsm psm = loadFromText(tamperLine(text, "B5\t", "Bx5\t2"));
  const LintReport report = GrammarValidator().lint(psm);
  EXPECT_TRUE(report.has(LintCode::BadStructureKey)) << report.render();
  EXPECT_FALSE(report.ok());
}

TEST(GrammarLintTest, TamperedTrainedCountIsWarning) {
  const std::string text = saveToText(makeTrainedPsm());
  const FuzzyPsm psm = loadFromText(tamperLine(text, "trained\t",
                                               "trained\t5000"));
  const LintReport report = GrammarValidator().lint(psm);
  const auto* d = findCode(report, LintCode::CountInconsistency);
  ASSERT_NE(d, nullptr) << report.render();
  EXPECT_EQ(d->severity, LintSeverity::Warning);
  EXPECT_TRUE(report.ok());  // warnings do not block publish
  EXPECT_EQ(report.worst(), LintSeverity::Warning);
}

// ---------------------------------------------------------------------------
// The dangling reference passes the byte loader but is stopped by
// OnlineUpdater's gate — the one place a generation is trusted — on both
// paths into serving, bootstrap and resume. TenantMeter serves what it is
// handed.
// ---------------------------------------------------------------------------

class LintGateTest : public ::testing::Test {
 protected:
  /// The "12345" B5 structure retargeted at the never-trained B9 B9. The
  /// semantic defect survives compilation AND byte validation.
  FuzzyPsm makeBadPsm() {
    const std::string text = saveToText(makeTrainedPsm());
    return loadFromText(tamperLine(text, "B5\t", "B9B9\t2"));
  }
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
  report.add(LintCode::MassNotConserved, LintSeverity::Error, "structures",
             "sums to 5/10");
  report.add(LintCode::CountInconsistency, LintSeverity::Warning,
             "config.cap", "drift");
  EXPECT_EQ(report.errorCount(), 1u);
  EXPECT_EQ(report.warningCount(), 1u);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.worst(), LintSeverity::Error);

  const std::string text = report.render();
  EXPECT_NE(text.find("error [mass-not-conserved] structures"),
            std::string::npos);
  EXPECT_NE(text.find("1 error(s), 1 warning(s)"), std::string::npos);

  const std::string json = report.renderJson();
  EXPECT_NE(json.find("\"clean\": false"), std::string::npos);
  EXPECT_NE(json.find("\"worst\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("\"code\": \"mass-not-conserved\""),
            std::string::npos);
}

TEST(LintReportTest, JsonEscapesControlCharacters) {
  LintReport report;
  report.add(LintCode::BadStructureKey, LintSeverity::Error,
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
  EXPECT_STREQ(lintCodeName(LintCode::MassNotConserved),
               "mass-not-conserved");
  EXPECT_STREQ(lintCodeName(LintCode::DanglingSegmentRef),
               "dangling-segment-ref");
  EXPECT_STREQ(lintCodeName(LintCode::TrieUnsortedChildren),
               "trie-unsorted-children");
  EXPECT_STREQ(lintCodeName(LintCode::TrieIndexOutOfRange),
               "trie-index-out-of-range");
  EXPECT_STREQ(lintSeverityName(LintSeverity::Error), "error");
}

// ---------------------------------------------------------------------------
// lintGrammarFile: magic-sniffed dispatch over both on-disk formats.
// ---------------------------------------------------------------------------

TEST(LintGrammarFileTest, TextAndArtifactFilesBothClean) {
  const FuzzyPsm psm = makeTrainedPsm();
  const std::string textPath = testing::TempDir() + "lint_grammar.fpsm";
  {
    std::ofstream out(textPath);
    psm.save(out);
  }
  EXPECT_TRUE(lintGrammarFile(textPath).clean());

  const std::string binPath = testing::TempDir() + "lint_grammar.fpsmb";
  writeArtifactFile(psm, binPath);
  EXPECT_TRUE(lintGrammarFile(binPath).clean());
}

TEST(LintGrammarFileTest, TamperedTextFileReportsDanglingRef) {
  const std::string text =
      tamperLine(saveToText(makeTrainedPsm()), "B5\t", "B9B9\t2");
  const std::string path = testing::TempDir() + "lint_tampered.fpsm";
  {
    std::ofstream out(path);
    out << text;
  }
  const LintReport report = lintGrammarFile(path);
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
