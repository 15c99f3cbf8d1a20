// Static semantic analysis of trained fuzzy grammars (DESIGN.md §9).
//
// The .fpsmb loader (src/artifact) is fail-closed on *bytes*: checksums,
// bounds, alignment. It will still happily serve a checksum-valid grammar
// whose *semantics* are garbage — probability mass that does not sum to 1,
// a base structure referencing a B_n table that was never populated, a NaN
// transformation prior that turns every score into NaN. Those are exactly
// the quantities the meter multiplies (paper Sec. IV-D), and exactly what
// "Password Guessers Under a Microscope" (Parish et al., 2020) found
// silently drifting in deployed guessers.
//
// GrammarValidator audits a grammar one level above the byte format and
// emits typed diagnostics, mirroring ArtifactError's fail-closed style:
// every defect carries a stable LintCode, a severity, and a locus naming
// the table/entry/rule it was found in. A grammar is stored, read and
// served only as an .fpsmb artifact, so there are two entry points:
//
//   * a zero-copy FlatGrammarView over a mapped .fpsmb artifact — what
//     every trust point audits (OnlineUpdater's gate, lint-grammar,
//     `stats --grammar`);
//   * a bare GrammarCounts bundle with its config — the sharded trainer's
//     per-shard debug lint, before anything is compiled;
//
// plus the granular audits of raw components (FlatTableView, transform
// rules), so the corruption battery in tests/analysis_test.cpp can seed
// defects the byte loader would refuse to produce.
//
// The tries are not audited here: the loader's FlatTrieView::validate()
// proves each one is a tree before any view exists, so the lint only
// spot-checks that stored base words are reachable through them. A clean
// pass builds no per-entry strings — a diagnostic's locus is formatted
// only when the diagnostic is added — so the gate costs a read of the
// tables, not a string per entry.
//
// Wire-in points:
//   * `fuzzypsm lint-grammar` (tools/fuzzypsm_cli.cpp): exit code = worst
//     severity, human or --json output;
//   * OnlineUpdater's trust gate (online/online_updater.h): the one
//     mandatory pre-publish gate, run once per served generation — at
//     bootstrap, at every compaction, and for each resume candidate — so
//     a bad train run is rejected before it reaches readers;
//   * `fuzzypsm stats --grammar`, which serves an artifact file from disk
//     straight through a TenantMeter and so audits it itself;
//   * FPSM_CHECK/FPSM_DCHECK (util/check.h) cover the per-access runtime
//     side of the same invariants on the scoring hot path.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace fpsm {

class FlatGrammarView;
class FlatTableView;
class GrammarCounts;
struct FuzzyConfig;

/// Diagnostic codes. The corruption battery asserts on the exact code, and
/// the CLI prints each by its kebab-case name (lintCodeName), so renaming
/// one is a breaking change.
enum class LintCode {
  MassNotConserved,       ///< sum of table counts deviates from stored total
  NonFiniteValue,         ///< NaN/Inf prior, probability, or log-prob
  NegativeValue,          ///< negative prior (counts are unsigned by type)
  ProbOutOfRange,         ///< cap/leet/reverse probability outside [0,1]
  DanglingSegmentRef,     ///< base structure references an absent B_n table
  BadStructureKey,        ///< structure key does not decode as B<n>B<m>...
  ZeroCountEntry,         ///< table entry with count 0 (unreachable mass)
  EmptyTable,             ///< table with entries but zero total (or inverse)
  SegmentLengthMismatch,  ///< form length != its table's segment length
  TableUnsorted,          ///< flat table forms not strictly ascending
  LookupMismatch,         ///< binary search disagrees with direct entry read
  WordNotInTrie,          ///< stored base word unreachable through the trie
  CountInconsistency,     ///< cross-counter drift (e.g. trained != S total)
  NotTrained,             ///< grammar carries no counts at all
};

/// Stable kebab-case identifier ("mass-not-conserved") used by the CLI's
/// human and JSON output.
const char* lintCodeName(LintCode code);

enum class LintSeverity : int {
  Info = 0,     ///< observation, never affects the verdict
  Warning = 1,  ///< suspicious but scoreable; served only under override
  Error = 2,    ///< grammar must not be published
};

const char* lintSeverityName(LintSeverity severity);

struct LintDiagnostic {
  LintCode code;
  LintSeverity severity;
  std::string locus;    ///< e.g. "segments[B8]", "baseWords[17]", "config"
  std::string message;  ///< human-readable detail
};

struct LintOptions {
  /// Tolerance for probability-mass conservation: |sum/total - 1| must not
  /// exceed this. Count tables conserve mass exactly by construction, so
  /// any deviation at all is already drift; the tolerance exists for future
  /// producers that store smoothed/rescaled mass.
  double massTolerance = 1e-9;
  /// Cross-representation spot checks (binary-search vs direct reads, base
  /// words reachable through the mapped trie). Every `spotCheckStride`-th
  /// entry is probed, plus the first and last.
  bool spotChecks = true;
  std::size_t spotCheckStride = 64;
};

class LintReport {
 public:
  void add(LintCode code, LintSeverity severity, std::string locus,
           std::string message);

  const std::vector<LintDiagnostic>& diagnostics() const { return diags_; }
  bool clean() const { return diags_.empty(); }
  /// True when the grammar is publishable: no Error-severity diagnostics.
  bool ok() const { return errors_ == 0; }
  std::size_t errorCount() const { return errors_; }
  std::size_t warningCount() const { return warnings_; }
  LintSeverity worst() const;

  /// True if any diagnostic carries `code`.
  bool has(LintCode code) const;

  /// Human-readable rendering, one diagnostic per line plus a summary.
  std::string render() const;
  /// Machine-readable rendering (stable keys; see lint-grammar --json).
  std::string renderJson() const;

 private:
  std::vector<LintDiagnostic> diags_;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
};

/// Thrown by the pre-publish gate when a grammar fails linting. Carries the
/// full report so callers can log every diagnostic, not just the first.
class GrammarLintError : public Error {
 public:
  explicit GrammarLintError(LintReport report);
  const LintReport& report() const { return report_; }

 private:
  LintReport report_;
};

class GrammarValidator {
 public:
  explicit GrammarValidator(LintOptions options = {})
      : options_(options) {}

  const LintOptions& options() const { return options_; }

  /// Audits a bare counts bundle against the config it was counted under:
  /// transform rules, structures, segment tables and cross-counter
  /// conservation, without trie audits (a GrammarCounts carries no
  /// dictionary). The sharded trainer runs this per shard in debug builds,
  /// before merging, so a counting defect is pinned to the shard that
  /// produced it.
  LintReport lint(const GrammarCounts& counts, const FuzzyConfig& config) const;

  /// Audits the zero-copy view over a validated .fpsmb buffer: the counts
  /// checks above, the table spot checks, and base words reachable through
  /// the tries. The trie shape itself was proven by the loader
  /// (FlatTrieView::validate), and every FlatGrammarView comes from it.
  LintReport lint(const FlatGrammarView& view) const;

  // --- granular entry points ----------------------------------------------
  // Used by lint() internally and directly by the corruption battery, which
  // hand-builds raw views with defects the byte loader would reject.

  /// Audits one flat count table. `expectLen` > 0 pins every form to that
  /// length (segment tables); 0 skips the length check (structures).
  void lintCountTable(std::string_view locus, const FlatTableView& table,
                      std::uint32_t expectLen, LintReport& out) const;

  /// Audits one transformation rule's counters and the probabilities the
  /// meter derives from them: yes <= total, prior finite and non-negative,
  /// P(yes) and P(no) finite and in [0,1].
  void lintTransformRule(std::string_view locus, std::uint64_t yes,
                         std::uint64_t total, double prior,
                         LintReport& out) const;

 private:
  LintOptions options_;
};

/// Opens the .fpsmb artifact at `path` and audits it zero-copy. I/O and
/// byte-level failures throw ArtifactError (an IoError; a file that is not
/// an artifact is BadMagic); semantic defects land in the returned report.
LintReport lintGrammarFile(const std::string& path, LintOptions options = {});

}  // namespace fpsm
