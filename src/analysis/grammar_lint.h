// Static semantic analysis of trained fuzzy grammars (DESIGN.md §9).
//
// Every grammar invariant is checked in exactly one place. The .fpsmb
// loader (GrammarArtifact::init, src/artifact) owns every invariant of a
// single section: checksums, bounds, the trie shapes, and every count
// table and counter — no zero count, totals that are the sum of their
// entries, strictly ascending forms of the table's segment length,
// well-formed structure keys, segment tables in ascending length, a
// transformation prior in [0, 1e9], and no yes count above its total. A
// grammar that loads therefore multiplies finite probabilities in [0,1]
// (paper Sec. IV-D).
//
// What the loader cannot see is what spans sections, and that is all
// GrammarValidator audits — the silent drift "Password Guessers Under a
// Microscope" (Parish et al., 2020) found in deployed guessers:
//
//   * a base structure referencing a B_n table that is absent or empty
//     (DanglingSegmentRef, an error);
//   * counters that drift apart: structure mass vs trained passwords,
//     segment occurrences vs capitalization decisions, trie words vs
//     stored base words (CountInconsistency, warnings);
//   * stored base words the tries cannot reach, probed every 64th word
//     plus the last (WordNotInTrie, an error);
//   * a grammar with no counts at all (NotTrained, a warning).
//
// Diagnostics mirror ArtifactError's fail-closed style: every defect
// carries a stable LintCode, a severity, and a locus naming where it was
// found. A clean pass builds no per-entry strings — a locus is formatted
// only when its diagnostic is added — so the gate costs one walk of the
// structure keys and the sampled base words.
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

#include <cstddef>
#include <string>
#include <vector>

#include "util/error.h"

namespace fpsm {

class FlatGrammarView;

/// Diagnostic codes. The corruption battery asserts on the exact code, and
/// the CLI prints each by its kebab-case name (lintCodeName), so renaming
/// one is a breaking change.
enum class LintCode {
  DanglingSegmentRef,  ///< base structure references an absent B_n table
  WordNotInTrie,       ///< stored base word unreachable through the trie
  CountInconsistency,  ///< cross-counter drift (e.g. trained != S total)
  NotTrained,          ///< grammar carries no counts at all
};

/// Stable kebab-case identifier ("dangling-segment-ref") used by the CLI's
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
  std::string locus;    ///< e.g. "structures[B9B9]", "baseWords[17]", "trie"
  std::string message;  ///< human-readable detail
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
  /// Audits the zero-copy view over a loaded .fpsmb buffer for the
  /// cross-section defects above. Every per-section invariant was proven
  /// by the loader, and every FlatGrammarView comes from it.
  LintReport lint(const FlatGrammarView& view) const;
};

/// Opens the .fpsmb artifact at `path` and audits it zero-copy. I/O and
/// byte-level failures throw ArtifactError (an IoError; a file that is not
/// an artifact is BadMagic); semantic defects land in the returned report.
LintReport lintGrammarFile(const std::string& path);

}  // namespace fpsm
