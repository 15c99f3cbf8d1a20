#include "analysis/grammar_lint.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>

#include "artifact/artifact.h"
#include "artifact/flat_grammar.h"
#include "core/grammar_counts.h"
#include "trie/flat_trie.h"
#include "util/chars.h"

namespace fpsm {

const char* lintCodeName(LintCode code) {
  switch (code) {
    case LintCode::MassNotConserved: return "mass-not-conserved";
    case LintCode::NonFiniteValue: return "non-finite-value";
    case LintCode::NegativeValue: return "negative-value";
    case LintCode::ProbOutOfRange: return "prob-out-of-range";
    case LintCode::DanglingSegmentRef: return "dangling-segment-ref";
    case LintCode::BadStructureKey: return "bad-structure-key";
    case LintCode::ZeroCountEntry: return "zero-count-entry";
    case LintCode::EmptyTable: return "empty-table";
    case LintCode::SegmentLengthMismatch: return "segment-length-mismatch";
    case LintCode::TableUnsorted: return "table-unsorted";
    case LintCode::LookupMismatch: return "lookup-mismatch";
    case LintCode::WordNotInTrie: return "word-not-in-trie";
    case LintCode::CountInconsistency: return "count-inconsistency";
    case LintCode::NotTrained: return "not-trained";
  }
  return "?";
}

const char* lintSeverityName(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::Info: return "info";
    case LintSeverity::Warning: return "warning";
    case LintSeverity::Error: return "error";
  }
  return "?";
}

void LintReport::add(LintCode code, LintSeverity severity, std::string locus,
                     std::string message) {
  if (severity == LintSeverity::Error) ++errors_;
  if (severity == LintSeverity::Warning) ++warnings_;
  diags_.push_back(
      {code, severity, std::move(locus), std::move(message)});
}

LintSeverity LintReport::worst() const {
  LintSeverity w = LintSeverity::Info;
  if (warnings_ > 0) w = LintSeverity::Warning;
  if (errors_ > 0) w = LintSeverity::Error;
  return w;
}

bool LintReport::has(LintCode code) const {
  return std::any_of(diags_.begin(), diags_.end(),
                     [code](const LintDiagnostic& d) { return d.code == code; });
}

std::string LintReport::render() const {
  std::string out;
  for (const auto& d : diags_) {
    out += lintSeverityName(d.severity);
    out += " [";
    out += lintCodeName(d.code);
    out += "] ";
    out += d.locus;
    out += ": ";
    out += d.message;
    out += '\n';
  }
  if (clean()) {
    out += "grammar is clean\n";
  } else {
    out += std::to_string(errorCount()) + " error(s), " +
           std::to_string(warningCount()) + " warning(s)\n";
  }
  return out;
}

namespace {

void appendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string LintReport::renderJson() const {
  std::string out = "{\"clean\": ";
  out += clean() ? "true" : "false";
  out += ", \"ok\": ";
  out += ok() ? "true" : "false";
  out += ", \"worst\": \"";
  out += clean() ? "none" : lintSeverityName(worst());
  out += "\", \"errors\": " + std::to_string(errorCount());
  out += ", \"warnings\": " + std::to_string(warningCount());
  out += ", \"diagnostics\": [";
  for (std::size_t i = 0; i < diags_.size(); ++i) {
    const auto& d = diags_[i];
    if (i > 0) out += ", ";
    out += "{\"code\": ";
    appendJsonString(out, lintCodeName(d.code));
    out += ", \"severity\": ";
    appendJsonString(out, lintSeverityName(d.severity));
    out += ", \"locus\": ";
    appendJsonString(out, d.locus);
    out += ", \"message\": ";
    appendJsonString(out, d.message);
    out += '}';
  }
  out += "]}";
  return out;
}

namespace {

std::string lintErrorMessage(const LintReport& report) {
  std::string msg = "grammar lint failed: " +
                    std::to_string(report.errorCount()) + " error(s), " +
                    std::to_string(report.warningCount()) + " warning(s)";
  for (const auto& d : report.diagnostics()) {
    if (d.severity != LintSeverity::Error) continue;
    msg += "; first: [";
    msg += lintCodeName(d.code);
    msg += "] " + d.locus + ": " + d.message;
    break;
  }
  return msg;
}

/// Reads the "B<n>" segment at key[pos] (n >= 1, no leading zero) and
/// advances pos past it. Returns n, or 0 when the segment is malformed.
std::size_t readSegmentLength(std::string_view key, std::size_t& pos) {
  if (pos >= key.size() || key[pos] != 'B') return 0;
  ++pos;
  if (pos >= key.size() || !isDigit(key[pos]) || key[pos] == '0') return 0;
  std::size_t len = 0;
  while (pos < key.size() && isDigit(key[pos])) {
    len = len * 10 + static_cast<std::size_t>(key[pos] - '0');
    ++pos;
  }
  return len;
}

/// True when `key` decodes as B<n>B<m>... with at least one segment.
bool wellFormedStructureKey(std::string_view key) {
  if (key.empty()) return false;
  for (std::size_t pos = 0; pos < key.size();) {
    if (readSegmentLength(key, pos) == 0) return false;
  }
  return true;
}

/// Calls fn(n) for each segment length of a well-formed structure key.
template <typename Fn>
void forEachSegmentLength(std::string_view key, Fn&& fn) {
  for (std::size_t pos = 0; pos < key.size();) fn(readSegmentLength(key, pos));
}

/// Diagnostic loci are built only when a diagnostic is added, so a clean
/// pass allocates no per-entry strings.
std::string structureLocus(std::string_view key) {
  return "structures[" + std::string(key) + "]";
}

/// Whether `word`, read back to front, is a stored word of `trie` — the
/// reversed-dictionary lookup without materializing the reversed string.
bool containsReversed(const FlatTrieView& trie, std::string_view word) {
  if (word.empty() || trie.nodeCount() == 0) return false;
  FlatTrieView::NodeId node = FlatTrieView::kRoot;
  for (auto it = word.rbegin(); it != word.rend(); ++it) {
    const auto next = trie.child(node, *it);
    if (!next) return false;
    node = *next;
  }
  return trie.isTerminal(node);
}

std::string segLocus(std::uint64_t len) {
  return "segments[B" + std::to_string(len) + "]";
}

}  // namespace

GrammarLintError::GrammarLintError(LintReport report)
    : Error(lintErrorMessage(report)), report_(std::move(report)) {}

// ---------------------------------------------------------------------------
// Granular audits
// ---------------------------------------------------------------------------

void GrammarValidator::lintTransformRule(std::string_view locus,
                                         std::uint64_t yes,
                                         std::uint64_t total, double prior,
                                         LintReport& out) const {
  const std::string loc(locus);
  if (std::isnan(prior) || std::isinf(prior)) {
    out.add(LintCode::NonFiniteValue, LintSeverity::Error, loc,
            "transformation prior is not finite; every derived probability "
            "would be NaN/Inf");
    return;
  }
  if (prior < 0.0) {
    out.add(LintCode::NegativeValue, LintSeverity::Error, loc,
            "transformation prior is negative");
    return;
  }
  if (yes > total) {
    out.add(LintCode::ProbOutOfRange, LintSeverity::Error, loc,
            "yes count " + std::to_string(yes) + " exceeds total " +
                std::to_string(total) +
                " (P(no) would be negative)");
    return;
  }
  // Replicate the meter's own arithmetic (FuzzyPsm::capProb et al.) so the
  // audited value is the value that will be multiplied into scores.
  const double denom = static_cast<double>(total) + 2.0 * prior;
  for (const bool side : {true, false}) {
    const double numer =
        (side ? static_cast<double>(yes)
              : static_cast<double>(total - yes)) +
        prior;
    const double p = denom <= 0.0 ? 1.0 : numer / denom;
    if (!std::isfinite(p)) {
      out.add(LintCode::NonFiniteValue, LintSeverity::Error, loc,
              std::string("P(") + (side ? "yes" : "no") + ") is not finite");
    } else if (p < 0.0 || p > 1.0) {
      out.add(LintCode::ProbOutOfRange, LintSeverity::Error, loc,
              std::string("P(") + (side ? "yes" : "no") + ") = " +
                  std::to_string(p) + " outside [0,1]");
    }
  }
}

void GrammarValidator::lintCountTable(std::string_view locus,
                                      const FlatTableView& table,
                                      std::uint32_t expectLen,
                                      LintReport& out) const {
  const std::string loc(locus);
  const std::uint32_t distinct = table.distinct();
  const std::uint64_t total = table.total();
  if (distinct == 0) {
    if (total != 0) {
      out.add(LintCode::EmptyTable, LintSeverity::Error, loc,
              "no entries but total " + std::to_string(total));
    }
    return;
  }
  if (total == 0) {
    out.add(LintCode::EmptyTable, LintSeverity::Error, loc,
            std::to_string(distinct) + " entries but zero total");
    return;
  }

  std::uint64_t sum = 0;
  bool overflowed = false;
  bool sorted = true;
  std::string_view prev;
  for (std::uint32_t i = 0; i < distinct; ++i) {
    const std::uint64_t c = table.countAt(i);
    if (c == 0) {
      out.add(LintCode::ZeroCountEntry, LintSeverity::Error,
              loc + "[" + std::to_string(i) + "]",
              "zero-count entry carries no probability mass");
    }
    if (sum > std::numeric_limits<std::uint64_t>::max() - c) {
      overflowed = true;
    } else {
      sum += c;
    }
    const std::string_view form = table.form(i);
    if (expectLen != 0 && form.size() != expectLen) {
      out.add(LintCode::SegmentLengthMismatch, LintSeverity::Error,
              loc + "[" + std::to_string(i) + "]",
              "form of length " + std::to_string(form.size()) +
                  " in a B_" + std::to_string(expectLen) + " table");
    }
    if (i > 0 && !(prev < form) && sorted) {
      out.add(LintCode::TableUnsorted, LintSeverity::Error,
              loc + "[" + std::to_string(i) + "]",
              "forms not strictly ascending; binary-search lookups are "
              "undefined");
      sorted = false;  // one diagnostic per table is enough
    }
    prev = form;
  }

  if (overflowed) {
    out.add(LintCode::MassNotConserved, LintSeverity::Error, loc,
            "sum of counts overflows 64 bits");
  } else if (sum != total) {
    const double deviation = std::abs(
        static_cast<double>(sum) / static_cast<double>(total) - 1.0);
    if (deviation > options_.massTolerance) {
      out.add(LintCode::MassNotConserved, LintSeverity::Error, loc,
              "probability mass sums to " + std::to_string(sum) + "/" +
                  std::to_string(total) + " (deviation " +
                  std::to_string(deviation) + " beyond tolerance)");
    }
  }

  // Spot check: the binary-searched lookup must agree with the direct read
  // it is an index over — this is the exact code path scoring uses.
  if (options_.spotChecks && sorted) {
    const std::uint32_t stride = static_cast<std::uint32_t>(
        std::max<std::size_t>(options_.spotCheckStride, 1));
    for (std::uint32_t i = 0; i < distinct;
         i = (i + stride < distinct || i == distinct - 1) ? i + stride
                                                          : distinct - 1) {
      if (table.count(table.form(i)) != table.countAt(i)) {
        out.add(LintCode::LookupMismatch, LintSeverity::Error,
                loc + "[" + std::to_string(i) + "]",
                "binary-search lookup disagrees with direct entry read");
        break;
      }
      if (i == distinct - 1) break;
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-grammar audits
// ---------------------------------------------------------------------------

namespace {

std::string leetLocus(int rule) {
  const LeetRule& r = kLeetRules[static_cast<std::size_t>(rule)];
  return std::string("config.leet[") + r.letter + r.sub + "]";
}

}  // namespace

LintReport GrammarValidator::lint(const GrammarCounts& counts,
                                  const FuzzyConfig& config) const {
  LintReport out;
  lintTransformRule("config.cap", counts.capYes(), counts.capTotal(),
                    config.transformationPrior, out);
  if (config.matchReverse) {
    lintTransformRule("config.reverse", counts.revYes(),
                      counts.revTotal(), config.transformationPrior, out);
  }
  for (int r = 0; r < kNumLeetRules; ++r) {
    lintTransformRule(leetLocus(r), counts.leetYes(r),
                      counts.leetTotal(r), config.transformationPrior, out);
  }

  if (counts.structures().total() == 0) {
    out.add(LintCode::NotTrained, LintSeverity::Warning, "structures",
            "grammar carries no counts; every score would throw NotTrained");
    return out;
  }

  // Base structures: every key must decode, and every referenced B_n table
  // must exist and carry mass — a dangling reference scores structure-mass
  // against segments that can never match (silent -inf for live passwords).
  std::uint64_t structSum = 0;
  bool structOverflow = false;
  counts.structures().forEach([&](std::string_view key, std::uint64_t count) {
    if (count == 0) {
      out.add(LintCode::ZeroCountEntry, LintSeverity::Error,
              structureLocus(key),
              "zero-count structure carries no probability mass");
    }
    if (structSum > std::numeric_limits<std::uint64_t>::max() - count) {
      structOverflow = true;
    } else {
      structSum += count;
    }
    if (!wellFormedStructureKey(key)) {
      out.add(LintCode::BadStructureKey, LintSeverity::Error,
              structureLocus(key), "key does not decode as B<n>B<m>...");
      return;
    }
    forEachSegmentLength(key, [&](std::size_t len) {
      const SegmentTable* table = counts.segmentTable(len);
      if (table == nullptr || table->empty()) {
        out.add(LintCode::DanglingSegmentRef, LintSeverity::Error,
                structureLocus(key),
                "references B_" + std::to_string(len) +
                    " but no segment of that length was trained");
      }
    });
  });
  if (structOverflow) {
    out.add(LintCode::MassNotConserved, LintSeverity::Error, "structures",
            "sum of structure counts overflows 64 bits");
  } else if (structSum != counts.structures().total()) {
    out.add(LintCode::MassNotConserved, LintSeverity::Error, "structures",
            "counts sum to " + std::to_string(structSum) +
                " but table total is " +
                std::to_string(counts.structures().total()));
  }

  // Per-length segment tables.
  std::uint64_t segmentOccurrences = 0;
  for (const std::size_t len : counts.segmentLengths()) {
    const SegmentTable& table = *counts.segmentTable(len);
    const std::string loc = segLocus(len);
    if (table.empty()) {
      out.add(LintCode::EmptyTable,
              table.total() == 0 ? LintSeverity::Warning : LintSeverity::Error,
              loc, "table exists but holds no forms");
      continue;
    }
    std::uint64_t sum = 0;
    table.forEach([&](std::string_view form, std::uint64_t count) {
      if (count == 0) {
        out.add(LintCode::ZeroCountEntry, LintSeverity::Error,
                loc + "[" + std::string(form) + "]",
                "zero-count entry carries no probability mass");
      }
      sum += count;
      if (form.size() != len) {
        out.add(LintCode::SegmentLengthMismatch, LintSeverity::Error,
                loc + "[" + std::string(form) + "]",
                "form of length " + std::to_string(form.size()) +
                    " in the B_" + std::to_string(len) + " table");
      }
    });
    if (sum != table.total()) {
      const double deviation =
          table.total() == 0
              ? std::numeric_limits<double>::infinity()
              : std::abs(static_cast<double>(sum) /
                             static_cast<double>(table.total()) -
                         1.0);
      if (deviation > options_.massTolerance) {
        out.add(LintCode::MassNotConserved, LintSeverity::Error, loc,
                "probability mass sums to " + std::to_string(sum) + "/" +
                    std::to_string(table.total()));
      }
    }
    segmentOccurrences += table.total();
  }

  // Cross-counter conservation. These counters are updated in lockstep by
  // addParse(); drift means the counts were assembled by something else (a
  // counting bug, a buggy migration) and transformation probabilities no
  // longer reflect the corpus.
  if (counts.structures().total() != counts.trainedPasswords()) {
    out.add(LintCode::CountInconsistency, LintSeverity::Warning,
            "structures",
            "structure mass " + std::to_string(counts.structures().total()) +
                " != trained password count " +
                std::to_string(counts.trainedPasswords()));
  }
  if (segmentOccurrences != counts.capTotal()) {
    out.add(LintCode::CountInconsistency, LintSeverity::Warning,
            "config.cap",
            "capitalization decisions " +
                std::to_string(counts.capTotal()) +
                " != segment occurrences " +
                std::to_string(segmentOccurrences));
  }
  if (config.matchReverse && counts.revTotal() != counts.capTotal()) {
    out.add(LintCode::CountInconsistency, LintSeverity::Warning,
            "config.reverse",
            "reverse decisions " + std::to_string(counts.revTotal()) +
                " != capitalization decisions " +
                std::to_string(counts.capTotal()));
  }
  return out;
}

LintReport GrammarValidator::lint(const FlatGrammarView& view) const {
  LintReport out;
  const FuzzyConfig& config = view.config();

  lintTransformRule("config.cap", view.capYes(), view.capTotal(),
                    config.transformationPrior, out);
  if (config.matchReverse) {
    lintTransformRule("config.reverse", view.revYes(), view.revTotal(),
                      config.transformationPrior, out);
  }
  for (int r = 0; r < kNumLeetRules; ++r) {
    lintTransformRule(leetLocus(r), view.leetYes(r), view.leetTotal(r),
                      config.transformationPrior, out);
  }

  if (!view.trained()) {
    out.add(LintCode::NotTrained, LintSeverity::Warning, "structures",
            "grammar carries no counts; every score would throw NotTrained");
    return out;
  }

  // Tables. Segment tables must be keyed by strictly ascending length —
  // segmentTable() binary-searches the (length, table) index.
  lintCountTable("structures", view.structures(), 0, out);
  std::uint64_t segmentOccurrences = 0;
  std::uint64_t prevLen = 0;
  bool segmentsSorted = true;
  for (const auto& [len, table] : view.segmentTables()) {
    if (len <= prevLen && prevLen != 0 && segmentsSorted) {
      out.add(LintCode::TableUnsorted, LintSeverity::Error, "segments",
              "segment-table lengths not strictly ascending");
      segmentsSorted = false;
    }
    prevLen = len;
    lintCountTable(segLocus(len), table, len, out);
    segmentOccurrences += table.total();
  }

  // Dangling B_n references from base structures.
  const FlatTableView& structures = view.structures();
  for (std::uint32_t i = 0; i < structures.distinct(); ++i) {
    const std::string_view key = structures.form(i);
    if (!wellFormedStructureKey(key)) {
      out.add(LintCode::BadStructureKey, LintSeverity::Error,
              structureLocus(key), "key does not decode as B<n>B<m>...");
      continue;
    }
    if (!segmentsSorted) continue;  // segmentTable() lookups are undefined
    forEachSegmentLength(key, [&](std::size_t len) {
      const FlatTableView* table = view.segmentTable(len);
      if (table == nullptr || table->empty()) {
        out.add(LintCode::DanglingSegmentRef, LintSeverity::Error,
                structureLocus(key),
                "references B_" + std::to_string(len) +
                    " but the artifact carries no such table");
      }
    });
  }

  // Cross-counter conservation (same invariants as the live grammar).
  if (structures.total() != view.trainedPasswords()) {
    out.add(LintCode::CountInconsistency, LintSeverity::Warning,
            "structures",
            "structure mass " + std::to_string(structures.total()) +
                " != trained password count " +
                std::to_string(view.trainedPasswords()));
  }
  if (segmentOccurrences != view.capTotal()) {
    out.add(LintCode::CountInconsistency, LintSeverity::Warning,
            "config.cap",
            "capitalization decisions " + std::to_string(view.capTotal()) +
                " != segment occurrences " +
                std::to_string(segmentOccurrences));
  }

  // Tries. The loader proved both are trees (FlatTrieView::validate), so
  // the spot checks below can walk them.
  if (view.baseDictionary().size() != view.baseWordCount()) {
    out.add(LintCode::CountInconsistency, LintSeverity::Warning, "trie",
            "trie stores " + std::to_string(view.baseDictionary().size()) +
                " words but the artifact lists " +
                std::to_string(view.baseWordCount()) + " base words");
  }

  // Cross-representation spot checks: the word pool and the trie encode the
  // same dictionary; every sampled word must be reachable through the trie
  // the scorer will actually walk.
  if (options_.spotChecks && view.baseWordCount() > 0) {
    const std::uint64_t stride = static_cast<std::uint64_t>(
        std::max<std::size_t>(options_.spotCheckStride, 1));
    const std::uint64_t count = view.baseWordCount();
    for (std::uint64_t i = 0; i < count;
         i = (i + stride < count || i == count - 1) ? i + stride : count - 1) {
      const std::string_view word = view.baseWord(i);
      if (!view.baseDictionary().contains(word)) {
        out.add(LintCode::WordNotInTrie, LintSeverity::Error,
                "baseWords[" + std::to_string(i) + "]",
                "stored base word not reachable through the mapped trie");
        break;
      }
      if (config.matchReverse) {
        if (!containsReversed(view.reversedDictionary(), word)) {
          out.add(LintCode::WordNotInTrie, LintSeverity::Error,
                  "baseWords[" + std::to_string(i) + "]",
                  "reversed base word not reachable through the reversed "
                  "trie");
          break;
        }
      }
      if (i == count - 1) break;
    }
  }
  return out;
}

LintReport lintGrammarFile(const std::string& path, LintOptions options) {
  const auto artifact = GrammarArtifact::open(path);
  return GrammarValidator(options).lint(artifact->grammar());
}

}  // namespace fpsm
