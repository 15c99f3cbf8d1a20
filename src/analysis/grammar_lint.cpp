#include "analysis/grammar_lint.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "artifact/artifact.h"
#include "artifact/flat_grammar.h"
#include "trie/flat_trie.h"
#include "util/chars.h"

namespace fpsm {

const char* lintCodeName(LintCode code) {
  switch (code) {
    case LintCode::DanglingSegmentRef: return "dangling-segment-ref";
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

/// Calls fn(n) for each segment length n of a structure key. The loader
/// proved every key decodes as B<n>B<m>... with n >= 1.
template <typename Fn>
void forEachSegmentLength(std::string_view key, Fn&& fn) {
  for (std::size_t pos = 0; pos < key.size();) {
    std::size_t len = 0;
    for (++pos; pos < key.size() && isDigit(key[pos]); ++pos) {
      len = len * 10 + static_cast<std::size_t>(key[pos] - '0');
    }
    fn(len);
  }
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

/// Base words probed through the tries: every kBaseWordStride-th, plus
/// the last.
constexpr std::uint64_t kBaseWordStride = 64;

}  // namespace

GrammarLintError::GrammarLintError(LintReport report)
    : Error(lintErrorMessage(report)), report_(std::move(report)) {}

LintReport GrammarValidator::lint(const FlatGrammarView& view) const {
  LintReport out;
  if (!view.trained()) {
    out.add(LintCode::NotTrained, LintSeverity::Warning, "structures",
            "grammar carries no counts; every score would throw NotTrained");
    return out;
  }

  // Dangling B_n references from base structures. An empty B_n table
  // loads, so presence alone is not enough.
  const FlatTableView& structures = view.structures();
  for (std::uint32_t i = 0; i < structures.distinct(); ++i) {
    const std::string_view key = structures.form(i);
    forEachSegmentLength(key, [&](std::size_t len) {
      const FlatTableView* table = view.segmentTable(len);
      if (table == nullptr || table->empty()) {
        out.add(LintCode::DanglingSegmentRef, LintSeverity::Error,
                "structures[" + std::string(key) + "]",
                "references B_" + std::to_string(len) +
                    " but the artifact carries no such table");
      }
    });
  }

  // Cross-counter conservation. These counters are updated in lockstep by
  // GrammarCounts::addParse; drift means the counts were assembled by
  // something else, and transformation probabilities no longer reflect
  // the corpus.
  std::uint64_t segmentOccurrences = 0;
  for (const auto& [len, table] : view.segmentTables()) {
    segmentOccurrences += table.total();
  }
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
  if (view.baseDictionary().size() != view.baseWordCount()) {
    out.add(LintCode::CountInconsistency, LintSeverity::Warning, "trie",
            "trie stores " + std::to_string(view.baseDictionary().size()) +
                " words but the artifact lists " +
                std::to_string(view.baseWordCount()) + " base words");
  }

  // The word pool and the tries encode the same dictionary: every sampled
  // word must be reachable through the tries the scorer walks. The loader
  // proved both are trees (FlatTrieView::validate), so the walk ends.
  const std::uint64_t count = view.baseWordCount();
  for (std::uint64_t i = 0; i < count;
       i = i == count - 1 ? count : std::min(i + kBaseWordStride, count - 1)) {
    const std::string_view word = view.baseWord(i);
    if (!view.baseDictionary().contains(word)) {
      out.add(LintCode::WordNotInTrie, LintSeverity::Error,
              "baseWords[" + std::to_string(i) + "]",
              "stored base word not reachable through the mapped trie");
      break;
    }
    if (view.config().matchReverse &&
        !containsReversed(view.reversedDictionary(), word)) {
      out.add(LintCode::WordNotInTrie, LintSeverity::Error,
              "baseWords[" + std::to_string(i) + "]",
              "reversed base word not reachable through the reversed trie");
      break;
    }
  }
  return out;
}

LintReport lintGrammarFile(const std::string& path) {
  const auto artifact = GrammarArtifact::open(path);
  return GrammarValidator().lint(artifact->grammar());
}

}  // namespace fpsm
