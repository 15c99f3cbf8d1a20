// Fuzzy password parsing against the base-dictionary trie (paper Sec. IV-C).
//
// Each password is decomposed left to right by *fuzzy longest-prefix match*
// against the trie of base words. The match is fuzzy in exactly the ways
// fuzzyPSM models:
//   - the first character of a segment may be the capitalization of the
//     base word's first letter (Table V), and
//   - any character may be the leet partner of the base character under
//     the six rules of Table VI (a@ s$ o0 i1 e3 t7), per occurrence.
//
// Where no trie word matches (the paper's example: tyxdqd123 -> B6 B3),
// the parser falls back to a maximal same-class L/D/S run, exactly the
// traditional PCFG segmentation.
//
// Every parsed segment records its *base form* (the string that appears in
// the grammar's B_n tables), whether its first letter was capitalized, and
// a yes/no decision for every leet-capable character of the base form —
// these are the grammar's transformation productions.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "trie/trie.h"

namespace fpsm {

struct FuzzyConfig {
  /// Minimum base-word length stored in the trie (paper: 3).
  std::size_t minBaseWordLen = 3;
  /// Match capitalized first letters against lower-cased trie words.
  bool matchCapitalization = true;
  /// Match leet partners during the trie walk.
  bool matchLeet = true;
  /// If true, a fallback L/D/S run ends early where a trie word begins
  /// inside the run (generalization; the paper consumes whole runs).
  bool retryTrieInsideRuns = false;
  /// Match base words written backwards ("drowssap" -> password) and model
  /// a per-segment Reverse -> Yes|No rule. The paper lists the reverse
  /// rule (survey Fig. 5) as future work; off by default for paper
  /// fidelity. Reversed matches are exact (no capitalization/leet).
  bool matchReverse = false;
  /// Pseudo-count added to the yes and no sides of the capitalization and
  /// leet rules (0 = pure maximum likelihood as in the paper's examples;
  /// the default keeps rare transformations measurable on small corpora).
  /// Must satisfy validTransformationPrior.
  double transformationPrior = 0.5;
};

/// The one bound on FuzzyConfig::transformationPrior: 0 <= prior <= 1e9,
/// which NaN fails. The parser's constructor rejects a config outside it,
/// and the artifact loader a Config section, so every probability derived
/// from a prior and counts with yes <= total is finite and in [0,1].
constexpr bool validTransformationPrior(double prior) {
  return prior >= 0.0 && prior <= 1e9;
}

/// One leet decision site of a segment.
struct LeetSite {
  int rule;          ///< 0-based index into kLeetRules
  bool transformed;  ///< the password used the partner character
};

struct FuzzySegment {
  std::string base;   ///< base form as stored in the B_n table
  std::size_t begin;  ///< offset in the password
  bool fromTrie;      ///< matched a base-dictionary word (vs L/D/S fallback)
  bool capitalized;   ///< first letter upper-cased relative to the base
  bool reversed = false;  ///< written backwards (matchReverse extension)
  std::vector<LeetSite> leetSites;  ///< one per leet-capable base character

  std::size_t length() const { return base.size(); }
};

struct FuzzyParse {
  std::vector<FuzzySegment> segments;
  /// Base structure key, e.g. "B8B1" (paper Table IV's left-hand sides).
  std::string structure;
};

/// Reusable per-password byte tables for the batched scoring path.
///
/// prepare(pw) answers the parser's per-byte questions for the whole
/// password up front with the dispatched SIMD kernels (util/byte_scan.h):
/// leet partner, upper-case flag, and L/D/S class per byte, plus overall
/// printable-ASCII validity. parse(pw, scratch) then reads these tables
/// inside the DFS instead of re-deriving each predicate per node visit —
/// same automaton, same candidate order, so the parse (and every score
/// downstream of it) is bit-identical to the scalar path by construction.
///
/// A scratch owns its buffers and is reused across the passwords of a
/// batch to amortize allocation; it is NOT thread-safe — one scratch per
/// worker. prepared() aliases the password passed to prepare() and is
/// valid only while that string is.
class ParseScratch {
 public:
  /// Runs the byte kernels over pw, replacing any previous contents.
  void prepare(std::string_view pw);

  /// True if pw was non-empty printable ASCII — the exact predicate of
  /// isValidPassword, computed by the vectorized scan.
  bool valid() const { return valid_; }
  /// The password the tables describe (for staleness checks).
  std::string_view prepared() const { return prepared_; }

  /// Per-byte tables, length prepared().size().
  const char* partner() const { return partner_.data(); }
  const unsigned char* upper() const { return upper_.data(); }
  const unsigned char* cls() const { return cls_.data(); }

 private:
  template <typename TrieT>
  friend class BasicFuzzyParser;

  std::vector<char> partner_;
  std::vector<unsigned char> upper_;
  std::vector<unsigned char> cls_;
  std::string path_;  ///< DFS path buffer, reused across longestMatch calls
  std::string_view prepared_;
  bool valid_ = false;
};

/// Stateless parsing engine over a borrowed trie. The trie (and the
/// optional reversed trie, required when config.matchReverse is set) must
/// outlive the parser.
///
/// Generic over the trie representation: any type exposing the traversal
/// concept `NodeId`/`kRoot`/`child`/`isTerminal`/`longestPrefix`/`empty`
/// works. Two instantiations are compiled (fuzzy_parse.cpp): the pointer
/// Trie FuzzyPsm scores with, and the pointer-free FlatTrieView read
/// zero-copy out of an mmap'd grammar artifact (src/artifact) or
/// flattened from a FuzzyPsm for training (src/train). Both walk the same
/// automaton, so parses are identical by construction.
template <typename TrieT>
class BasicFuzzyParser {
 public:
  /// `reversedTrie` holds every base word written backwards; only
  /// consulted when config.matchReverse is true.
  BasicFuzzyParser(const TrieT& trie, FuzzyConfig config,
                   const TrieT* reversedTrie = nullptr);

  /// Result of the fuzzy longest-prefix match at one position.
  struct MatchResult {
    std::size_t len = 0;       ///< 0 = no match
    std::string base;          ///< trie word matched
    int transformations = 0;   ///< cap + leet changes used (tie-breaker)
  };

  /// Longest fuzzy trie match starting at `from`; ties between equal-length
  /// matches are broken toward fewer transformations.
  MatchResult longestMatch(std::string_view pw, std::size_t from) const;

  /// Full parse: trie segments by fuzzy longest-prefix match, L/D/S run
  /// fallback elsewhere. The segments tile the password exactly.
  FuzzyParse parse(std::string_view pw) const;

  /// Batch-path parse: identical result to parse(pw), but per-byte
  /// predicates come from the scratch's precomputed kernel tables and the
  /// DFS path buffer is reused across calls. The caller must have called
  /// scratch.prepare(pw) (DCHECK-enforced); throws InvalidArgument on an
  /// invalid password exactly like parse(pw).
  FuzzyParse parse(std::string_view pw, ParseScratch& scratch) const;

  const FuzzyConfig& config() const { return config_; }

 private:
  template <typename Bytes>
  MatchResult longestMatchImpl(std::string_view pw, std::size_t from,
                               const Bytes& bytes, std::string& path) const;
  template <typename Bytes>
  FuzzyParse parseImpl(std::string_view pw, const Bytes& bytes,
                       std::string& path) const;

  const TrieT& trie_;
  const TrieT* reversedTrie_;
  FuzzyConfig config_;
};

class FlatTrieView;

extern template class BasicFuzzyParser<Trie>;
extern template class BasicFuzzyParser<FlatTrieView>;

/// The historical name: the parser over the pointer trie.
using FuzzyParser = BasicFuzzyParser<Trie>;

/// Recomputes the leet decision sites for a segment: one site per
/// leet-capable character of `base`, `transformed` where the password text
/// uses the partner. Exposed for reuse by sampling/enumeration.
std::vector<LeetSite> leetSitesFor(std::string_view base,
                                   std::string_view rendered);

/// Renders a base form with the given transformations applied (capitalize
/// first letter if requested and possible; flip the sites marked
/// transformed; finally reverse if requested). Inverse of parsing a
/// segment.
std::string renderSegment(std::string_view base, bool capitalized,
                          const std::vector<LeetSite>& sites,
                          bool reversed = false);

}  // namespace fpsm
