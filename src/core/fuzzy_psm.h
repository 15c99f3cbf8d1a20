// fuzzyPSM — the paper's contribution (Sec. IV): a password strength meter
// based on a fuzzy probabilistic context-free grammar.
//
// Grammar G = (V, Sigma, S, R):
//   S   -> B_{n1} B_{n2} ...            (base structures, Table IV)
//   B_n -> w                            (base segments of length n)
//   per segment: Capitalize -> Yes|No   (first letter, Table V)
//   per leet-capable character of the base form: L_k -> Yes|No (Table VI)
//
// Training (Sec. IV-C):
//   1. A *base dictionary* B — passwords leaked from a less sensitive
//      service — is lower-cased, filtered to length >= 3, and loaded into
//      a trie.
//   2. Every password of the *training dictionary* T is parsed by fuzzy
//      longest-prefix match (src/core/fuzzy_parse.h); the observed base
//      structures, base segments, and transformation decisions are counted.
//      Spans no trie word covers fall back to traditional PCFG L/D/S runs
//      and are counted in the same B_n tables (the paper's tyxdqd123
//      example).
//
// Measuring multiplies the production probabilities of the password's
// canonical (longest-prefix) derivation — the paper's Fig. 11 walkthrough.
// The update phase folds accepted passwords back into the counts, making
// the meter adaptive.
//
// FuzzyPsm is the grammar's builder: it loads the base dictionary (tries +
// word list) and counts, and compileArtifact (artifact/artifact.h) turns it
// into the .fpsmb artifact whose FlatGrammarView scores, samples,
// enumerates and explains. All counting state is a GrammarCounts value
// (src/core/grammar_counts.h), so training can also run sharded across
// threads (src/train/sharded_trainer.h, which parses a flat copy of the
// tries) and fold back in with absorbCounts(). The pointer tries parse
// only for the serial update()/train() here and as the tests' oracle for
// the flat parse.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/fuzzy_parse.h"
#include "core/grammar_counts.h"
#include "corpus/dataset.h"
#include "meters/segment_table.h"
#include "trie/trie.h"
#include "util/chars.h"

namespace fpsm {

class FuzzyPsm {
 public:
  explicit FuzzyPsm(FuzzyConfig config = {});

  /// Loads the base dictionary: every distinct password, lower-cased, of
  /// length >= config.minBaseWordLen enters the trie.
  void loadBaseDictionary(const Dataset& base);

  /// Adds a single base word (lower-cased; ignored if too short).
  void addBaseWord(std::string_view word);

  /// Parses and counts every password of the training dictionary,
  /// weighted by frequency.
  void train(const Dataset& training);

  /// The update phase: folds n occurrences of an accepted password into
  /// the grammar (paper Sec. IV-C, "update").
  void update(std::string_view pw, std::uint64_t n = 1);

  /// Folds an externally counted bundle (a sharded-trainer merge, a drained
  /// update batch) into the grammar in one step. The delta must have been
  /// parsed against this grammar's base dictionary and config for scores
  /// to stay meaningful; counts themselves merge unconditionally.
  void absorbCounts(const GrammarCounts& delta) { counts_.merge(delta); }

  /// Canonical parse of pw under the current base dictionary: what
  /// update() counts, and the pointer-trie oracle the tests hold the flat
  /// parse to.
  FuzzyParse parse(std::string_view pw) const;

  // --- grammar introspection (the artifact writer, tests) -----------------
  const FuzzyConfig& config() const { return config_; }
  const Trie& baseDictionary() const { return trie_; }
  /// The full counting state (src/core/grammar_counts.h): what training
  /// produced and what the artifact persists. The sharded trainer and the
  /// artifact writer consume this directly.
  const GrammarCounts& counts() const { return counts_; }
  /// Base words in insertion order (the artifact stores this sequence, and
  /// fromArtifact replays it to rebuild the tries identically).
  const std::vector<std::string>& baseWords() const { return baseWords_; }
  const SegmentTable& structures() const { return counts_.structures(); }
  /// Table for B_n, or nullptr if no segment of that length was seen.
  const SegmentTable* segmentTable(std::size_t len) const {
    return counts_.segmentTable(len);
  }
  std::uint64_t trainedPasswords() const { return counts_.trainedPasswords(); }

  /// The reversed-word trie (empty unless config().matchReverse).
  const Trie& reversedDictionary() const { return reversedTrie_; }

  // --- the .fpsmb artifact -------------------------------------------------
  // A grammar is stored only as an .fpsmb artifact (src/artifact/format.h):
  // compileArtifact() writes one from this object's public state, and
  // GrammarArtifact is the one reader.
  /// Rebuilds a builder from a validated artifact (the tests' round trip,
  /// and fpsm_bench's compile timing). Declared here for private-member
  /// access but defined in src/artifact/binary_io.cpp, so the core library
  /// carries no artifact dependency; linking it requires fpsm_artifact.
  /// Re-compiling the result gives the artifact's bytes back.
  static FuzzyPsm fromArtifact(const class GrammarArtifact& artifact);

 private:
  FuzzyConfig config_;
  Trie trie_;
  Trie reversedTrie_;  // populated only when config_.matchReverse
  std::vector<std::string> baseWords_;  // insertion order, for the artifact

  GrammarCounts counts_;
};

}  // namespace fpsm
