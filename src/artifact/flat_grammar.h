// Zero-copy views over an .fpsmb artifact: FlatTableView (one B_n / base
// structure count table, binary-searchable in place) and FlatGrammarView
// (the trained fuzzy grammar as a model).
//
// FlatGrammarView is the one piece of code that turns a trained grammar
// into numbers: it scores (parse(), derivationLog2Prob(), log2Prob(),
// strengthBits() and the batch forms), samples, enumerates guesses in
// decreasing probability order, and feeds explainDerivation
// (artifact/explain.h). FuzzyPsm (core/fuzzy_psm.h) only counts; a caller
// compiles it (compileArtifact) and scores the view. All scoring state is
// pointers into the mapped buffer plus a few copied counters; constructing
// a view allocates only the small per-length segment-table index. The
// sampler's draw order is built on the first sample() call, never by the
// loader or by scoring.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/fuzzy_parse.h"
#include "model/probabilistic.h"
#include "trie/flat_trie.h"
#include "util/chars.h"
#include "util/check.h"

namespace fpsm {

/// Read-only count table over terminal strings, the flat sibling of
/// SegmentTable. Entries are sorted lexicographically by form; probability
/// lookups binary-search the mapped pool directly.
class FlatTableView {
 public:
  FlatTableView() = default;
  FlatTableView(const std::uint64_t* counts, const std::uint32_t* strOff,
                const std::uint32_t* strLen, const char* pool,
                std::uint32_t distinct, std::uint64_t total)
      : counts_(counts),
        strOff_(strOff),
        strLen_(strLen),
        pool_(pool),
        distinct_(distinct),
        total_(total) {}

  std::uint64_t count(std::string_view form) const;
  std::uint64_t total() const { return total_; }
  std::uint32_t distinct() const { return distinct_; }
  bool empty() const { return distinct_ == 0; }

  /// Maximum-likelihood probability count/total; 0 for unseen forms or an
  /// empty table. Same arithmetic as SegmentTable::probability.
  double probability(std::string_view form) const {
    if (total_ == 0) return 0.0;
    return static_cast<double>(count(form)) / static_cast<double>(total_);
  }

  /// Entry access in lexicographic form order (inspection, materialize).
  std::string_view form(std::uint32_t i) const {
    FPSM_DCHECK(i < distinct_);
    return std::string_view(pool_ + strOff_[i], strLen_[i]);
  }
  std::uint64_t countAt(std::uint32_t i) const {
    FPSM_DCHECK(i < distinct_);
    return counts_[i];
  }
  /// Entry indices by count descending, then form: the order the grammar
  /// samples and enumerates in (flat_grammar_sample.cpp), and the order of
  /// the pointer grammar's SegmentTable::sortedDesc.
  std::vector<std::uint32_t> byCountDesc() const;

 private:
  const std::uint64_t* counts_ = nullptr;
  const std::uint32_t* strOff_ = nullptr;
  const std::uint32_t* strLen_ = nullptr;
  const char* pool_ = nullptr;
  std::uint32_t distinct_ = 0;
  std::uint64_t total_ = 0;
};

/// The full grammar read out of a validated artifact buffer. Non-owning:
/// the GrammarArtifact that produced it keeps the buffer alive. Final, so
/// the serving layers' calls through a FlatGrammarView& stay direct.
class FlatGrammarView final : public ProbabilisticModel {
 public:
  FlatGrammarView() = default;

  // --- scoring -------------------------------------------------------------
  std::string name() const override { return "fuzzyPSM"; }
  double log2Prob(std::string_view pw) const override;
  double strengthBits(std::string_view pw) const override {
    return -log2Prob(pw);
  }
  FuzzyParse parse(std::string_view pw) const;
  /// log2 probability of one explicit derivation (structure + segments +
  /// transformation decisions); log2Prob(pw) scores parse(pw) with it.
  double derivationLog2Prob(const FuzzyParse& parse) const;
  bool trained() const { return structures_.total() > 0; }

  // --- generation (flat_grammar_sample.cpp) --------------------------------
  /// Draws one password: a derivation drawn production by production,
  /// accepted when the rendered string's canonical parse scores the same
  /// (rejection keeps the draw proportional to what log2Prob scores; see
  /// DESIGN.md). Each table draws from its entries ordered by count
  /// descending, then form. Safe to call concurrently; the first call
  /// builds that order for every table.
  std::string sample(Rng& rng) const override;
  bool supportsEnumeration() const override { return true; }
  /// Emits guesses in decreasing probability order (the Table III
  /// enumeration): each B_n table expanded into its transformation
  /// variants, combined per structure through a priority queue.
  void enumerateGuesses(std::uint64_t maxGuesses,
                        const GuessCallback& cb) const override;

  // --- batch scoring ------------------------------------------------------
  /// Scores n passwords in one call: out[i] is bit-identical to
  /// log2Prob(pws[i]) (the differential suite in tests/batch_test.cpp
  /// enforces equality at the bit-pattern level). The batch amortizes
  /// parser construction and reuses one ParseScratch, whose per-byte
  /// tables are filled by the dispatched SIMD kernels (util/byte_scan.h);
  /// invalid passwords score -inf exactly like the scalar path. Safe to
  /// call concurrently — all mutable state is local to the call.
  void log2ProbBatch(const std::string_view* pws, std::size_t n,
                     double* out) const;
  /// strengthBits() over a batch: the exact negation of log2ProbBatch.
  void strengthBitsBatch(const std::string_view* pws, std::size_t n,
                         double* out) const;

  // --- introspection -----------------------------------------------------
  const FuzzyConfig& config() const { return config_; }
  const FlatTrieView& baseDictionary() const { return trie_; }
  const FlatTrieView& reversedDictionary() const { return reversedTrie_; }
  const FlatTableView& structures() const { return structures_; }
  /// Table for B_n, or nullptr if no segment of that length was seen.
  const FlatTableView* segmentTable(std::size_t len) const;
  const std::vector<std::pair<std::uint32_t, FlatTableView>>&
  segmentTables() const {
    return segments_;
  }
  std::uint64_t trainedPasswords() const { return trainedPasswords_; }

  std::uint64_t baseWordCount() const { return baseWordCount_; }
  std::string_view baseWord(std::uint64_t i) const {
    FPSM_DCHECK(i < baseWordCount_);
    return std::string_view(baseWordPool_ + baseWordOff_[i],
                            baseWordOff_[i + 1] - baseWordOff_[i]);
  }

  std::uint64_t capYes() const { return capYes_; }
  std::uint64_t capTotal() const { return capTotal_; }
  std::uint64_t revYes() const { return revYes_; }
  std::uint64_t revTotal() const { return revTotal_; }
  std::uint64_t leetYes(int rule) const {
    return leetYes_[static_cast<std::size_t>(rule)];
  }
  std::uint64_t leetTotal(int rule) const {
    return leetTotal_[static_cast<std::size_t>(rule)];
  }
  /// P(Capitalize -> Yes) (Table V), including the configured prior.
  double capitalizeYesProb() const { return capProb(true); }
  /// P(L_rule -> Yes) (Table VI), including the configured prior.
  double leetYesProb(int rule) const { return leetProb(rule, true); }
  /// P(Reverse -> Yes) (matchReverse extension; 0 unless enabled).
  double reverseYesProb() const {
    return config_.matchReverse ? revProb(true) : 0.0;
  }

 private:
  friend class GrammarArtifact;

  /// One table's entry indices in draw order (count descending, then
  /// form) with the running sums of their counts.
  struct DrawTable {
    std::vector<std::uint32_t> order;
    std::vector<std::uint64_t> cumulative;
  };

  double capProb(bool yes) const;
  double leetProb(int rule, bool yes) const;
  double revProb(bool yes) const;
  void buildDrawTables() const;

  FuzzyConfig config_;
  FlatTrieView trie_;
  FlatTrieView reversedTrie_;
  FlatTableView structures_;
  /// (segment length, table), sorted by length; binary-searched.
  std::vector<std::pair<std::uint32_t, FlatTableView>> segments_;

  const std::uint32_t* baseWordOff_ = nullptr;  // count+1 entries
  const char* baseWordPool_ = nullptr;
  std::uint64_t baseWordCount_ = 0;

  std::uint64_t capYes_ = 0;
  std::uint64_t capTotal_ = 0;
  std::uint64_t revYes_ = 0;
  std::uint64_t revTotal_ = 0;
  std::uint64_t leetYes_[kNumLeetRules] = {};
  std::uint64_t leetTotal_[kNumLeetRules] = {};
  std::uint64_t trainedPasswords_ = 0;

  /// The sampler's draw order: [0] for the structures, [i + 1] for
  /// segments_[i]. Built once, by the first sample() call.
  mutable std::once_flag drawOnce_;
  mutable std::vector<DrawTable> drawTables_;
};

}  // namespace fpsm
