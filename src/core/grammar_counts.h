// GrammarCounts — the mutable counting state of a fuzzy PCFG, split out of
// FuzzyPsm so training can scale across cores (DESIGN.md §10).
//
// A trained fuzzy grammar is nothing but sums: structure counts (Table IV),
// per-length B_n segment counts, and yes/total counters for the
// capitalization, leet, and reverse transformation rules (Tables V-VI),
// plus the trained-password total. GrammarCounts bundles exactly that state
// as a value type with two properties the training pipeline builds on:
//
//   * addParse() is the single counting rule — the same fold FuzzyPsm's
//     update phase performs (paper Sec. IV-C) — so every producer (the
//     sequential trainer, the sharded trainer's thread-local shards, the
//     serving layer's drained update batches) counts identically;
//   * merge() is commutative and associative by construction: every
//     counter is a sum and every table a multiset of (form, count)
//     additions, so shards can be combined in any order — or any grouping —
//     and yield the same counts. The artifact writer orders tables
//     canonically (lexicographic), so equal counts mean byte-identical
//     .fpsmb artifacts regardless of how many threads produced them
//     (tests/train_test.cpp).
//
// Every addition is checked: a count that would overflow 64 bits throws
// InvalidArgument instead of wrapping, so no sequence of updates can turn
// a large count into a small one.
//
// FuzzyPsm, the grammar's builder, owns one GrammarCounts; it is a friend
// so the artifact reader (FuzzyPsm::fromArtifact) can restore raw counters.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/fuzzy_parse.h"
#include "meters/segment_table.h"
#include "util/chars.h"

namespace fpsm {

class GrammarCounts {
 public:
  /// Folds n occurrences of one parsed password into the counts: its base
  /// structure, every segment's base form into the B_n table of its length,
  /// and one decision per transformation site. `countReverse` mirrors
  /// FuzzyConfig::matchReverse — reverse decisions are only counted when
  /// the rule is part of the grammar. Throws InvalidArgument when a count
  /// would overflow; the bundle is then partly updated and must be
  /// discarded.
  void addParse(const FuzzyParse& parse, std::uint64_t n, bool countReverse);

  /// Adds every counter of `other` into this object. Order-independent:
  /// for any sequence of merges over a fixed multiset of shards, the
  /// resulting counts are identical (see header comment). Throws
  /// InvalidArgument when a count would overflow; the bundle is then partly
  /// merged and must be discarded.
  void merge(const GrammarCounts& other);

  /// True when no password has been counted.
  bool empty() const { return trainedPasswords_ == 0 && structures_.empty(); }

  // --- read surface (the meter's probability sources) ---------------------
  const SegmentTable& structures() const { return structures_; }
  /// Table for B_n, or nullptr if no segment of that length was counted.
  const SegmentTable* segmentTable(std::size_t len) const;
  /// Ascending lengths n for which a B_n table exists.
  std::vector<std::size_t> segmentLengths() const;

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
  std::uint64_t trainedPasswords() const { return trainedPasswords_; }

 private:
  // The .fpsmb reader (FuzzyPsm::fromArtifact, defined in
  // src/artifact/binary_io.cpp) restores raw counters directly instead of
  // replaying parses.
  friend class FuzzyPsm;

  SegmentTable structures_;
  std::unordered_map<std::size_t, SegmentTable> segments_;
  std::uint64_t capYes_ = 0;
  std::uint64_t capTotal_ = 0;
  std::uint64_t revYes_ = 0;
  std::uint64_t revTotal_ = 0;
  std::array<std::uint64_t, kNumLeetRules> leetYes_{};
  std::array<std::uint64_t, kNumLeetRules> leetTotal_{};
  std::uint64_t trainedPasswords_ = 0;
};

}  // namespace fpsm
