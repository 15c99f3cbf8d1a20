// ShardedTrainer — parallel, deterministic fuzzy-grammar training
// (DESIGN.md §10).
//
// The paper's training phase (Sec. IV-C) parses every password of the
// training dictionary T against the base trie and counts what it sees.
// Parsing is a pure function of (password, base dictionary, config), and
// counting is addition — so training parallelizes embarrassingly:
//
//   1. partition the entry list into contiguous slices, one per worker;
//   2. each worker parses its slice against the *shared* flat base
//      dictionary (FlatTrieView reads are const and touch no mutable
//      caches) into a thread-local GrammarCounts shard;
//   3. merge the shards. GrammarCounts::merge is commutative and
//      associative, so any partitioning yields the same counts — and since
//      the artifact writer orders entries canonically, the same bytes.
//
// The trainer parses one way, through BasicFuzzyParser<FlatTrieView>. It
// borrows the tries of a FlatGrammarView (OnlineUpdater counts a batch
// against the served artifact's dictionary), or flattens a FuzzyPsm's two
// pointer tries once at construction (`fuzzypsm train`). A flat trie keeps
// the pointer trie's node ids, so both parse identically.
//
// Determinism contract (tests/train_test.cpp): for a fixed base dictionary,
// config, and entry multiset, the merged counts — and therefore the .fpsmb
// artifact — are byte-identical across thread counts, chunk sizes, entry
// order and the two constructors, and identical to sequential
// FuzzyPsm::train.
//
// In debug builds (and sanitizer builds, which keep assertions on) each
// shard is linted pre-merge with the GrammarCounts overload of
// GrammarValidator, pinning any counting defect to the worker that
// produced it.
//
// Concurrency contract: deliberately lock-free, so there is nothing here
// for the `tsa` build (DESIGN.md §13) to annotate. Workers share only
// immutable state (the base tries, the config) and write only thread-local
// shards; the merge runs after parallelFor's join, which is the sole
// synchronization point. Adding a mutex to this file would be a design
// regression — fpsm_lint would flag it (raw primitives are confined to
// util/), and the fix is to keep worker state thread-local instead.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "artifact/flat_grammar.h"
#include "core/fuzzy_psm.h"
#include "corpus/dataset.h"
#include "corpus/dataset_reader.h"
#include "trie/flat_trie.h"

namespace fpsm {

struct TrainOptions {
  /// Worker threads. 0 = decide automatically (FPSM_THREADS env var if
  /// set, else hardware concurrency via parallelWorkerCount).
  unsigned threads = 0;
  /// Entries per streamed chunk when training from a DatasetReader. Each
  /// chunk is fully parsed (in parallel) before the next is read, bounding
  /// resident passwords to one chunk.
  std::size_t chunkEntries = std::size_t{1} << 16;
  /// Lint every shard before merging; errors throw GrammarLintError.
  /// Defaults on in debug/sanitizer builds, off with NDEBUG.
#ifdef NDEBUG
  bool lintShards = false;
#else
  bool lintShards = true;
#endif
};

class ShardedTrainer {
 public:
  /// Counts against `base`'s dictionary and config. The view (and the
  /// artifact it reads) is borrowed and must outlive the trainer.
  explicit ShardedTrainer(const FlatGrammarView& base,
                          TrainOptions options = {});

  /// Counts against `base`'s dictionary and config, flattening its two
  /// tries once here; `base` is not referenced afterwards. Callers decide
  /// what to do with the produced counts (absorbCounts, artifact
  /// compilation).
  explicit ShardedTrainer(const FuzzyPsm& base, TrainOptions options = {});

  // The views may point into this object's own flat tries.
  ShardedTrainer(const ShardedTrainer&) = delete;
  ShardedTrainer& operator=(const ShardedTrainer&) = delete;

  /// Parses `entries` into a merged counts bundle.
  GrammarCounts countEntries(const std::vector<Dataset::Entry>& entries) const;

  /// Parses every entry of a materialized dataset.
  GrammarCounts countDataset(const Dataset& training) const;

  /// Streams chunks from `reader` until exhaustion, parsing each chunk in
  /// parallel. Peak memory is one chunk of entries plus one shard per
  /// worker, independent of corpus size.
  GrammarCounts countStream(DatasetReader& reader) const;

  const TrainOptions& options() const { return options_; }

 private:
  /// Parses one contiguous entry slice set into per-worker shards and
  /// merges them (in worker-index order, though any order would yield the
  /// same counts) into `into`.
  void countInto(const std::vector<Dataset::Entry>& entries,
                 GrammarCounts& into) const;

  // A FuzzyPsm's tries, flattened; empty when the trainer borrows a view.
  FlatTrie ownedTrie_;
  FlatTrie ownedReversedTrie_;
  FlatTrieView trie_;
  FlatTrieView reversedTrie_;
  FuzzyConfig config_;
  TrainOptions options_;
};

}  // namespace fpsm
