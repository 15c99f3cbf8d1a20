#include "train/sharded_trainer.h"

#include <algorithm>

#include "analysis/grammar_lint.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "util/parallel.h"

namespace fpsm {

ShardedTrainer::ShardedTrainer(const FlatGrammarView& base,
                               TrainOptions options)
    : trie_(base.baseDictionary()),
      reversedTrie_(base.reversedDictionary()),
      config_(base.config()),
      options_(options) {}

ShardedTrainer::ShardedTrainer(const FuzzyPsm& base, TrainOptions options)
    : ownedTrie_(FlatTrie::fromTrie(base.baseDictionary())),
      ownedReversedTrie_(FlatTrie::fromTrie(base.reversedDictionary())),
      trie_(ownedTrie_.view()),
      reversedTrie_(ownedReversedTrie_.view()),
      config_(base.config()),
      options_(options) {}

void ShardedTrainer::countInto(const std::vector<Dataset::Entry>& entries,
                               GrammarCounts& into) const {
  const std::size_t n = entries.size();
  if (n == 0) return;
  obs::count(obs::Counter::TrainChunks);
  obs::count(obs::Counter::TrainEntries, n);
  const unsigned workers = parallelWorkerCount(n, options_.threads);
  const bool countReverse = config_.matchReverse;

  std::vector<GrammarCounts> shards(workers);
  // Stage spans bracket the two halves of the pipeline — the parallel
  // shard parse and the sequential merge — so bench_train_parallel (and a
  // metrics dump from any training run) can localize where wall time goes.
  obs::StageTimer parseSpan(obs::Histo::TrainShardParse);
  // One task per worker, each over a contiguous slice: a worker builds its
  // shard with a single parser instance and no synchronization. The shared
  // flat tries are only read (lookups are const with no mutable caches),
  // so this is data-race-free — tests/train_test.cpp runs it under tsan.
  const std::size_t chunk = (n + workers - 1) / workers;
  parallelFor(
      workers,
      [&](std::size_t w) {
        const std::size_t lo = w * chunk;
        const std::size_t hi = std::min(n, lo + chunk);
        if (lo >= hi) return;
        const BasicFuzzyParser<FlatTrieView> parser(trie_, config_,
                                                    &reversedTrie_);
        GrammarCounts& shard = shards[w];
        for (std::size_t i = lo; i < hi; ++i) {
          const Dataset::Entry& e = entries[i];
          if (e.count == 0) continue;
          shard.addParse(parser.parse(e.password), e.count, countReverse);
        }
      },
      workers);
  parseSpan.stop();

  if (options_.lintShards) {
    const GrammarValidator validator;
    for (const GrammarCounts& shard : shards) {
      if (shard.empty()) continue;
      LintReport report = validator.lint(shard, config_);
      if (!report.ok()) throw GrammarLintError(std::move(report));
    }
  }

  // Merge in worker-index order. The order is irrelevant for the result
  // (merge is commutative/associative) but fixing it keeps the code path
  // itself deterministic.
  obs::StageTimer mergeSpan(obs::Histo::TrainMerge);
  for (const GrammarCounts& shard : shards) into.merge(shard);
}

GrammarCounts ShardedTrainer::countEntries(
    const std::vector<Dataset::Entry>& entries) const {
  GrammarCounts counts;
  countInto(entries, counts);
  return counts;
}

GrammarCounts ShardedTrainer::countDataset(const Dataset& training) const {
  std::vector<Dataset::Entry> entries;
  entries.reserve(training.unique());
  training.forEach([&](std::string_view pw, std::uint64_t c) {
    entries.push_back(Dataset::Entry{std::string(pw), c});
  });
  return countEntries(entries);
}

GrammarCounts ShardedTrainer::countStream(DatasetReader& reader) const {
  GrammarCounts counts;
  std::vector<Dataset::Entry> chunk;
  chunk.reserve(options_.chunkEntries);
  while (reader.nextChunk(chunk, options_.chunkEntries)) {
    countInto(chunk, counts);
  }
  return counts;
}

}  // namespace fpsm
