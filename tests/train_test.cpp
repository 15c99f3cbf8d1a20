// Sharded-trainer battery (ctest label `train`; DESIGN.md §10).
//
// The pipeline's one non-negotiable claim is *determinism*: the grammar a
// ShardedTrainer produces — counts and .fpsmb artifact — must be a
// pure function of (base dictionary, config, entry multiset), independent
// of thread count, chunk size, and entry order, and identical to what
// sequential FuzzyPsm::train computes. These tests pin every face of that
// claim: byte-identical artifacts at 1/2/8 threads and from either
// constructor (an artifact's flat tries or a FuzzyPsm), merge commutativity /
// associativity (including a randomized partition property test), and
// bit-for-bit score equality between sharded and sequential training.
//
// Run them in a Sanitize tree (`ctest -L train` under the tsan preset) to
// put the shared-trie parallel parse under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "artifact/artifact.h"
#include "core/fuzzy_psm.h"
#include "corpus/dataset_reader.h"
#include "train/sharded_trainer.h"
#include "util/error.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/wordlists.h"

namespace fpsm {
namespace {

Dataset baseDict() {
  Dataset ds;
  for (const auto pw : {"password", "love", "monkey", "dragon", "abc",
                        "qwerty", "iloveyou", "sunshine", "shadow"}) {
    ds.add(pw, 1);
  }
  return ds;
}

FuzzyPsm makeBase(bool reverse = true) {
  FuzzyConfig config;
  config.matchReverse = reverse;
  FuzzyPsm psm(config);
  psm.loadBaseDictionary(baseDict());
  return psm;
}

/// A deterministic synthetic corpus mixing trie-covered words,
/// transformations, digits/symbols, and L/D/S fallback runs.
std::vector<Dataset::Entry> corpus(std::size_t n, std::uint64_t seed = 99) {
  const auto common = words::commonPasswords();
  const auto english = words::englishWords();
  Rng rng(seed);
  std::vector<Dataset::Entry> entries;
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string pw;
    switch (rng.below(6)) {
      case 0: pw = std::string(common[rng.below(common.size())]); break;
      case 1: pw = std::string(english[rng.below(english.size())]); break;
      case 2: pw = "Password" + std::to_string(rng.below(1000)); break;
      case 3: pw = "drag0n" + std::to_string(rng.below(100)) + "!"; break;
      case 4: pw = "yeknom" + std::to_string(rng.below(10)); break;
      default: pw = "xq" + std::to_string(rng.below(100000)) + "#z"; break;
    }
    entries.push_back(Dataset::Entry{pw, 1 + rng.below(4)});
  }
  return entries;
}

Dataset toDataset(const std::vector<Dataset::Entry>& entries) {
  Dataset ds;
  for (const auto& e : entries) ds.add(e.password, e.count);
  return ds;
}

/// .fpsmb bytes compiled straight from a counts bundle.
std::vector<std::byte> artifactBytes(const FuzzyPsm& base,
                                     const GrammarCounts& counts) {
  return writeArtifact(base.config(), base.baseWords(),
                       FlatTrie::fromTrie(base.baseDictionary()),
                       FlatTrie::fromTrie(base.reversedDictionary()), counts);
}

GrammarCounts countAt(const FuzzyPsm& base,
                      const std::vector<Dataset::Entry>& entries,
                      unsigned threads) {
  TrainOptions options;
  options.threads = threads;
  return ShardedTrainer(base, options).countEntries(entries);
}

// --------------------------------------------------------------- determinism

TEST(ShardedTrainer, ArtifactByteIdenticalAcrossThreadCounts) {
  const FuzzyPsm base = makeBase();
  const auto entries = corpus(3000);
  const auto at1 = artifactBytes(base, countAt(base, entries, 1));
  const auto at2 = artifactBytes(base, countAt(base, entries, 2));
  const auto at8 = artifactBytes(base, countAt(base, entries, 8));
  ASSERT_FALSE(at1.empty());
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);
}

TEST(ShardedTrainer, MatchesSequentialTrainByteForByte) {
  const FuzzyPsm base = makeBase();
  const auto entries = corpus(2000);

  FuzzyPsm sequential = base;
  sequential.train(toDataset(entries));

  const GrammarCounts counts = countAt(base, entries, 8);
  EXPECT_EQ(compileArtifact(sequential), artifactBytes(base, counts));
}

TEST(ShardedTrainer, ScoresBitForBitEqualToSequential) {
  const FuzzyPsm base = makeBase();
  const auto entries = corpus(1500);

  FuzzyPsm sequential = base;
  sequential.train(toDataset(entries));

  TrainOptions options;
  options.threads = 8;
  FuzzyPsm sharded = base;
  sharded.absorbCounts(
      ShardedTrainer(base, options).countDataset(toDataset(entries)));

  // Same counts over the same dictionary: the same artifact, so every
  // password scores alike.
  EXPECT_EQ(compileArtifact(sequential), compileArtifact(sharded));
}

// The trainer parses one way, through a flat dictionary: borrowing an
// artifact's view and flattening a FuzzyPsm's pointer tries count alike.
TEST(ShardedTrainer, ViewAndGrammarConstructorsCountIdentically) {
  const auto entries = corpus(2000);
  for (const bool reverse : {false, true}) {
    FuzzyPsm base = makeBase(reverse);
    base.train(toDataset(corpus(300, 5)));
    const auto artifact = GrammarArtifact::fromBytes(compileArtifact(base));
    for (const unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("reverse=" + std::to_string(reverse) +
                   " threads=" + std::to_string(threads));
      TrainOptions options;
      options.threads = threads;
      const FlatGrammarView& view = artifact->grammar();
      const GrammarCounts fromView =
          ShardedTrainer(view.config(), view.baseDictionary(),
                         view.reversedDictionary(), options)
              .countEntries(entries);
      const GrammarCounts fromGrammar =
          ShardedTrainer(base, options).countEntries(entries);
      EXPECT_EQ(artifactBytes(base, fromView),
                artifactBytes(base, fromGrammar));
    }
  }
}

TEST(ShardedTrainer, EntryOrderIrrelevant) {
  const FuzzyPsm base = makeBase();
  auto entries = corpus(1000);
  const GrammarCounts forward = countAt(base, entries, 4);
  std::reverse(entries.begin(), entries.end());
  const GrammarCounts backward = countAt(base, entries, 3);
  EXPECT_EQ(artifactBytes(base, forward), artifactBytes(base, backward));
}

// -------------------------------------------------------------- merge algebra

TEST(GrammarCounts, MergeCommutes) {
  const FuzzyPsm base = makeBase();
  const auto a = countAt(base, corpus(400, 1), 1);
  const auto b = countAt(base, corpus(400, 2), 1);

  GrammarCounts ab = a;
  ab.merge(b);
  GrammarCounts ba = b;
  ba.merge(a);
  EXPECT_EQ(artifactBytes(base, ab), artifactBytes(base, ba));
}

TEST(GrammarCounts, MergeAssociates) {
  const FuzzyPsm base = makeBase();
  const auto a = countAt(base, corpus(300, 1), 1);
  const auto b = countAt(base, corpus(300, 2), 1);
  const auto c = countAt(base, corpus(300, 3), 1);

  GrammarCounts abThenC = a;
  abThenC.merge(b);
  abThenC.merge(c);

  GrammarCounts bc = b;
  bc.merge(c);
  GrammarCounts aThenBc = a;
  aThenBc.merge(bc);

  EXPECT_EQ(artifactBytes(base, abThenC), artifactBytes(base, aThenBc));
}

TEST(GrammarCounts, MergeEmptyIsIdentity) {
  const FuzzyPsm base = makeBase();
  const auto a = countAt(base, corpus(200), 2);
  GrammarCounts merged = a;
  merged.merge(GrammarCounts{});
  EXPECT_EQ(artifactBytes(base, a), artifactBytes(base, merged));

  GrammarCounts fromEmpty;
  fromEmpty.merge(a);
  EXPECT_EQ(artifactBytes(base, a), artifactBytes(base, fromEmpty));
  EXPECT_TRUE(GrammarCounts{}.empty());
  EXPECT_FALSE(fromEmpty.empty());
}

TEST(GrammarCounts, OverflowingCountsThrowInsteadOfWrapping) {
  const FuzzyPsm base = makeBase();
  // One segment with one site per leet rule: every counter gets n once.
  const FuzzyParse parse = base.parse("dragon");
  ASSERT_EQ(parse.segments.size(), 1u);
  const std::uint64_t half = std::uint64_t{1} << 63;

  GrammarCounts once;
  once.addParse(parse, half, true);
  EXPECT_EQ(once.trainedPasswords(), half);
  GrammarCounts twice = once;
  EXPECT_THROW(twice.addParse(parse, half, true), InvalidArgument);

  GrammarCounts merged = once;
  EXPECT_THROW(merged.merge(once), InvalidArgument);
}

// Property test: split the corpus into random contiguous shards, count each
// sequentially, merge in random order — always the same artifact bytes.
TEST(GrammarCounts, RandomPartitionsMergeToSameBytes) {
  const FuzzyPsm base = makeBase();
  const auto entries = corpus(800);
  const auto expected = artifactBytes(base, countAt(base, entries, 1));

  Rng rng(4242);
  for (int round = 0; round < 8; ++round) {
    // Random cut points -> contiguous shards.
    std::vector<std::vector<Dataset::Entry>> shards;
    std::size_t at = 0;
    while (at < entries.size()) {
      const std::size_t take =
          std::min<std::size_t>(entries.size() - at, 1 + rng.below(300));
      shards.emplace_back(entries.begin() + static_cast<std::ptrdiff_t>(at),
                          entries.begin() +
                              static_cast<std::ptrdiff_t>(at + take));
      at += take;
    }
    // Count each shard, then merge in a random order.
    std::vector<GrammarCounts> counted;
    counted.reserve(shards.size());
    for (const auto& shard : shards) {
      counted.push_back(countAt(base, shard, 1));
    }
    GrammarCounts merged;
    while (!counted.empty()) {
      const std::size_t pick = rng.below(counted.size());
      merged.merge(counted[pick]);
      counted.erase(counted.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    EXPECT_EQ(expected, artifactBytes(base, merged)) << "round " << round;
  }
}

// ------------------------------------------------------------------ streaming

TEST(DatasetReader, StreamedChunksMatchBatchLoad) {
  std::string file;
  for (const auto& e : corpus(500)) {
    file += e.password + "\t" + std::to_string(e.count) + "\n";
  }

  std::istringstream batchIn(file);
  Dataset batch;
  const LoadStats batchStats = loadDataset(batchIn, batch);

  std::istringstream streamIn(file);
  DatasetReader reader(streamIn);
  Dataset streamed;
  std::vector<Dataset::Entry> chunk;
  std::size_t chunks = 0;
  while (reader.nextChunk(chunk, 64)) {
    ASSERT_LE(chunk.size(), 64u);
    for (const auto& e : chunk) streamed.add(e.password, e.count);
    ++chunks;
  }
  EXPECT_GT(chunks, 1u);
  EXPECT_EQ(reader.stats().accepted, batchStats.accepted);
  EXPECT_EQ(reader.stats().rejected, batchStats.rejected);
  EXPECT_EQ(streamed.total(), batch.total());
  EXPECT_EQ(streamed.unique(), batch.unique());
  batch.forEach([&](std::string_view pw, std::uint64_t c) {
    EXPECT_EQ(streamed.frequency(pw), c);
  });
}

TEST(ShardedTrainer, StreamedTrainingMatchesBatch) {
  const FuzzyPsm base = makeBase();
  const auto entries = corpus(1200);
  std::string file;
  for (const auto& e : entries) {
    file += e.password + "\t" + std::to_string(e.count) + "\n";
  }

  TrainOptions options;
  options.threads = 4;
  options.chunkEntries = 100;  // force many chunks
  std::istringstream in(file);
  DatasetReader reader(in);
  const GrammarCounts streamed =
      ShardedTrainer(base, options).countStream(reader);

  EXPECT_EQ(artifactBytes(base, countAt(base, entries, 1)),
            artifactBytes(base, streamed));
}

TEST(DatasetReader, MissingFileThrows) {
  EXPECT_THROW(DatasetReader("/nonexistent/path/leak.txt"), IoError);
}

// ------------------------------------------------------------- env threading

TEST(TrainOptions, FpsmThreadsEnvIsHonored) {
  ASSERT_EQ(setenv("FPSM_THREADS", "3", 1), 0);
  EXPECT_EQ(envThreadRequest(), 3u);
  EXPECT_EQ(parallelWorkerCount(10000), 3u);
  // Explicit request still wins over the environment.
  EXPECT_EQ(parallelWorkerCount(10000, 2), 2u);

  ASSERT_EQ(setenv("FPSM_THREADS", "garbage", 1), 0);
  EXPECT_EQ(envThreadRequest(), 0u);
  ASSERT_EQ(unsetenv("FPSM_THREADS"), 0);
  EXPECT_EQ(envThreadRequest(), 0u);

  // And the trainer stays deterministic regardless of where the thread
  // count came from.
  const FuzzyPsm base = makeBase();
  const auto entries = corpus(600);
  const auto explicitThreads = artifactBytes(base, countAt(base, entries, 5));
  ASSERT_EQ(setenv("FPSM_THREADS", "5", 1), 0);
  const auto envThreads = artifactBytes(base, countAt(base, entries, 0));
  ASSERT_EQ(unsetenv("FPSM_THREADS"), 0);
  EXPECT_EQ(explicitThreads, envThreads);
}

}  // namespace
}  // namespace fpsm
