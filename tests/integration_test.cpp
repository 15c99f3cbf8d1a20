// Cross-module integration and randomized property tests.
//
// These exercise whole pipelines (generate -> split -> train -> serialize
// -> reload -> measure -> suggest -> crack) and check model-family
// invariants on randomized corpora:
//   - sampled strings are scoreable,
//   - enumerated guesses are emitted with their true score, ordered, and
//     their probabilities sum to at most 1,
//   - Monte Carlo guess numbers are monotone in probability,
//   - the whole pipeline is deterministic per seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "artifact/artifact.h"
#include "compiled_grammar.h"
#include "core/fuzzy_psm.h"
#include "core/suggest.h"
#include "corpus/dataset.h"
#include "corpus/io.h"
#include "meters/ideal/ideal.h"
#include "meters/markov/markov.h"
#include "meters/pcfg/pcfg.h"
#include "model/buckets.h"
#include "model/montecarlo.h"
#include "synth/generator.h"
#include "util/rng.h"

namespace fpsm {
namespace {

using test_grammar::compiled;

/// A random small corpus: structured strings, skewed counts.
Dataset randomCorpus(std::uint64_t seed, int entries) {
  Rng rng(seed);
  const char* words[] = {"pass", "word", "drag", "on",  "mon",
                         "key",  "love", "sun", "sky", "blue"};
  Dataset ds("random-" + std::to_string(seed));
  for (int i = 0; i < entries; ++i) {
    std::string pw = words[rng.below(10)];
    if (rng.chance(0.6)) pw += words[rng.below(10)];
    if (rng.chance(0.7)) pw += std::to_string(rng.below(100));
    if (rng.chance(0.1)) pw += "!";
    if (rng.chance(0.15) && isLower(pw[0])) pw[0] = toUpper(pw[0]);
    ds.add(pw, 1 + rng.below(20));
  }
  return ds;
}

class ModelFamilyProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ModelFamilyProperty, EnumeratedMassIsAtMostOneAndOrdered) {
  const Dataset corpus = randomCorpus(GetParam(), 60);
  FuzzyPsm builder;
  builder.loadBaseDictionary(corpus);
  builder.train(corpus);
  const auto fuzzy = compiled(builder);
  PcfgModel pcfg;
  pcfg.train(corpus);
  IdealMeter ideal(corpus);

  const ProbabilisticModel* models[] = {&fuzzy->grammar(), &pcfg, &ideal};
  for (const ProbabilisticModel* m : models) {
    double mass = 0.0;
    double prev = 1.0;  // log2 cannot exceed 0
    std::uint64_t count = 0;
    m->enumerateGuesses(3000, [&](std::string_view, double lp) {
      EXPECT_LE(lp, prev + 1e-9) << m->name();
      prev = lp;
      mass += std::exp2(lp);
      ++count;
      return true;
    });
    EXPECT_GT(count, 0u) << m->name();
    EXPECT_LE(mass, 1.0 + 1e-6) << m->name();
  }
}

TEST_P(ModelFamilyProperty, SamplesAreScoreableAcrossModels) {
  const Dataset corpus = randomCorpus(GetParam() + 100, 50);
  FuzzyPsm builder;
  builder.loadBaseDictionary(corpus);
  builder.train(corpus);
  const auto fuzzy = compiled(builder);
  PcfgModel pcfg;
  pcfg.train(corpus);
  MarkovModel markov;
  markov.train(corpus);

  Rng rng(GetParam());
  const ProbabilisticModel* models[] = {&fuzzy->grammar(), &pcfg, &markov};
  for (const ProbabilisticModel* m : models) {
    for (int i = 0; i < 100; ++i) {
      const std::string s = m->sample(rng);
      EXPECT_FALSE(s.empty()) << m->name();
      EXPECT_TRUE(std::isfinite(m->log2Prob(s))) << m->name() << " " << s;
    }
  }
}

TEST_P(ModelFamilyProperty, MonteCarloMonotoneInProbability) {
  const Dataset corpus = randomCorpus(GetParam() + 200, 50);
  MarkovModel markov;
  markov.train(corpus);
  Rng rng(GetParam());
  const MonteCarloEstimator mc(markov, 4000, rng);
  double prevGuess = 0.0;
  for (double lp = -2.0; lp > -60.0; lp -= 4.0) {
    const double g = mc.guessNumber(lp);
    EXPECT_GE(g, prevGuess);
    prevGuess = g;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelFamilyProperty,
                         ::testing::Values(11, 22, 33, 44));

TEST(Pipeline, GenerateTrainSerializeMeasureSuggestCrack) {
  // End-to-end flow mirroring the CLI tool, entirely through the library.
  PopulationModel population(5000, 5000, 77);
  DatasetGenerator generator(population, SurveyModel::paper(), 3);
  const Dataset base =
      generator.generate(ServiceProfile::byName("Rockyou", 0.0001, 2000));
  const Dataset training =
      generator.generate(ServiceProfile::byName("Phpbb", 0.004, 2000));

  FuzzyPsm psm;
  psm.loadBaseDictionary(base);
  psm.train(training);

  // Compile to an artifact, write it out, map it back, and work with the
  // mapped grammar, as a server would.
  const std::string path = testing::TempDir() + "pipeline_grammar.fpsmb";
  {
    const std::vector<std::byte> bytes = compileArtifact(psm);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }
  const auto artifact = GrammarArtifact::open(path);
  const FlatGrammarView& clone = artifact->grammar();

  // Measure: the training head must be weak, a random string strong.
  const auto head = training.sortedByFrequency().front().password;
  EXPECT_LT(clone.strengthBits(head), 15.0);
  EXPECT_EQ(classify(clone, head), StrengthBucket::Weak);
  EXPECT_TRUE(std::isinf(clone.strengthBits("zQ#9v!Lp2x@7")));

  // Suggest: strengthen the weak head within two edits.
  Rng rng(5);
  SuggestionConfig scfg;
  scfg.targetBits = 30.0;
  const auto suggestion = suggestStrongerPassword(clone, head, scfg, rng);
  ASSERT_TRUE(suggestion.has_value());
  EXPECT_GE(suggestion->bits, 30.0);

  // Crack: the clone's top guesses must include the training head early.
  bool cracked = false;
  std::uint64_t position = 0;
  clone.enumerateGuesses(50, [&](std::string_view g, double) {
    ++position;
    if (g == head) {
      cracked = true;
      return false;
    }
    return true;
  });
  EXPECT_TRUE(cracked);
  EXPECT_LE(position, 10u);
  std::remove(path.c_str());
}

TEST(Pipeline, DatasetFileRoundTripThroughRealCorpus) {
  PopulationModel population(3000, 3000, 9);
  DatasetGenerator generator(population, SurveyModel::paper(), 4);
  const Dataset ds =
      generator.generate(ServiceProfile::byName("Faithwriters", 0.1, 900));
  std::stringstream file;
  saveDataset(ds, file);
  Dataset back;
  loadDataset(file, back);
  EXPECT_EQ(back.total(), ds.total());
  EXPECT_EQ(back.unique(), ds.unique());
}

TEST(Pipeline, DeterministicAcrossRuns) {
  auto run = [] {
    PopulationModel population(2000, 2000, 123);
    DatasetGenerator generator(population, SurveyModel::paper(), 456);
    const Dataset training =
        generator.generate(ServiceProfile::byName("Yahoo", 0.002, 1500));
    FuzzyPsm psm;
    psm.loadBaseDictionary(training);
    psm.train(training);
    const auto artifact = compiled(psm);
    std::vector<std::string> guesses;
    artifact->grammar().enumerateGuesses(20, [&](std::string_view g, double) {
      guesses.emplace_back(g);
      return true;
    });
    return guesses;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace fpsm
