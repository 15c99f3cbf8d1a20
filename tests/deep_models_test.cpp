// Deeper model-level verification:
//   - the paper's Eq. (4) construction: a meter that perturbs the ideal
//     meter's probabilities without changing the order is indistinguishable
//     under rank correlation (the "practically ideal meter" definition);
//   - PCFG enumeration is complete and mass-exact on finite grammars;
//   - Markov log2Prob factorizes exactly into conditionalProb terms;
//   - fuzzy enumeration agrees with measuring on canonical derivations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "compiled_grammar.h"
#include "core/fuzzy_psm.h"
#include "corpus/dataset.h"
#include "meters/markov/markov.h"
#include "meters/pcfg/pcfg.h"
#include "stats/correlation.h"
#include "util/rng.h"

namespace fpsm {
namespace {

// ----------------------------------------------- paper Eq. (4) construction

TEST(PracticallyIdealMeter, Eq4PerturbationPreservesRanking) {
  // M1 = the ideal probabilities (descending). M2 moves probability mass
  // between pw1 and pw2 exactly as the paper's Eq. (4): M2(pw1) = M1(pw1)
  // + (M1(pw2)-M1(pw3))/2, M2(pw2) = M1(pw2) - (M1(pw2)-M1(pw3))/2.
  const std::vector<double> m1 = {0.4, 0.25, 0.15, 0.12, 0.08};
  std::vector<double> m2 = m1;
  const double delta = (m1[1] - m1[2]) / 2.0;
  m2[0] = m1[0] + delta;
  m2[1] = m1[1] - delta;

  // Still a probability distribution...
  double sum = 0;
  for (double p : m2) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // ...still sorted the same way...
  EXPECT_TRUE(std::is_sorted(m2.rbegin(), m2.rend()));
  // ...and perfectly rank-correlated with the ideal: the two meters are
  // indistinguishable under the paper's guess-number security model.
  EXPECT_NEAR(kendallTauB(m1, m2), 1.0, 1e-12);
  EXPECT_NEAR(spearmanRho(m1, m2), 1.0, 1e-12);
}

// ------------------------------------------------- PCFG exact completeness

TEST(PcfgExactness, EnumerationIsCompleteAndMassExact) {
  // Small grammar: structures L4D2 and D2, finite cross-product.
  Dataset ds;
  ds.add("pass12", 4);  // L4 D2
  ds.add("word34", 2);
  ds.add("pass34", 0);  // never seen; should still be generated (cross)
  ds.add("99", 3);      // D2
  PcfgModel model;
  model.train(ds);

  // Expected language: structure L4D2 (6/9) with L4 in {pass:4, word:2},
  // D2 in {12:4, 34:2, 99:3}; structure D2 (3/9) with the same D2 table.
  std::map<std::string, double> expected;
  const double pL4D2 = 6.0 / 9.0, pD2 = 3.0 / 9.0;
  const std::vector<std::pair<std::string, double>> l4 = {{"pass", 4.0 / 6},
                                                          {"word", 2.0 / 6}};
  const std::vector<std::pair<std::string, double>> d2 = {
      {"12", 4.0 / 9}, {"34", 2.0 / 9}, {"99", 3.0 / 9}};
  for (const auto& [lw, lp] : l4) {
    for (const auto& [dw, dp] : d2) {
      expected[lw + dw] = pL4D2 * lp * dp;
    }
  }
  for (const auto& [dw, dp] : d2) expected[dw] = pD2 * dp;

  std::map<std::string, double> enumerated;
  model.enumerateGuesses(1000, [&](std::string_view g, double lp) {
    enumerated[std::string(g)] = std::exp2(lp);
    return true;
  });
  ASSERT_EQ(enumerated.size(), expected.size());
  double mass = 0.0;
  for (const auto& [pw, p] : expected) {
    ASSERT_TRUE(enumerated.contains(pw)) << pw;
    EXPECT_NEAR(enumerated[pw], p, 1e-12) << pw;
    EXPECT_NEAR(std::exp2(model.log2Prob(pw)), p, 1e-12) << pw;
    mass += enumerated[pw];
  }
  EXPECT_NEAR(mass, 1.0, 1e-9);  // the grammar's full language
}

// ----------------------------------------------- Markov factorization check

TEST(MarkovExactness, Log2ProbFactorizesIntoConditionals) {
  Dataset ds;
  ds.add("abcd", 5);
  ds.add("abce", 2);
  ds.add("xyz", 3);
  for (const MarkovSmoothing smoothing :
       {MarkovSmoothing::Backoff, MarkovSmoothing::Laplace}) {
    MarkovConfig cfg;
    cfg.order = 3;
    cfg.smoothing = smoothing;
    MarkovModel model(cfg);
    model.train(ds);
    Rng rng(4);
    for (int trial = 0; trial < 50; ++trial) {
      // Random probe over a small alphabet (seen and unseen transitions).
      std::string pw;
      const char alphabet[] = "abcdexyz1";
      const auto len = 1 + rng.below(6);
      for (std::uint64_t i = 0; i < len; ++i) {
        pw.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
      }
      std::string padded(3, MarkovModel::kStart);
      padded += pw;
      padded += MarkovModel::kEnd;
      double manual = 0.0;
      for (std::size_t i = 3; i < padded.size(); ++i) {
        manual += std::log2(model.conditionalProb(
            std::string_view(padded).substr(i - 3, 3), padded[i]));
      }
      EXPECT_NEAR(model.log2Prob(pw), manual, 1e-10) << pw;
    }
  }
}

TEST(MarkovExactness, StartContextSeparatesFirstCharacter) {
  // 'b' never starts a password but follows 'a' everywhere: the start
  // context must capture that (whole-string normalization, Ma'14).
  Dataset ds;
  ds.add("ab", 10);
  ds.add("abab", 5);
  MarkovConfig cfg;
  cfg.order = 2;
  MarkovModel model(cfg);
  model.train(ds);
  const std::string startCtx(2, MarkovModel::kStart);
  EXPECT_GT(model.conditionalProb(startCtx, 'a'),
            10 * model.conditionalProb(startCtx, 'b'));
  EXPECT_GT(model.conditionalProb("ya", 'b'),  // suffix context backs off
            model.conditionalProb("ya", 'a'));
}

// --------------------------------------------------- fuzzy canonical checks

TEST(FuzzyExactness, EnumeratedScoresNeverExceedCanonical) {
  // The enumerator emits the max-probability derivation it generated for a
  // string; the meter scores the canonical (longest-prefix) parse. For
  // strings with a unique derivation the two are equal; in general the
  // enumerated probability can exceed the canonical one only via variant
  // dedup, which keeps the larger — so canonical <= enumerated + eps is
  // NOT guaranteed, but both must agree for every *trained* password.
  FuzzyConfig cfg;
  cfg.transformationPrior = 0.25;
  FuzzyPsm psm(cfg);
  psm.addBaseWord("password");
  psm.addBaseWord("dragon");
  Dataset train;
  train.add("password1", 8);
  train.add("Password1", 2);
  train.add("dragon22", 5);
  train.add("p@ssword1", 1);
  psm.train(train);
  const auto artifact = test_grammar::compiled(psm);
  const FlatGrammarView& grammar = artifact->grammar();

  std::map<std::string, double> enumerated;
  grammar.enumerateGuesses(5000, [&](std::string_view g, double lp) {
    enumerated[std::string(g)] = lp;
    return true;
  });
  train.forEach([&](std::string_view pw, std::uint64_t) {
    const auto it = enumerated.find(std::string(pw));
    ASSERT_NE(it, enumerated.end()) << pw;
    EXPECT_NEAR(it->second, grammar.log2Prob(pw), 1e-9) << pw;
  });
  // Total enumerated mass stays a sub-probability.
  double mass = 0.0;
  for (const auto& [pw, lp] : enumerated) mass += std::exp2(lp);
  EXPECT_LE(mass, 1.0 + 1e-9);
}

TEST(FuzzyExactness, UpdateEqualsRetrainFromScratch) {
  // Incremental update must land in exactly the same grammar state as
  // batch training (the adaptive meter has no drift).
  Dataset batch;
  batch.add("password1", 4);
  batch.add("Dragon99", 2);
  batch.add("tyxdqd123", 1);

  FuzzyPsm incremental;
  incremental.addBaseWord("password");
  incremental.addBaseWord("dragon");
  incremental.update("password1", 1);
  incremental.update("password1", 3);
  incremental.update("Dragon99", 2);
  incremental.update("tyxdqd123", 1);

  FuzzyPsm batchPsm;
  batchPsm.addBaseWord("password");
  batchPsm.addBaseWord("dragon");
  batchPsm.train(batch);

  // Same counts, same base-word order: the same artifact, byte for byte.
  EXPECT_EQ(compileArtifact(incremental), compileArtifact(batchPsm));
}

}  // namespace
}  // namespace fpsm
