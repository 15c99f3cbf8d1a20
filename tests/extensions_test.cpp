// Tests for the extension features: the reverse transformation rule
// (paper future work), stronger-password suggestion (Houshmand-Aggarwal
// capability), feedback buckets, text-serialization of the PCFG and
// Markov baselines, and the textio helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "artifact/artifact.h"
#include "artifact/explain.h"
#include "compiled_grammar.h"
#include "core/fuzzy_psm.h"
#include "core/suggest.h"
#include "corpus/dataset.h"
#include "stats/edit_distance.h"
#include "meters/markov/markov.h"
#include "meters/nist/nist.h"
#include "meters/pcfg/pcfg.h"
#include "model/buckets.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/textio.h"

namespace fpsm {
namespace {

using test_grammar::compiled;

// ------------------------------------------------------------ reverse rule

FuzzyConfig reverseConfig() {
  FuzzyConfig cfg;
  cfg.matchReverse = true;
  cfg.transformationPrior = 0.0;
  return cfg;
}

TEST(ReverseRule, ParsesBackwardsBaseWords) {
  FuzzyPsm psm(reverseConfig());
  psm.addBaseWord("password");
  const auto p = psm.parse("drowssap");
  ASSERT_EQ(p.segments.size(), 1u);
  EXPECT_EQ(p.segments[0].base, "password");
  EXPECT_TRUE(p.segments[0].reversed);
  EXPECT_TRUE(p.segments[0].fromTrie);
  EXPECT_EQ(p.structure, "B8");
}

TEST(ReverseRule, ForwardMatchPreferredOnTies) {
  FuzzyPsm psm(reverseConfig());
  psm.addBaseWord("level");  // palindrome: forward == reversed
  const auto p = psm.parse("level");
  ASSERT_EQ(p.segments.size(), 1u);
  EXPECT_FALSE(p.segments[0].reversed);
}

TEST(ReverseRule, DisabledByDefault) {
  FuzzyPsm psm;  // default config: matchReverse = false
  psm.addBaseWord("password");
  const auto p = psm.parse("drowssap");
  EXPECT_FALSE(p.segments[0].fromTrie);  // plain letter-run fallback
  EXPECT_FALSE(p.segments[0].reversed);
}

TEST(ReverseRule, ProbabilityAccountsForReverseRule) {
  FuzzyPsm psm(reverseConfig());
  psm.addBaseWord("password");
  psm.addBaseWord("dragon");
  psm.update("password", 9);
  psm.update("drowssap", 1);
  const auto artifact = compiled(psm);
  const FlatGrammarView& g = artifact->grammar();
  // 10 segments, 1 reversed: P(Rev->Yes) = 0.1.
  EXPECT_NEAR(g.reverseYesProb(), 0.1, 1e-12);
  // P(drowssap) = P(B8) * P(B8->password) * P(cap No) * P(Rev Yes) *
  //               leet-No factors (all 1 at MLE since no leet observed).
  const double expected = std::log2(1.0) + std::log2(1.0) +
                          std::log2(1.0) + std::log2(0.1);
  EXPECT_NEAR(g.log2Prob("drowssap"), expected, 1e-9);
  // The forward form carries the complementary factor.
  EXPECT_NEAR(g.log2Prob("password"), std::log2(0.9), 1e-9);
}

TEST(ReverseRule, RenderSegmentReverses) {
  EXPECT_EQ(renderSegment("password", false, {}, true), "drowssap");
  EXPECT_EQ(renderSegment("password", false, {}, false), "password");
}

TEST(ReverseRule, ParseIsLosslessWithReverse) {
  FuzzyPsm psm(reverseConfig());
  for (const char* w : {"password", "dragon", "123456"}) psm.addBaseWord(w);
  for (const char* pw :
       {"drowssap", "654321nogard", "password123", "Dr@gon1"}) {
    const auto p = psm.parse(pw);
    std::string rebuilt;
    for (const auto& seg : p.segments) {
      rebuilt +=
          renderSegment(seg.base, seg.capitalized, seg.leetSites,
                        seg.reversed);
    }
    EXPECT_EQ(rebuilt, pw);
  }
}

TEST(ReverseRule, SampleAndEnumerateStayConsistent) {
  FuzzyPsm psm(reverseConfig());
  psm.addBaseWord("password");
  psm.addBaseWord("dragon");
  psm.update("password1", 10);
  psm.update("drowssap", 3);
  psm.update("dragon99", 5);
  const auto artifact = compiled(psm);
  const FlatGrammarView& grammar = artifact->grammar();
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::string s = grammar.sample(rng);
    EXPECT_TRUE(std::isfinite(grammar.log2Prob(s))) << s;
  }
  bool sawReversed = false;
  grammar.enumerateGuesses(300, [&](std::string_view g, double lp) {
    EXPECT_TRUE(std::isfinite(lp));
    if (g == "drowssap") sawReversed = true;
    return true;
  });
  EXPECT_TRUE(sawReversed);
}

TEST(ReverseRule, SerializationRoundTrip) {
  FuzzyPsm psm(reverseConfig());
  psm.addBaseWord("password");
  psm.update("drowssap", 2);
  psm.update("password1", 5);
  const std::vector<std::byte> bytes = compileArtifact(psm);
  const auto artifact = GrammarArtifact::fromBytes(bytes);
  const FuzzyPsm back = FuzzyPsm::fromArtifact(*artifact);
  EXPECT_TRUE(back.config().matchReverse);
  EXPECT_EQ(back.counts().revYes(), psm.counts().revYes());
  EXPECT_EQ(back.counts().revTotal(), psm.counts().revTotal());
  // The reversed-word trie is rebuilt too: the round trip compiles to the
  // same bytes, and the view parses reversed words.
  EXPECT_EQ(compileArtifact(back), bytes);
  EXPECT_TRUE(artifact->grammar().parse("drowssap").segments[0].reversed);
  EXPECT_TRUE(std::isfinite(artifact->grammar().log2Prob("drowssap")));
}

// -------------------------------------------------------------- suggestion

TEST(Suggest, ReturnsOriginalWhenAlreadyStrong) {
  NistMeter nist;  // deterministic rule-based meter for easy thresholds
  Rng rng(1);
  SuggestionConfig cfg;
  cfg.targetBits = 10.0;
  const auto s = suggestStrongerPassword(nist, "qjwmvbxk", cfg, rng);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->password, "qjwmvbxk");
  EXPECT_EQ(s->edits, 0);
}

TEST(Suggest, StrengthensWeakPasswordWithinBudget) {
  Dataset train;
  train.add("password1", 50);
  train.add("dragon12", 20);
  FuzzyPsm psm;
  psm.addBaseWord("password");
  psm.addBaseWord("dragon");
  psm.train(train);
  Rng rng(5);
  SuggestionConfig cfg;
  cfg.targetBits = 30.0;
  const auto s =
      suggestStrongerPassword(compiled(psm)->grammar(), "password1", cfg, rng);
  ASSERT_TRUE(s.has_value());
  EXPECT_GE(s->bits, 30.0);
  EXPECT_GE(s->edits, 1);
  EXPECT_LE(s->edits, 2);
  // The suggestion stays close: length within the edit budget.
  EXPECT_LE(s->password.size(), std::string("password1").size() + 2);
}

TEST(Suggest, SuggestionStaysWithinEditDistanceBudget) {
  NistMeter nist;
  SuggestionConfig cfg;
  cfg.targetBits = 26.0;  // reachable within two edits of most weak inputs
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    Rng rng(seed);
    for (const char* pw : {"password", "dragon12", "letmein"}) {
      const auto s = suggestStrongerPassword(nist, pw, cfg, rng);
      if (!s) continue;
      EXPECT_LE(editDistance(pw, s->password),
                static_cast<std::size_t>(cfg.maxEdits))
          << pw << " -> " << s->password;
      EXPECT_GE(s->bits, cfg.targetBits);
    }
  }
}

TEST(Suggest, RespectsEditBudget) {
  NistMeter nist;
  Rng rng(9);
  SuggestionConfig cfg;
  cfg.targetBits = 1e9;  // unreachable
  cfg.maxEdits = 2;
  cfg.candidatesPerEdit = 8;
  EXPECT_FALSE(suggestStrongerPassword(nist, "abc", cfg, rng).has_value());
}

TEST(Suggest, ValidatesInput) {
  NistMeter nist;
  Rng rng(2);
  SuggestionConfig cfg;
  EXPECT_THROW(suggestStrongerPassword(nist, "", cfg, rng), InvalidArgument);
  cfg.maxEdits = 0;
  EXPECT_THROW(suggestStrongerPassword(nist, "abc", cfg, rng),
               InvalidArgument);
}

// ------------------------------------------------------------------ buckets

TEST(Buckets, ThresholdsPartitionTheLine) {
  const BucketThresholds t;
  EXPECT_EQ(t.bucketOf(0.0), StrengthBucket::Weak);
  EXPECT_EQ(t.bucketOf(13.2), StrengthBucket::Weak);
  EXPECT_EQ(t.bucketOf(13.3), StrengthBucket::Fair);
  EXPECT_EQ(t.bucketOf(29.9), StrengthBucket::Fair);
  EXPECT_EQ(t.bucketOf(30.0), StrengthBucket::Good);
  EXPECT_EQ(t.bucketOf(45.0), StrengthBucket::Strong);
  EXPECT_EQ(t.bucketOf(std::numeric_limits<double>::infinity()),
            StrengthBucket::Strong);
  EXPECT_EQ(t.bucketOf(std::nan("")), StrengthBucket::Weak);
}

TEST(Buckets, NamesAndClassify) {
  EXPECT_EQ(bucketName(StrengthBucket::Weak), "weak");
  EXPECT_EQ(bucketName(StrengthBucket::Strong), "strong");
  NistMeter nist;
  EXPECT_EQ(classify(nist, "password"), StrengthBucket::Fair);
  EXPECT_EQ(classify(nist, std::string(24, 'q') + "Zz9!x"),
            StrengthBucket::Strong);
}

// ------------------------------------------------------------------ explain

TEST(Explain, StepsMultiplyToTheScore) {
  FuzzyPsm psm;
  psm.addBaseWord("password");
  psm.addBaseWord("dragon");
  psm.update("password1", 6);
  psm.update("P@ssw0rd1", 2);
  psm.update("dragon99", 3);
  const auto artifact = compiled(psm);
  const FlatGrammarView& grammar = artifact->grammar();
  for (const char* pw :
       {"password1", "P@ssw0rd1", "dragon99", "Password1", "p@ssword1"}) {
    const auto ex = explainDerivation(grammar, pw);
    double manual = 0.0;
    bool zero = false;
    for (const auto& step : ex.steps) {
      if (step.probability <= 0.0) zero = true;
      else manual += std::log2(step.probability);
    }
    const double scored = grammar.log2Prob(pw);
    if (zero || std::isinf(scored)) {
      EXPECT_TRUE(std::isinf(ex.log2Probability)) << pw;
      EXPECT_TRUE(std::isinf(scored)) << pw;
    } else {
      EXPECT_NEAR(ex.log2Probability, scored, 1e-9) << pw;
      EXPECT_NEAR(manual, scored, 1e-9) << pw;
    }
  }
}

TEST(Explain, RenderShowsProductions) {
  FuzzyPsm psm;
  psm.addBaseWord("password");
  psm.update("p@ssw0rd1", 1);
  const auto ex = explainDerivation(compiled(psm)->grammar(), "p@ssw0rd1");
  const std::string text = ex.render();
  EXPECT_NE(text.find("S -> B8B1"), std::string::npos);
  // Base word is "password": the @ and 0 are leet transformations.
  EXPECT_NE(text.find("B8 -> password"), std::string::npos);
  EXPECT_NE(text.find("L1: a<->@ -> Yes"), std::string::npos);
  EXPECT_NE(text.find("L3: o<->0 -> Yes"), std::string::npos);
  EXPECT_NE(text.find("Capitalize -> No"), std::string::npos);
}

TEST(Explain, ReverseRuleStepAppearsWhenEnabled) {
  FuzzyConfig cfg;
  cfg.matchReverse = true;
  FuzzyPsm psm(cfg);
  psm.addBaseWord("password");
  psm.update("drowssap", 1);
  psm.update("password", 1);
  const auto artifact = compiled(psm);
  const auto ex = explainDerivation(artifact->grammar(), "drowssap");
  const std::string text = ex.render();
  EXPECT_NE(text.find("Reverse -> Yes"), std::string::npos);
  EXPECT_NEAR(ex.log2Probability, artifact->grammar().log2Prob("drowssap"),
              1e-9);
}

// ------------------------------------------------------------------- textio

TEST(TextIo, HexRoundTrip) {
  const std::string raw = std::string("\x01\x02") + "abc \t~\x7f";
  EXPECT_EQ(textio::hexDecode(textio::hexEncode(raw)), raw);
  EXPECT_EQ(textio::hexEncode("AB"), "4142");
  EXPECT_THROW(textio::hexDecode("abc"), IoError);   // odd length
  EXPECT_THROW(textio::hexDecode("zz"), IoError);    // bad digit
}

TEST(TextIo, SplitTabsAndExpectLine) {
  const auto parts = textio::splitTabs("a\tb\t\tc");
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  std::stringstream empty;
  EXPECT_THROW(textio::expectLine(empty, "x"), IoError);
}

// ------------------------------------------------- baseline serialization

Dataset serializationCorpus() {
  Dataset ds;
  ds.add("password1", 10);
  ds.add("Dragon99", 4);
  ds.add("qwe rty!", 2);  // space inside: exercises non-alnum forms
  ds.add("abc123", 7);
  return ds;
}

TEST(PcfgSerialization, RoundTripPreservesScores) {
  PcfgModel model;
  model.train(serializationCorpus());
  std::stringstream ss;
  model.save(ss);
  const PcfgModel back = PcfgModel::load(ss);
  serializationCorpus().forEach([&](std::string_view pw, std::uint64_t) {
    EXPECT_NEAR(model.log2Prob(pw), back.log2Prob(pw), 1e-12) << pw;
  });
  EXPECT_TRUE(std::isinf(back.log2Prob("unseen!")));
}

TEST(PcfgSerialization, RejectsGarbage) {
  std::stringstream ss("garbage\n");
  EXPECT_THROW(PcfgModel::load(ss), IoError);
}

class MarkovSerialization
    : public ::testing::TestWithParam<MarkovSmoothing> {};

TEST_P(MarkovSerialization, RoundTripPreservesScores) {
  MarkovConfig cfg;
  cfg.order = 3;
  cfg.smoothing = GetParam();
  MarkovModel model(cfg);
  model.train(serializationCorpus());
  std::stringstream ss;
  model.save(ss);
  const MarkovModel back = MarkovModel::load(ss);
  EXPECT_EQ(back.config().order, 3);
  EXPECT_EQ(back.config().smoothing, GetParam());
  for (const char* probe :
       {"password1", "Dragon99", "abc123", "totally-unseen", "a"}) {
    const double a = model.log2Prob(probe);
    const double b = back.log2Prob(probe);
    if (std::isinf(a)) {
      EXPECT_TRUE(std::isinf(b)) << probe;  // GT can assign exact zeros
    } else {
      EXPECT_NEAR(a, b, 1e-12) << probe;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSmoothings, MarkovSerialization,
                         ::testing::Values(MarkovSmoothing::Backoff,
                                           MarkovSmoothing::Laplace,
                                           MarkovSmoothing::GoodTuring));

TEST(MarkovSerializationErrors, RejectsGarbage) {
  std::stringstream ss("markov-model\t2\n");
  EXPECT_THROW(MarkovModel::load(ss), IoError);
}

}  // namespace
}  // namespace fpsm
