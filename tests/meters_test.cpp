#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "corpus/dataset.h"
#include "meters/ideal/ideal.h"
#include "meters/keepsm/keepsm.h"
#include "meters/markov/markov.h"
#include "meters/nist/nist.h"
#include "meters/pcfg/pcfg.h"
#include "meters/segment_table.h"
#include "meters/zxcvbn/adjacency.h"
#include "meters/zxcvbn/matching.h"
#include "meters/zxcvbn/zxcvbn.h"
#include "util/error.h"
#include "util/rng.h"

namespace fpsm {
namespace {

// -------------------------------------------------------------- SegmentTable

TEST(SegmentTable, CountsAndProbabilities) {
  SegmentTable t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.probability("x"), 0.0);
  t.add("abc", 3);
  t.add("def", 1);
  t.add("abc", 1);
  EXPECT_EQ(t.total(), 5u);
  EXPECT_EQ(t.distinct(), 2u);
  EXPECT_EQ(t.count("abc"), 4u);
  EXPECT_NEAR(t.probability("abc"), 0.8, 1e-12);
  EXPECT_EQ(t.probability("zzz"), 0.0);
}

TEST(SegmentTable, SortedDescAndCacheInvalidation) {
  SegmentTable t;
  t.add("low", 1);
  t.add("high", 5);
  auto sorted = t.sortedDesc();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].form, "high");
  t.add("low", 10);  // invalidates cache
  sorted = t.sortedDesc();
  EXPECT_EQ(sorted[0].form, "low");
}

TEST(SegmentTable, OverflowingAddThrowsInsteadOfWrapping) {
  SegmentTable t;
  const std::uint64_t half = std::uint64_t{1} << 63;
  t.add("x", half);
  EXPECT_THROW(t.add("x", half), InvalidArgument);
  EXPECT_THROW(t.add("y", half), InvalidArgument);
  // The rejected adds left the table as it was.
  EXPECT_EQ(t.count("x"), half);
  EXPECT_EQ(t.total(), half);
  EXPECT_EQ(t.distinct(), 1u);
}

TEST(SegmentTable, SampleMatchesDistribution) {
  SegmentTable t;
  t.add("a", 8);
  t.add("b", 2);
  Rng rng(3);
  int a = 0;
  for (int i = 0; i < 20000; ++i) {
    if (t.sample(rng) == "a") ++a;
  }
  EXPECT_NEAR(a / 20000.0, 0.8, 0.02);
  SegmentTable empty;
  EXPECT_THROW(empty.sample(rng), InvalidArgument);
}

// ---------------------------------------------------------------------- PCFG

TEST(Pcfg, SegmentationMatchesPaperExamples) {
  // p@ssw0rd -> L1 S1 L3 D1 L2 (paper Sec. IV-C)
  const auto segs = segmentLDS("p@ssw0rd");
  ASSERT_EQ(segs.size(), 5u);
  EXPECT_EQ(structureKey("p@ssw0rd", segs), "L1S1L3D1L2");
  EXPECT_EQ(structureKey("Password123", segmentLDS("Password123")), "L8D3");
  EXPECT_EQ(structureKey("123qwe123qwe", segmentLDS("123qwe123qwe")),
            "D3L3D3L3");
  EXPECT_TRUE(segmentLDS("").empty());
}

Dataset pcfgCorpus() {
  Dataset ds;
  ds.add("password123", 6);
  ds.add("letmein123", 2);
  ds.add("monkey99", 2);
  ds.add("abc!", 1);
  return ds;
}

TEST(Pcfg, ProbabilityIsStructureTimesSegments) {
  PcfgModel m;
  m.train(pcfgCorpus());
  // Structures: L8D3 x6, L7D3 x2, L6D2 x2, L3S1 x1 (total 11).
  // password123: P(L8D3)=6/11, P(L8->password)=1 (only L8), P(D3->123)=1
  // (123 appears in both L8D3 and L7D3 rows: counts 6+2 of 8 total D3).
  const double expected =
      std::log2(6.0 / 11.0) + std::log2(1.0) + std::log2(8.0 / 8.0);
  EXPECT_NEAR(m.log2Prob("password123"), expected, 1e-9);
  // Cross-product generalization: "monkey123" was never seen but its parts
  // were -> finite probability (L6D3 structure unseen though -> -inf).
  EXPECT_EQ(m.log2Prob("monkey123"), -std::numeric_limits<double>::infinity());
  // letmein99: L7D2 structure unseen -> -inf.
  EXPECT_TRUE(std::isinf(m.log2Prob("letmein99")));
}

TEST(Pcfg, CrossProductGeneralizes) {
  Dataset ds;
  ds.add("password1", 3);
  ds.add("monkey12", 1);  // L6D2
  ds.add("dragon1", 1);   // L6D1
  PcfgModel m;
  m.train(ds);
  // "dragon1" and "monkey1"? monkey1 = L6D1 structure seen; L6 has monkey &
  // dragon; D1 has 1. So monkey1 gets finite probability though unseen.
  EXPECT_TRUE(std::isfinite(m.log2Prob("monkey1")));
}

TEST(Pcfg, NotTrainedThrows) {
  PcfgModel m;
  EXPECT_THROW(m.log2Prob("abc"), NotTrained);
  Rng rng(1);
  EXPECT_THROW(m.sample(rng), NotTrained);
}

TEST(Pcfg, SampleScoresFinite) {
  PcfgModel m;
  m.train(pcfgCorpus());
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const std::string s = m.sample(rng);
    EXPECT_TRUE(std::isfinite(m.log2Prob(s))) << s;
  }
}

TEST(Pcfg, SampleEmpiricalMatchesModel) {
  PcfgModel m;
  m.train(pcfgCorpus());
  Rng rng(7);
  int hits = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (m.sample(rng) == "password123") ++hits;
  }
  const double expected = std::exp2(m.log2Prob("password123"));
  EXPECT_NEAR(hits / static_cast<double>(kDraws), expected, 0.02);
}

TEST(Pcfg, EnumerationDecreasingAndComplete) {
  PcfgModel m;
  m.train(pcfgCorpus());
  std::vector<std::string> guesses;
  std::vector<double> lps;
  m.enumerateGuesses(1000, [&](std::string_view g, double lp) {
    guesses.emplace_back(g);
    lps.push_back(lp);
    return true;
  });
  ASSERT_FALSE(guesses.empty());
  for (std::size_t i = 1; i < lps.size(); ++i) {
    EXPECT_LE(lps[i], lps[i - 1] + 1e-9);
  }
  // No duplicates (PCFG derivations are unique per string).
  auto sorted = guesses;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  // All trained passwords are enumerated, and the emitted log-probability
  // equals the scorer's.
  for (const auto& e : pcfgCorpus().sortedByFrequency()) {
    const auto it = std::find(guesses.begin(), guesses.end(), e.password);
    ASSERT_NE(it, guesses.end()) << e.password;
    const auto idx = static_cast<std::size_t>(it - guesses.begin());
    EXPECT_NEAR(lps[idx], m.log2Prob(e.password), 1e-9);
  }
  // First guess is the modal password.
  EXPECT_EQ(guesses.front(), "password123");
}

TEST(Pcfg, EnumerationRespectsCallbackStop) {
  PcfgModel m;
  m.train(pcfgCorpus());
  int seen = 0;
  m.enumerateGuesses(1000, [&](std::string_view, double) {
    return ++seen < 3;
  });
  EXPECT_EQ(seen, 3);
}

TEST(Pcfg, ExternalDictionaryModeScoresUniformly) {
  PcfgConfig cfg;
  cfg.letterModel = PcfgLetterModel::ExternalDictionary;
  PcfgModel weir(cfg);
  EXPECT_EQ(weir.name(), "PCFG-PSM(weir09)");
  Dataset ds;
  ds.add("password1", 9);  // L8 D1
  ds.add("sunshine2", 1);
  weir.train(ds);
  // Both L8 dictionary words get the SAME letter probability (uniform),
  // so the score difference comes only from the D1 segment — none here.
  EXPECT_NEAR(weir.log2Prob("password1"), weir.log2Prob("sunshine2") +
                  std::log2(weir.segmentProbability(SegmentClass::Digit, 1,
                                                    "1") /
                            weir.segmentProbability(SegmentClass::Digit, 1,
                                                    "2")),
              1e-9);
  // The learned model separates them by training frequency.
  PcfgModel learned;
  learned.train(ds);
  EXPECT_GT(learned.log2Prob("password1"), learned.log2Prob("sunshine2"));
  // Words outside the external dictionary score zero in Weir'09 mode.
  weir.update("qzkfjw1", 1);
  EXPECT_TRUE(std::isinf(weir.log2Prob("qzkfjw1")));
  // Scoring-only mode: sampling/enumeration are explicit errors.
  Rng rng(2);
  EXPECT_THROW(weir.sample(rng), InvalidArgument);
  EXPECT_THROW(weir.enumerateGuesses(10, [](std::string_view, double) {
    return true;
  }),
               InvalidArgument);
}

TEST(Pcfg, UpdateShiftsProbabilities) {
  PcfgModel m;
  m.train(pcfgCorpus());
  const double before = m.log2Prob("monkey99");
  for (int i = 0; i < 50; ++i) m.update("monkey99");
  EXPECT_GT(m.log2Prob("monkey99"), before);
}

// -------------------------------------------------------------------- Markov

Dataset markovCorpus() {
  Dataset ds;
  ds.add("aaa", 10);
  ds.add("aab", 5);
  ds.add("abc123", 3);
  ds.add("password", 2);
  ds.add("zz9!", 1);
  return ds;
}

class MarkovSmoothingTest
    : public ::testing::TestWithParam<MarkovSmoothing> {};

TEST_P(MarkovSmoothingTest, ConditionalsNormalize) {
  MarkovConfig cfg;
  cfg.order = 3;
  cfg.smoothing = GetParam();
  MarkovModel m(cfg);
  m.train(markovCorpus());
  // For several contexts (seen and unseen), the conditional distribution
  // over the 96 predicted symbols must sum to 1.
  const std::vector<std::string> contexts = {
      std::string(3, MarkovModel::kStart),
      std::string(2, MarkovModel::kStart) + "a",
      "aaa", "pas", "xyz",  // xyz unseen
  };
  for (const auto& ctx : contexts) {
    double sum = 0.0;
    for (int c = 0x20; c <= 0x7e; ++c) {
      sum += m.conditionalProb(ctx, static_cast<char>(c));
    }
    sum += m.conditionalProb(ctx, MarkovModel::kEnd);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "context: " << ctx;
  }
}

TEST_P(MarkovSmoothingTest, SampledStringsScoreFinite) {
  MarkovConfig cfg;
  cfg.order = 2;
  cfg.smoothing = GetParam();
  MarkovModel m(cfg);
  m.train(markovCorpus());
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const std::string s = m.sample(rng);
    EXPECT_FALSE(s.empty());
    EXPECT_TRUE(std::isfinite(m.log2Prob(s)) ||
                GetParam() == MarkovSmoothing::GoodTuring)
        << s;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSmoothings, MarkovSmoothingTest,
                         ::testing::Values(MarkovSmoothing::Backoff,
                                           MarkovSmoothing::Laplace,
                                           MarkovSmoothing::GoodTuring));

TEST(Markov, TrainedHeadIsMostProbable) {
  MarkovModel m;
  m.train(markovCorpus());
  EXPECT_GT(m.log2Prob("aaa"), m.log2Prob("password"));
  EXPECT_GT(m.log2Prob("password"), m.log2Prob("qQ[!7e"));
}

TEST(Markov, GeneralizesToUnseenStrings) {
  MarkovModel m;
  m.train(markovCorpus());
  // Never-seen string still gets finite probability (the smoothing point).
  EXPECT_TRUE(std::isfinite(m.log2Prob("aba")));
}

TEST(Markov, SampleEmpiricalMatchesModel) {
  MarkovConfig cfg;
  cfg.order = 3;
  MarkovModel m(cfg);
  Dataset ds;
  ds.add("ab", 9);
  ds.add("cd", 1);
  m.train(ds);
  Rng rng(13);
  int hits = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (m.sample(rng) == "ab") ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(kDraws),
              std::exp2(m.log2Prob("ab")), 0.03);
}

TEST(Markov, EnumerationBandsAreDecreasing) {
  MarkovModel m;
  m.train(markovCorpus());
  std::vector<double> lps;
  std::vector<std::string> guesses;
  m.enumerateGuesses(500, [&](std::string_view g, double lp) {
    lps.push_back(lp);
    guesses.emplace_back(g);
    return true;
  });
  ASSERT_GT(lps.size(), 10u);
  // Band ordering: each guess's band floor is non-increasing.
  for (std::size_t i = 1; i < lps.size(); ++i) {
    EXPECT_LE(std::ceil(lps[i]), std::ceil(lps[i - 1]) + 1e-9);
  }
  // Emitted log-probabilities match the scorer.
  for (std::size_t i = 0; i < guesses.size(); i += 7) {
    EXPECT_NEAR(m.log2Prob(guesses[i]), lps[i], 1e-9);
  }
  // No duplicates across bands.
  auto sorted = guesses;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(Markov, ConfigValidation) {
  MarkovConfig bad;
  bad.order = 0;
  EXPECT_THROW(MarkovModel{bad}, InvalidArgument);
  bad.order = 9;
  EXPECT_THROW(MarkovModel{bad}, InvalidArgument);
  MarkovConfig badD;
  badD.discount = 1.5;
  EXPECT_THROW(MarkovModel{badD}, InvalidArgument);
}

// ---------------------------------------------------------------------- NIST

TEST(Nist, LengthEntropySchedule) {
  NistMeter m;
  // 1 char, no bonuses except dictionary (+6 since not in dict).
  EXPECT_NEAR(m.strengthBits("^"), 4.0 + 6.0, 1e-9);
  // 8 lower-case chars not in dictionary: 4 + 7*2 + 6 = 24.
  EXPECT_NEAR(m.strengthBits("qjwmvbxk"), 4.0 + 14.0 + 6.0, 1e-9);
  // 10 chars: 4 + 14 + 2*1.5 + 6 = 27.
  EXPECT_NEAR(m.strengthBits("qjwmvbxkpz"), 4.0 + 14.0 + 3.0 + 6.0, 1e-9);
  // 22 chars: 4 + 14 + 18 + 2*1 = 38 (+0 dictionary at >= 20).
  EXPECT_NEAR(m.strengthBits(std::string(22, 'j')), 4 + 14 + 18 + 2, 1e-9);
}

TEST(Nist, CompositionBonus) {
  NistMeter m;
  // Same length, one with upper+digit -> +6.
  const double plain = m.strengthBits("qjwmvbxk");
  const double mixed = m.strengthBits("Qjwmvbx7");
  EXPECT_NEAR(mixed - plain, 6.0, 1e-9);
}

TEST(Nist, DictionaryCheckRemovesBonus) {
  NistMeter m;
  EXPECT_TRUE(m.inDictionary("password"));
  EXPECT_TRUE(m.inDictionary("PASSWORD"));  // case-folded
  EXPECT_FALSE(m.inDictionary("qjwmvbxk"));
  EXPECT_NEAR(m.strengthBits("qjwmvbxk") - m.strengthBits("password"), 6.0,
              1e-9);
}

TEST(Nist, ExtraDictionaryFromDataset) {
  Dataset leak;
  leak.add("zq9mglorp", 2);
  NistMeter m(leak);
  EXPECT_TRUE(m.inDictionary("zq9mglorp"));
  NistMeter plain;
  EXPECT_FALSE(plain.inDictionary("zq9mglorp"));
}

// -------------------------------------------------------------------- KeePSM

TEST(Keepsm, PopularWordIsCheap) {
  KeepsmMeter m;
  // "password" is a top-ranked dictionary word; a random same-length string
  // costs ~8 * log2(26) bits.
  EXPECT_LT(m.strengthBits("password"), 10.0);
  EXPECT_GT(m.strengthBits("qjwmvbxk"), 30.0);
}

TEST(Keepsm, LeetAndCaseDecodedButCharged) {
  KeepsmMeter m;
  const double base = m.strengthBits("password");
  const double leet = m.strengthBits("p@ssw0rd");
  const double caps = m.strengthBits("Password");
  EXPECT_GT(leet, base);
  EXPECT_GT(caps, base);
  // Still far below bruteforce for the same length.
  EXPECT_LT(leet, 30.0);
}

TEST(Keepsm, RepetitionDetected) {
  KeepsmMeter m;
  // A repeated block costs far less than unstructured letters of the same
  // length. (Note "abcdefghijkl" would be a diff-sequence, also cheap, so
  // compare against a pattern-free string.)
  EXPECT_LT(m.strengthBits("abcabcabcabc"), m.strengthBits("azkqmwpxnvbd"));
  EXPECT_LT(m.strengthBits("aaaaaaaa"), 14.0);
}

TEST(Keepsm, NumberRunCheaperThanDigitsBruteforce) {
  KeepsmMeter m;
  // 2 + log2(123457) ~= 19 vs 6*log2(10) ~= 19.9 — and for leading zeros
  // the value shrinks further.
  EXPECT_LT(m.strengthBits("000001"), 6 * std::log2(10.0));
}

TEST(Keepsm, DiffSequenceDetected) {
  KeepsmMeter m;
  EXPECT_LT(m.strengthBits("abcdefgh"), m.strengthBits("aqzwsxed"));
}

TEST(Keepsm, EmptyIsZero) {
  KeepsmMeter m;
  EXPECT_EQ(m.strengthBits(""), 0.0);
}

// -------------------------------------------------------------------- zxcvbn

TEST(ZxAdjacency, QwertyNeighbours) {
  const auto& g = KeyboardGraph::qwerty();
  EXPECT_TRUE(g.adjacent('q', 'w'));
  EXPECT_TRUE(g.adjacent('q', 'a'));
  EXPECT_TRUE(g.adjacent('s', 'w'));
  EXPECT_FALSE(g.adjacent('q', 'z'));
  EXPECT_FALSE(g.adjacent('q', 'p'));
  // Shifted characters resolve to the same key.
  EXPECT_TRUE(g.adjacent('!', 'q'));
  EXPECT_TRUE(g.isShifted('!'));
  EXPECT_FALSE(g.isShifted('1'));
  EXPECT_GT(g.averageDegree(), 3.0);
  EXPECT_LT(g.averageDegree(), 7.0);
}

TEST(ZxAdjacency, KeypadNeighbours) {
  const auto& g = KeyboardGraph::keypad();
  EXPECT_TRUE(g.adjacent('5', '2'));
  EXPECT_TRUE(g.adjacent('1', '5'));  // diagonal
  EXPECT_FALSE(g.adjacent('1', '9'));
  EXPECT_FALSE(g.contains('a'));
}

TEST(ZxMatching, DictionaryFindsEmbeddedWords) {
  const auto& dict = RankedDictionary::embedded();
  const auto matches = matchDictionary("xxpasswordyy", dict);
  const auto it =
      std::find_if(matches.begin(), matches.end(),
                   [](const ZxMatch& m) { return m.token == "password"; });
  ASSERT_NE(it, matches.end());
  EXPECT_EQ(it->i, 2u);
  EXPECT_EQ(it->j, 9u);
}

TEST(ZxMatching, UppercaseEntropyFormula) {
  EXPECT_EQ(uppercaseEntropy("password"), 0.0);
  EXPECT_EQ(uppercaseEntropy("Password"), 1.0);
  EXPECT_EQ(uppercaseEntropy("passworD"), 1.0);
  EXPECT_EQ(uppercaseEntropy("PASSWORD"), 1.0);
  EXPECT_GT(uppercaseEntropy("PaSsWoRd"), 1.0);
}

TEST(ZxMatching, L33tRequiresSubstitution) {
  const auto& dict = RankedDictionary::embedded();
  const auto leet = matchL33t("p@ssw0rd", dict);
  const auto it =
      std::find_if(leet.begin(), leet.end(),
                   [](const ZxMatch& m) { return m.token == "p@ssw0rd"; });
  ASSERT_NE(it, leet.end());
  EXPECT_GE(it->entropy, 2.0);  // rank + at least 2 subs
  // Plain words are not reported by the l33t matcher.
  for (const auto& m : matchL33t("password", dict)) {
    EXPECT_NE(m.token, "password");
  }
}

TEST(ZxMatching, SpatialFindsWalks) {
  const auto matches = matchSpatial("qwertyuiop");
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].i, 0u);
  EXPECT_EQ(matches[0].j, 9u);
  EXPECT_TRUE(matchSpatial("qa!zjm").empty());
}

TEST(ZxMatching, RepeatSequenceDigitsYearDate) {
  EXPECT_EQ(matchRepeat("aaab").size(), 1u);
  EXPECT_TRUE(matchRepeat("abab").empty());
  ASSERT_EQ(matchSequence("abcdef").size(), 1u);
  EXPECT_EQ(matchSequence("abcdef")[0].token, "abcdef");
  ASSERT_EQ(matchSequence("987x").size(), 1u);
  EXPECT_EQ(matchDigits("pw1234x").size(), 1u);
  ASSERT_FALSE(matchYear("born1987ok").empty());
  EXPECT_TRUE(matchYear("x1899x").empty());
  EXPECT_FALSE(matchDate("31121990").empty());
  EXPECT_FALSE(matchDate("122590").empty());
}

TEST(Zxcvbn, OrdersPasswordsSensibly) {
  ZxcvbnMeter m;
  const double weak = m.strengthBits("password");
  const double medium = m.strengthBits("password123");
  const double strong = m.strengthBits("zQ9$mG2#pL");
  EXPECT_LT(weak, medium);
  EXPECT_LT(medium, strong);
  EXPECT_LT(weak, 5.0);
  EXPECT_GT(strong, 40.0);
}

TEST(Zxcvbn, CoverIsReconstructed) {
  ZxcvbnMeter m;
  const auto a = m.analyze("password1987");
  ASSERT_FALSE(a.cover.empty());
  // Expect a dictionary match for password and a year match.
  bool sawDict = false, sawYear = false;
  for (const auto& match : a.cover) {
    if (match.kind == MatchKind::Dictionary && match.token == "password") {
      sawDict = true;
    }
    if (match.kind == MatchKind::Year) sawYear = true;
  }
  EXPECT_TRUE(sawDict);
  EXPECT_TRUE(sawYear);
}

TEST(Zxcvbn, TrainedDictionaryLowersScore) {
  Dataset leak;
  leak.add("zq9mglorp", 5);
  ZxcvbnMeter plain;
  ZxcvbnMeter tuned(leak);
  EXPECT_LT(tuned.strengthBits("zq9mglorp"), plain.strengthBits("zq9mglorp"));
}

// --------------------------------------------------------------------- Ideal

TEST(Ideal, RanksByFrequency) {
  Dataset ds;
  ds.add("first", 10);
  ds.add("second", 5);
  ds.add("third", 5);
  ds.add("fourth", 1);
  IdealMeter m(ds);
  EXPECT_EQ(m.guessNumber("first"), 1u);
  EXPECT_EQ(m.guessNumber("second"), 2u);
  EXPECT_EQ(m.guessNumber("third"), 2u);  // tie shares block rank
  EXPECT_EQ(m.guessNumber("fourth"), 4u);
  EXPECT_EQ(m.guessNumber("absent"), 0u);
  EXPECT_NEAR(m.log2Prob("first"), std::log2(10.0 / 21.0), 1e-12);
  EXPECT_TRUE(std::isinf(m.log2Prob("absent")));
}

TEST(Ideal, EnumerationFollowsFrequency) {
  Dataset ds;
  ds.add("a", 3);
  ds.add("b", 2);
  ds.add("c", 1);
  IdealMeter m(ds);
  std::vector<std::string> got;
  m.enumerateGuesses(2, [&](std::string_view g, double) {
    got.emplace_back(g);
    return true;
  });
  EXPECT_EQ(got, (std::vector<std::string>{"a", "b"}));
}

TEST(Ideal, RejectsEmptySample) {
  Dataset empty;
  EXPECT_THROW(IdealMeter{empty}, InvalidArgument);
}

}  // namespace
}  // namespace fpsm
