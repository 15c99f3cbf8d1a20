#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "artifact/artifact.h"
#include "compiled_grammar.h"
#include "core/fuzzy_parse.h"
#include "core/fuzzy_psm.h"
#include "corpus/dataset.h"
#include "util/error.h"
#include "util/rng.h"

namespace fpsm {
namespace {

using test_grammar::compiled;
using test_grammar::expectSameParse;

FuzzyConfig mleConfig() {
  FuzzyConfig c;
  c.transformationPrior = 0.0;  // pure maximum likelihood (paper examples)
  return c;
}

FuzzyPsm paperishGrammar(FuzzyConfig cfg = mleConfig()) {
  FuzzyPsm psm(cfg);
  for (const char* w :
       {"password", "p@ssword", "123456", "123qwe", "dragon",
        "password123"}) {
    psm.addBaseWord(w);
  }
  return psm;
}

// ------------------------------------------------------------------ parsing

TEST(FuzzyParse, ExactBaseWordIsOneSegment) {
  auto psm = paperishGrammar();
  const auto p = psm.parse("password123");
  // password123 is itself a base word -> single B11 segment, no
  // transformation (paper Sec. IV-C example).
  ASSERT_EQ(p.segments.size(), 1u);
  EXPECT_EQ(p.structure, "B11");
  EXPECT_EQ(p.segments[0].base, "password123");
  EXPECT_TRUE(p.segments[0].fromTrie);
  EXPECT_FALSE(p.segments[0].capitalized);
  for (const auto& site : p.segments[0].leetSites) {
    EXPECT_FALSE(site.transformed);
  }
}

TEST(FuzzyParse, CapitalizationDetected) {
  auto psm = paperishGrammar();
  const auto p = psm.parse("Password123");
  ASSERT_EQ(p.segments.size(), 1u);
  EXPECT_EQ(p.structure, "B11");
  EXPECT_EQ(p.segments[0].base, "password123");
  EXPECT_TRUE(p.segments[0].capitalized);
}

TEST(FuzzyParse, LeetDetected) {
  auto psm = paperishGrammar();
  // p@ssw0rd: base p@ssword with o->0 (paper example).
  const auto p = psm.parse("p@ssw0rd");
  ASSERT_EQ(p.segments.size(), 1u);
  EXPECT_EQ(p.structure, "B8");
  EXPECT_EQ(p.segments[0].base, "p@ssword");
  EXPECT_FALSE(p.segments[0].capitalized);
  // Sites of p@ssword: '@'(L1), 's'(L2), 's'(L2), 'o'(L3) -> only the 'o'
  // is transformed.
  ASSERT_EQ(p.segments[0].leetSites.size(), 4u);
  EXPECT_EQ(p.segments[0].leetSites[0].rule, 0);
  EXPECT_FALSE(p.segments[0].leetSites[0].transformed);
  EXPECT_EQ(p.segments[0].leetSites[3].rule, 2);
  EXPECT_TRUE(p.segments[0].leetSites[3].transformed);
}

TEST(FuzzyParse, ConcatenationByLongestPrefix) {
  FuzzyPsm psm(mleConfig());
  psm.addBaseWord("123qwe");
  const auto p = psm.parse("123qwe123qwe");
  // 123qwe123qwe not in trie -> B6 B6 (paper example).
  ASSERT_EQ(p.segments.size(), 2u);
  EXPECT_EQ(p.structure, "B6B6");
  EXPECT_EQ(p.segments[0].base, "123qwe");
  EXPECT_EQ(p.segments[1].base, "123qwe");
}

TEST(FuzzyParse, WholeWordPreferredOverPrefix) {
  auto psm = paperishGrammar();
  // password123 in trie: longest prefix wins over password + 123.
  const auto p = psm.parse("password123");
  EXPECT_EQ(p.structure, "B11");
}

TEST(FuzzyParse, FallbackToLdsRuns) {
  auto psm = paperishGrammar();
  // tyxdqd123 unparseable by the trie -> B6 B3 (paper example).
  const auto p = psm.parse("tyxdqd123");
  ASSERT_EQ(p.segments.size(), 2u);
  EXPECT_EQ(p.structure, "B6B3");
  EXPECT_EQ(p.segments[0].base, "tyxdqd");
  EXPECT_FALSE(p.segments[0].fromTrie);
  EXPECT_EQ(p.segments[1].base, "123");
  // '1' (i<->1) and '3' (e<->3) are leet-capable: two untransformed sites.
  ASSERT_EQ(p.segments[1].leetSites.size(), 2u);
  EXPECT_EQ(p.segments[1].leetSites[0].rule, 3);
  EXPECT_FALSE(p.segments[1].leetSites[0].transformed);
  EXPECT_EQ(p.segments[1].leetSites[1].rule, 4);
  EXPECT_FALSE(p.segments[1].leetSites[1].transformed);
}

TEST(FuzzyParse, MixedTrieAndFallback) {
  auto psm = paperishGrammar();
  const auto p = psm.parse("xyzpassword");  // letters run, no trie prefix
  // Fallback consumes the full letter run (paper semantics,
  // retryTrieInsideRuns = false).
  ASSERT_EQ(p.segments.size(), 1u);
  EXPECT_EQ(p.segments[0].base, "xyzpassword");

  FuzzyConfig cfg = mleConfig();
  cfg.retryTrieInsideRuns = true;
  FuzzyPsm retry(cfg);
  retry.addBaseWord("password");
  const auto p2 = retry.parse("xyzpassword");
  ASSERT_EQ(p2.segments.size(), 2u);
  EXPECT_EQ(p2.segments[0].base, "xyz");
  EXPECT_EQ(p2.segments[1].base, "password");
}

TEST(FuzzyParse, SegmentsTileThePassword) {
  auto psm = paperishGrammar();
  for (const char* pw :
       {"password123", "P@ssw0rd!", "tyxdqd123", "123qwe123qwe",
        "a1b2c3d4", "Dragon2015", "!!!", "x"}) {
    const auto p = psm.parse(pw);
    std::string rebuilt;
    for (const auto& seg : p.segments) {
      rebuilt += renderSegment(seg.base, seg.capitalized, seg.leetSites);
    }
    EXPECT_EQ(rebuilt, pw) << "parse must be lossless";
  }
}

TEST(FuzzyParse, ShortBaseWordsRejected) {
  FuzzyPsm psm;
  psm.addBaseWord("ab");  // below minBaseWordLen = 3
  EXPECT_EQ(psm.baseDictionary().size(), 0u);
  psm.addBaseWord("abc");
  EXPECT_EQ(psm.baseDictionary().size(), 1u);
}

TEST(FuzzyParse, InvalidPasswordThrows) {
  auto psm = paperishGrammar();
  EXPECT_THROW(psm.parse(""), InvalidArgument);
}

// ----------------------------------------------------------- worked example

TEST(FuzzyPsm, WorkedExampleProbability) {
  // Reconstruct the flavor of the paper's Fig. 11 derivation of
  // "p@ssw0rd1" = B8 B1 with counts we control exactly.
  auto psm = paperishGrammar();
  // Training: 6x "password1" (B8 B1: base password + fallback digit 1),
  // 2x "p@ssword1", 1x "p@ssw0rd1", 1x "dragon" (B6).
  psm.update("password1", 6);
  psm.update("p@ssword1", 2);
  psm.update("p@ssw0rd1", 1);
  psm.update("dragon", 1);
  const auto artifact = compiled(psm);
  const FlatGrammarView& g = artifact->grammar();

  // Structures: B8B1 x9, B6 x1.
  EXPECT_NEAR(g.structures().probability("B8B1"), 0.9, 1e-12);
  // B8 table: password x6, p@ssword x3.
  const auto* b8 = g.segmentTable(8);
  ASSERT_NE(b8, nullptr);
  EXPECT_NEAR(b8->probability("p@ssword"), 3.0 / 9.0, 1e-12);
  // Capitalization never used: 0 of 19 segments.
  EXPECT_EQ(g.capitalizeYesProb(), 0.0);

  // Leet sites per training occurrence (rule o<->0 is index 2):
  //   password1: a,s,s,o + 1        -> one 'o' site, untransformed
  //   p@ssword1: @,s,s,o + 1        -> one 'o' site, untransformed
  //   p@ssw0rd1: @,s,s,0 + 1        -> one 'o' site, TRANSFORMED
  //   dragon:    a,o                -> one 'o' site, untransformed
  // Rule L3 (o<->0): 6 + 2 + 1 + 1 = 10 sites, 1 transformed.
  EXPECT_NEAR(g.leetYesProb(2), 0.1, 1e-12);
  // Rule L1 (a<->@): 10 sites (a in password x6, dragon x1; @ in the
  // p@ss forms x3), 0 transformed (the @ forms are base forms).
  EXPECT_NEAR(g.leetYesProb(0), 0.0, 1e-12);

  // Hand-computed probability of "p@ssw0rd1" (the paper's Fig. 11 shape):
  //   P(S->B8B1)=0.9, P(B8->p@ssword)=3/9, P(B1->1)=1,
  //   seg1: cap no (1.0), L1 no (1.0), L2 no (1.0) twice, L3 yes (0.1)
  //   seg2: cap no (1.0), L4 no (1.0), all its sites untransformed
  const double expected =
      std::log2(0.9) + std::log2(3.0 / 9.0) + std::log2(0.1);
  EXPECT_NEAR(g.log2Prob("p@ssw0rd1"), expected, 1e-9);
}

TEST(FuzzyPsm, CapitalizationFactorsApply) {
  auto psm = paperishGrammar();
  psm.update("password1", 8);
  psm.update("Password1", 2);
  const auto artifact = compiled(psm);
  const FlatGrammarView& g = artifact->grammar();
  // 20 segments total, 2 capitalized.
  EXPECT_NEAR(g.capitalizeYesProb(), 0.1, 1e-12);
  // P(Password1)/P(password1) = capYes/capNo (same base, same leet).
  const double ratio = g.log2Prob("Password1") - g.log2Prob("password1");
  EXPECT_NEAR(ratio, std::log2(0.1 / 0.9), 1e-9);
}

TEST(FuzzyPsm, UnseenStructureOrSegmentIsZero) {
  auto psm = paperishGrammar();
  psm.update("password1", 5);
  const auto artifact = compiled(psm);
  const FlatGrammarView& g = artifact->grammar();
  EXPECT_TRUE(std::isinf(g.log2Prob("dragon")));        // B6 unseen
  EXPECT_TRUE(std::isinf(g.log2Prob("password12")));    // B8B2 unseen
}

TEST(FuzzyPsm, NotTrainedThrows) {
  const auto artifact = compiled(paperishGrammar());
  const FlatGrammarView& g = artifact->grammar();
  EXPECT_THROW(g.log2Prob("password1"), NotTrained);
  Rng rng(1);
  EXPECT_THROW(g.sample(rng), NotTrained);
  const auto all = [](std::string_view, double) { return true; };
  EXPECT_THROW(g.enumerateGuesses(1, all), NotTrained);
}

// ---------------------------------------------------------------- adaptivity

TEST(FuzzyPsm, UpdatePhaseIsAdaptive) {
  auto psm = paperishGrammar();
  psm.update("password1", 10);
  psm.update("dragon123", 1);
  const double before = compiled(psm)->grammar().log2Prob("dragon123");
  for (int i = 0; i < 30; ++i) psm.update("dragon123");
  EXPECT_GT(compiled(psm)->grammar().log2Prob("dragon123"), before);
}

TEST(FuzzyPsm, TrainMatchesRepeatedUpdate) {
  Dataset ds;
  ds.add("password1", 4);
  ds.add("Dragon99", 2);
  auto a = paperishGrammar();
  a.train(ds);
  auto b = paperishGrammar();
  ds.forEach([&](std::string_view pw, std::uint64_t c) { b.update(pw, c); });
  EXPECT_EQ(compileArtifact(a), compileArtifact(b));
  EXPECT_EQ(a.trainedPasswords(), 6u);
}

// ------------------------------------------------------------------ sampling

TEST(FuzzyPsm, SampleScoresMatchDerivation) {
  FuzzyConfig cfg;  // default prior keeps transformations reachable
  auto psm = paperishGrammar(cfg);
  psm.update("password1", 20);
  psm.update("p@ssword1", 5);
  psm.update("Password123", 5);
  psm.update("123qwe", 10);
  psm.update("dragon2", 3);
  const auto artifact = compiled(psm);
  const FlatGrammarView& g = artifact->grammar();
  Rng rng(21);
  for (int i = 0; i < 300; ++i) {
    const std::string s = g.sample(rng);
    EXPECT_TRUE(std::isfinite(g.log2Prob(s))) << s;
  }
}

TEST(FuzzyPsm, SampleEmpiricalMatchesModel) {
  auto psm = paperishGrammar();
  psm.update("password1", 9);
  psm.update("dragon", 1);
  const auto artifact = compiled(psm);
  const FlatGrammarView& g = artifact->grammar();
  Rng rng(33);
  int hits = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (g.sample(rng) == "password1") ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(kDraws),
              std::exp2(g.log2Prob("password1")), 0.02);
}

// --------------------------------------------------------------- enumeration

TEST(FuzzyPsm, EnumerationDecreasingAndScoreable) {
  auto psm = paperishGrammar(FuzzyConfig{});
  psm.update("password1", 10);
  psm.update("p@ssword1", 3);
  psm.update("123qwe123qwe", 4);
  psm.update("dragon99", 2);
  std::vector<std::string> guesses;
  std::vector<double> lps;
  const auto artifact = compiled(psm);
  const FlatGrammarView& grammar = artifact->grammar();
  grammar.enumerateGuesses(2000, [&](std::string_view g, double lp) {
    guesses.emplace_back(g);
    lps.push_back(lp);
    return true;
  });
  ASSERT_GT(guesses.size(), 10u);
  for (std::size_t i = 1; i < lps.size(); ++i) {
    EXPECT_LE(lps[i], lps[i - 1] + 1e-9);
  }
  // All trained passwords appear.
  for (const char* pw :
       {"password1", "p@ssword1", "123qwe123qwe", "dragon99"}) {
    EXPECT_NE(std::find(guesses.begin(), guesses.end(), pw), guesses.end())
        << pw;
  }
  EXPECT_EQ(guesses.front(), "password1");
  // No duplicate strings.
  auto sorted = guesses;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
}

TEST(FuzzyPsm, EnumerationIncludesTransformedVariants) {
  auto psm = paperishGrammar(FuzzyConfig{});
  psm.update("password1", 20);
  psm.update("Password1", 1);  // make cap observable
  bool sawCap = false;
  const auto artifact = compiled(psm);
  const FlatGrammarView& grammar = artifact->grammar();
  grammar.enumerateGuesses(500, [&](std::string_view g, double) {
    if (g == "Password1") sawCap = true;
    return true;
  });
  EXPECT_TRUE(sawCap);
}

// ----------------------------------------------------------- differential

// The measuring contract: log2Prob(pw) IS the probability of the canonical
// derivation, for every password shape the grammar can produce — trie hits,
// capitalized/leet/reversed variants, multi-segment concatenations, and
// PCFG-fallback spans (the paper's tyxdqd123). Guards the equivalence when
// either path is later optimized or cached independently (the serving
// layer's score cache already relies on it). The compiled grammar's flat
// parse must also equal the builder's pointer-trie parse it counted with.
TEST(FuzzyPsm, DifferentialDerivationEqualsLog2Prob) {
  FuzzyConfig cfg;
  cfg.matchReverse = true;  // widest rule set
  FuzzyPsm psm(cfg);
  for (const char* w :
       {"password", "p@ssword", "123456", "123qwe", "dragon", "monkey",
        "iloveyou", "secret"}) {
    psm.addBaseWord(w);
  }

  // Synthesized corpus: every transformation the grammar models, plus
  // fallback-only strings and mixtures.
  const std::vector<std::pair<const char*, std::uint64_t>> corpus = {
      {"password1", 9},     {"Password1", 2},   {"p@ssw0rd", 3},
      {"P@ssw0rd123", 1},   {"drowssap", 2},    {"Dragon99", 4},
      {"m0nkey", 2},        {"123qwe123qwe", 3}, {"tyxdqd123", 2},
      {"iloveyou520", 5},   {"terces!", 1},     {"s3cret", 2},
      {"zxywvu!!", 1},      {"123456", 12},     {"654321secret", 1},
  };
  for (const auto& [pw, n] : corpus) psm.update(pw, n);

  std::vector<std::string> probes;
  for (const auto& [pw, n] : corpus) {
    (void)n;
    probes.emplace_back(pw);
  }
  // Unseen variants exercise the zero-probability branches of both paths.
  for (const char* pw : {"PASSword1", "p@$$w0rd", "0000000", "secretsecret"}) {
    probes.emplace_back(pw);
  }

  const auto artifact = compiled(psm);
  const FlatGrammarView& g = artifact->grammar();
  for (const auto& pw : probes) {
    const FuzzyParse parsed = g.parse(pw);
    expectSameParse(parsed, psm.parse(pw), pw);
    const double viaDerivation = g.derivationLog2Prob(parsed);
    const double viaMeter = g.log2Prob(pw);
    // Exact equality: identical counts feed both computations.
    EXPECT_EQ(viaDerivation, viaMeter) << pw;
    // And the parse really is canonical: re-rendering its segments
    // reproduces the password.
    std::string rebuilt;
    for (const auto& seg : parsed.segments) {
      rebuilt += renderSegment(seg.base, seg.capitalized, seg.leetSites,
                               seg.reversed);
    }
    EXPECT_EQ(rebuilt, pw);
  }
}

// --------------------------------------------------------- artifact round trip

TEST(FuzzyPsm, SaveLoadRoundTrip) {
  auto psm = paperishGrammar(FuzzyConfig{});
  psm.update("password1", 6);
  psm.update("P@ssw0rd!", 2);
  psm.update("123qwe123qwe", 3);
  const std::vector<std::byte> bytes = compileArtifact(psm);
  const FuzzyPsm back =
      FuzzyPsm::fromArtifact(*GrammarArtifact::fromBytes(bytes));
  EXPECT_EQ(back.trainedPasswords(), psm.trainedPasswords());
  EXPECT_EQ(back.baseDictionary().size(), psm.baseDictionary().size());
  // The artifact carries every count and the base-word order, so the
  // rebuilt grammar compiles to the same bytes and scores identically.
  EXPECT_EQ(compileArtifact(back), bytes);
}

TEST(FuzzyPsm, LoadRejectsGarbage) {
  // A grammar loads only through the artifact reader, which refuses bytes
  // that are not an artifact with a typed IoError.
  std::vector<std::byte> garbage(64, std::byte{'x'});
  EXPECT_THROW(GrammarArtifact::fromBytes(std::move(garbage)), IoError);
}

// --------------------------------------------------------- config behaviour

TEST(FuzzyConfigTest, LeetMatchingCanBeDisabled) {
  FuzzyConfig cfg = mleConfig();
  cfg.matchLeet = false;
  FuzzyPsm psm(cfg);
  psm.addBaseWord("password");
  const auto p = psm.parse("p@ssw0rd");
  // Without leet matching the trie cannot match; falls back to runs.
  EXPECT_GT(p.segments.size(), 1u);
  EXPECT_FALSE(p.segments[0].fromTrie);
}

TEST(FuzzyConfigTest, CapMatchingCanBeDisabled) {
  FuzzyConfig cfg = mleConfig();
  cfg.matchCapitalization = false;
  FuzzyPsm psm(cfg);
  psm.addBaseWord("password");
  const auto p = psm.parse("Password");
  EXPECT_FALSE(p.segments[0].fromTrie);
}

TEST(FuzzyParse, AdversarialLeetDenseTrieCompletesQuickly) {
  // A trie dense in strings over a leet pair would make the fuzzy DFS
  // branch on every character; the node budget must keep parsing bounded.
  FuzzyPsm psm(mleConfig());
  // All {a,@}-strings of length 6: 64 words, every prefix branches.
  for (int mask = 0; mask < 64; ++mask) {
    std::string w;
    for (int b = 0; b < 6; ++b) w.push_back((mask >> b) & 1 ? '@' : 'a');
    psm.addBaseWord(w);
  }
  const std::string adversarial(64, 'a');
  const auto p = psm.parse(adversarial);  // must not blow up
  std::string rebuilt;
  for (const auto& seg : p.segments) {
    rebuilt += renderSegment(seg.base, seg.capitalized, seg.leetSites,
                             seg.reversed);
  }
  EXPECT_EQ(rebuilt, adversarial);
}

TEST(FuzzyConfigTest, InvalidConfigRejected) {
  FuzzyConfig cfg;
  cfg.minBaseWordLen = 0;
  EXPECT_THROW(FuzzyPsm{cfg}, InvalidArgument);
  FuzzyConfig neg;
  neg.transformationPrior = -1.0;
  EXPECT_THROW(FuzzyPsm{neg}, InvalidArgument);
}

TEST(FuzzyConfigTest, PriorBoundMatchesTheArtifactLoader) {
  // The parser and the loader share validTransformationPrior, so a config
  // FuzzyPsm accepts always compiles to an artifact that loads.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 1e10}) {
    FuzzyConfig cfg;
    cfg.transformationPrior = bad;
    EXPECT_THROW(FuzzyPsm{cfg}, InvalidArgument) << bad;
  }
  FuzzyConfig top;
  top.transformationPrior = 1e9;
  FuzzyPsm psm(top);
  psm.addBaseWord("password");
  psm.update("password1");
  EXPECT_EQ(GrammarArtifact::fromBytes(compileArtifact(psm))
                ->grammar()
                .config()
                .transformationPrior,
            1e9);
}

}  // namespace
}  // namespace fpsm
