// Deep tests of the zxcvbn v1 reimplementation: per-matcher parameterized
// sweeps and scoring-DP behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "meters/zxcvbn/adjacency.h"
#include "meters/zxcvbn/matching.h"
#include "meters/zxcvbn/zxcvbn.h"
#include "util/chars.h"

namespace fpsm {
namespace {

bool hasMatch(const std::vector<ZxMatch>& matches, MatchKind kind,
              std::string_view token) {
  return std::any_of(matches.begin(), matches.end(), [&](const ZxMatch& m) {
    return m.kind == kind && m.token == token;
  });
}

// ----------------------------------------------------------------- spatial

class SpatialWalks : public ::testing::TestWithParam<const char*> {};

TEST_P(SpatialWalks, DetectedAsFullWalkOnSomeGraph) {
  // Several graphs may match (qwerty and keypad both run); at least one
  // must cover the full walk.
  EXPECT_TRUE(hasMatch(matchSpatial(GetParam()), MatchKind::Spatial,
                       GetParam()))
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(CommonWalks, SpatialWalks,
                         ::testing::Values("qwerty", "qwertyuiop", "asdfgh",
                                           "zxcvbn", "14789", "78963",
                                           "poiuy"));

TEST(Spatial, DvorakHomeRowDetected) {
  const auto& g = KeyboardGraph::dvorak();
  EXPECT_TRUE(g.adjacent('a', 'o'));
  EXPECT_TRUE(g.adjacent('e', 'u'));
  EXPECT_FALSE(g.adjacent('a', 's'));  // qwerty neighbours, not dvorak
  EXPECT_TRUE(hasMatch(matchSpatial("aoeuidhtns"), MatchKind::Spatial,
                       "aoeuidhtns"));
}

TEST(Spatial, ColumnWalkSplitsAtTheJump) {
  // "qazwsx" is two physical columns; the walk breaks at z->w.
  const auto matches = matchSpatial("qazwsx");
  EXPECT_TRUE(hasMatch(matches, MatchKind::Spatial, "qaz"));
  EXPECT_TRUE(hasMatch(matches, MatchKind::Spatial, "wsx"));
}

TEST(Spatial, LongerWalksCostMore) {
  const double short3 = matchSpatial("qwe")[0].entropy;
  const double mid6 = matchSpatial("qwerty")[0].entropy;
  const double long10 = matchSpatial("qwertyuiop")[0].entropy;
  EXPECT_LT(short3, mid6);
  EXPECT_LT(mid6, long10);
}

TEST(Spatial, ShiftedWalkCostsMore) {
  const auto plain = matchSpatial("qwerty");
  const auto shifted = matchSpatial("QWErty");
  ASSERT_FALSE(plain.empty());
  ASSERT_FALSE(shifted.empty());
  EXPECT_GT(shifted[0].entropy, plain[0].entropy);
}

// --------------------------------------------------------------- sequences

// Parameters are std::string, not const char*: gtest prints a char pointer
// inside a tuple as its address, which would put an ASLR-dependent value
// into every discovered ctest name.
class SequenceCases
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(SequenceCases, DetectionMatchesExpectation) {
  const auto [pw, expected] = GetParam();
  EXPECT_EQ(!matchSequence(pw).empty(), expected) << pw;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SequenceCases,
    ::testing::Values(std::make_tuple("abc", true),
                      std::make_tuple("cba", true),
                      std::make_tuple("XYZ", true),
                      std::make_tuple("789", true),
                      std::make_tuple("987", true),
                      std::make_tuple("ab", false),    // too short
                      std::make_tuple("aBc", false),   // class break
                      std::make_tuple("acd", false),   // step break at start
                      std::make_tuple("a1b", false)));

TEST(Sequence, ObviousStartsAreCheaper) {
  const double fromA = matchSequence("abcde")[0].entropy;
  const double fromM = matchSequence("mnopq")[0].entropy;
  EXPECT_LT(fromA, fromM);
}

TEST(Sequence, DescendingCostsOneMoreBit) {
  const double asc = matchSequence("defgh")[0].entropy;
  const double desc = matchSequence("hgfed")[0].entropy;
  EXPECT_NEAR(desc - asc, 1.0, 1e-9);
}

// -------------------------------------------------------------------- dates

class SeparatedDates
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(SeparatedDates, DetectionMatchesExpectation) {
  const auto [pw, expected] = GetParam();
  EXPECT_EQ(!matchDateSeparator(pw).empty(), expected) << pw;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SeparatedDates,
    ::testing::Values(std::make_tuple("13.5.1990", true),
                      std::make_tuple("5/13/90", true),
                      std::make_tuple("1990-05-13", true),
                      std::make_tuple("13_05_1990", true),
                      std::make_tuple("13 5 1990", true),
                      std::make_tuple("13.5-1990", false),  // mixed seps
                      std::make_tuple("99.99.99", false),   // no day/month
                      std::make_tuple("13.5", false),       // two groups
                      std::make_tuple("abc", false)));

TEST(Dates, EmbeddedSeparatedDateFound) {
  // Sub-dates like "3.5.1990" may match too; the full form must be there.
  const auto matches = matchDateSeparator("pw13.5.1990x");
  ASSERT_TRUE(hasMatch(matches, MatchKind::Date, "13.5.1990"));
  const auto it = std::find_if(
      matches.begin(), matches.end(),
      [](const ZxMatch& m) { return m.token == "13.5.1990"; });
  EXPECT_EQ(it->i, 2u);
  EXPECT_EQ(it->j, 10u);
}

TEST(Dates, CompactDateGrid) {
  EXPECT_FALSE(matchDate("31121990").empty());  // ddmmyyyy
  EXPECT_FALSE(matchDate("19901231").empty());  // yyyymmdd
  EXPECT_FALSE(matchDate("12251999").empty());  // mmddyyyy
  EXPECT_TRUE(matchDate("99999999").empty());
  EXPECT_TRUE(matchDate("1234").empty());  // too short for a date
}

TEST(Dates, YearRangeBounds) {
  EXPECT_FALSE(matchYear("x1900y").empty());
  EXPECT_FALSE(matchYear("x2029y").empty());
  EXPECT_TRUE(matchYear("x1899y").empty());
  EXPECT_TRUE(matchYear("x2030y").empty());
}

// --------------------------------------------------------------- l33t sweep

class LeetTableSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(LeetTableSweep, DecodesToDictionaryWord) {
  const auto [leet, plain] = GetParam();
  const auto matches = matchL33t(leet, RankedDictionary::embedded());
  const bool found = std::any_of(
      matches.begin(), matches.end(),
      [&, plainView = std::string_view(plain)](const ZxMatch& m) {
        return toLowerCopy(m.token).size() == plainView.size();
      });
  EXPECT_TRUE(found) << leet << " should decode toward " << plain;
}

INSTANTIATE_TEST_SUITE_P(
    Table, LeetTableSweep,
    ::testing::Values(std::make_tuple("p4ssword", "password"),
                      std::make_tuple("p@ssword", "password"),
                      std::make_tuple("dr4gon", "dragon"),
                      std::make_tuple("m0nkey", "monkey"),
                      std::make_tuple("pr1ncess", "princess"),
                      std::make_tuple("$unshine", "sunshine"),
                      std::make_tuple("ba5eball", "baseball"),
                      std::make_tuple("l3tmein", "letmein"),
                      std::make_tuple("6host", "ghost"),
                      std::make_tuple("2ombie", "zombie")));

TEST(Leet, MoreSubstitutionsCostMore) {
  const auto& dict = RankedDictionary::embedded();
  auto entropyOf = [&](std::string_view pw) {
    double best = 1e9;
    for (const auto& m : matchL33t(pw, dict)) {
      if (m.token == pw) best = std::min(best, m.entropy);
    }
    return best;
  };
  EXPECT_LT(entropyOf("passw0rd"), entropyOf("p@ssw0rd"));
}

// ------------------------------------------------------------- scoring DP

TEST(ScoringDp, PicksCheapestCover) {
  ZxcvbnMeter m;
  // "qwerty1990" should decompose into a spatial/dictionary match plus a
  // year, far below the bruteforce cost of 10 [a-z0-9] characters.
  const auto a = m.analyze("qwerty1990");
  EXPECT_LT(a.entropy, 20.0);
  ASSERT_GE(a.cover.size(), 2u);
  // Cover tiles left to right without overlap.
  for (std::size_t i = 1; i < a.cover.size(); ++i) {
    EXPECT_GT(a.cover[i].i, a.cover[i - 1].j);
  }
}

TEST(ScoringDp, BruteforceFloorForRandomStrings) {
  ZxcvbnMeter m;
  // No pattern should fire: entropy == len * log2(26) for lowercase.
  const std::string pw = "qkxvmwzjrp";
  EXPECT_NEAR(m.strengthBits(pw), 10 * std::log2(26.0), 1.0);
}

TEST(ScoringDp, EntropyBoundedByBruteforce) {
  // The DP never exceeds the pure bruteforce cost, and completing a
  // dictionary word can legitimately LOWER the entropy ("drago" ->
  // "dragon"), so no extension monotonicity is asserted.
  ZxcvbnMeter m;
  for (const char* pw :
       {"drago", "dragon", "dragon2015", "password!", "qkxvmwzjrp"}) {
    const double brute = static_cast<double>(std::string_view(pw).size()) *
                         std::log2(bruteforceCardinality(pw));
    EXPECT_LE(m.strengthBits(pw), brute + 1e-9) << pw;
    EXPECT_GE(m.strengthBits(pw), 0.0) << pw;
  }
  EXPECT_LT(m.strengthBits("dragon"), m.strengthBits("drago"));
}

TEST(ScoringDp, SeparatedDateScoredCheaply) {
  ZxcvbnMeter m;
  EXPECT_LT(m.strengthBits("13.5.1990"), 20.0);
  // Same characters shuffled into no pattern cost far more.
  EXPECT_GT(m.strengthBits("3.19.1095."), 25.0);
}

}  // namespace
}  // namespace fpsm
