#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/correlation.h"
#include "stats/edit_distance.h"
#include "stats/rank.h"
#include "stats/smoothing.h"
#include "stats/zipf.h"
#include "util/error.h"
#include "util/rng.h"

namespace fpsm {
namespace {

// ----------------------------------------------------------------------- rank

TEST(Rank, SimpleRanks) {
  const std::vector<double> v = {30, 10, 20};
  const auto r = averageRanks(v);
  EXPECT_EQ(r, (std::vector<double>{3, 1, 2}));
}

TEST(Rank, TiesGetAveragePositions) {
  const std::vector<double> v = {10, 20, 20, 30};
  const auto r = averageRanks(v);
  EXPECT_EQ(r, (std::vector<double>{1, 2.5, 2.5, 4}));
}

TEST(Rank, AllTied) {
  const std::vector<double> v = {5, 5, 5};
  const auto r = averageRanks(v);
  EXPECT_EQ(r, (std::vector<double>{2, 2, 2}));
}

TEST(Rank, DescendingOrderIsStable) {
  const std::vector<double> v = {1, 3, 3, 2};
  const auto order = descendingOrder(v);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 3, 0}));
}

TEST(Rank, NearestRankPercentileUsesCeilRank) {
  std::vector<double> hundred(100);
  for (std::size_t i = 0; i < hundred.size(); ++i) hundred[i] = i + 1.0;
  EXPECT_EQ(nearestRankPercentile(hundred, 0.99), 99.0);  // not the max
  EXPECT_EQ(nearestRankPercentile(hundred, 0.07), 7.0);   // 0.07*100 > 7
  EXPECT_EQ(nearestRankPercentile(hundred, 1.0), 100.0);
  EXPECT_EQ(nearestRankPercentile(hundred, 0.0), 1.0);
  EXPECT_EQ(nearestRankPercentile(std::vector<double>{5, 9}, 0.5), 5.0);
  EXPECT_EQ(nearestRankPercentile(std::vector<double>{4}, 0.99), 4.0);
  EXPECT_EQ(nearestRankPercentile(std::vector<double>{}, 0.5), 0.0);
}

// ----------------------------------------------------------------- correlation

TEST(Correlation, PearsonPerfect) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> yneg = y;
  std::reverse(yneg.begin(), yneg.end());
  EXPECT_NEAR(pearson(x, yneg), -1.0, 1e-12);
}

TEST(Correlation, PearsonDegenerate) {
  const std::vector<double> x = {1, 1, 1};
  const std::vector<double> y = {1, 2, 3};
  EXPECT_EQ(pearson(x, y), 0.0);
}

TEST(Correlation, SpearmanInvariantUnderMonotoneTransform) {
  const std::vector<double> x = {0.1, 5.0, 2.0, 9.0, 3.3};
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = std::exp(x[i]);
  EXPECT_NEAR(spearmanRho(x, y), 1.0, 1e-12);
}

TEST(Correlation, KendallPerfectAgreementAndReversal) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {10, 20, 30, 40, 50};
  EXPECT_NEAR(kendallTauB(x, y), 1.0, 1e-12);
  std::vector<double> rev = y;
  std::reverse(rev.begin(), rev.end());
  EXPECT_NEAR(kendallTauB(x, rev), -1.0, 1e-12);
}

TEST(Correlation, KendallKnownSmallCase) {
  // Hand-computed: x = 1,2,3; y = 1,3,2 -> pairs: (1,2)C,(1,3)C,(2,3)D
  // tau = (2-1)/3 = 1/3.
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {1, 3, 2};
  EXPECT_NEAR(kendallTauB(x, y), 1.0 / 3.0, 1e-12);
}

TEST(Correlation, KendallAllTiedReturnsZero) {
  const std::vector<double> x = {1, 1, 1};
  const std::vector<double> y = {1, 2, 3};
  EXPECT_EQ(kendallTauB(x, y), 0.0);
}

TEST(Correlation, SizeMismatchThrows) {
  const std::vector<double> x = {1, 2};
  const std::vector<double> y = {1};
  EXPECT_THROW(kendallTauB(x, y), InvalidArgument);
  EXPECT_THROW(spearmanRho(x, y), InvalidArgument);
  EXPECT_THROW(pearson(x, y), InvalidArgument);
}

// Brute-force tau-b reference for the property sweep.
double tauBruteForce(const std::vector<double>& x,
                     const std::vector<double>& y) {
  const std::size_t n = x.size();
  long long concordant = 0, discordant = 0, tieX = 0, tieY = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = x[i] - x[j];
      const double dy = y[i] - y[j];
      if (dx == 0 && dy == 0) continue;
      if (dx == 0) { ++tieX; continue; }
      if (dy == 0) { ++tieY; continue; }
      if ((dx > 0) == (dy > 0)) ++concordant;
      else ++discordant;
    }
  }
  const double p = static_cast<double>(concordant);
  const double q = static_cast<double>(discordant);
  const double denom = std::sqrt((p + q + static_cast<double>(tieY)) *
                                 (p + q + static_cast<double>(tieX)));
  if (denom == 0) return 0.0;
  return (p - q) / denom;
}

class KendallProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KendallProperty, MatchesBruteForceWithTies) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.below(60);
    std::vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Small integer domain forces many ties.
      x[i] = static_cast<double>(rng.below(8));
      y[i] = static_cast<double>(rng.below(8));
    }
    EXPECT_NEAR(kendallTauB(x, y), tauBruteForce(x, y), 1e-10);
  }
}

TEST_P(KendallProperty, SymmetricInArguments) {
  Rng rng(GetParam() + 1000);
  const std::size_t n = 50;
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    y[i] = static_cast<double>(rng.below(5));
  }
  EXPECT_NEAR(kendallTauB(x, y), kendallTauB(y, x), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KendallProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 21, 42));

TEST(Correlation, CurveClampsAndDedups) {
  std::vector<double> ref(100), cand(100);
  Rng rng(4);
  for (std::size_t i = 0; i < 100; ++i) {
    ref[i] = rng.uniform();
    cand[i] = ref[i] + 0.01 * rng.uniform();
  }
  const std::vector<std::size_t> ks = {10, 50, 1000, 2000};
  const auto curve = correlationCurve(ref, cand, ks, /*useKendall=*/true);
  ASSERT_EQ(curve.size(), 3u);  // 1000 and 2000 both clamp to 100
  EXPECT_EQ(curve[0].k, 10u);
  EXPECT_EQ(curve[1].k, 50u);
  EXPECT_EQ(curve[2].k, 100u);
  for (const auto& p : curve) EXPECT_GT(p.value, 0.9);
}

TEST(Correlation, LogSpacedKs) {
  const auto ks = logSpacedKs(10, 10000, 7);
  ASSERT_GE(ks.size(), 2u);
  EXPECT_EQ(ks.front(), 10u);
  EXPECT_EQ(ks.back(), 10000u);
  EXPECT_TRUE(std::is_sorted(ks.begin(), ks.end()));
}

// ------------------------------------------------------------------ smoothing

TEST(Smoothing, AdditiveBasics) {
  // count 2 of total 10, vocab 5, delta 1: (2+1)/(10+5) = 0.2
  EXPECT_NEAR(additiveSmoothed(2, 10, 5, 1.0), 0.2, 1e-12);
  EXPECT_THROW(additiveSmoothed(1, 1, 0), InvalidArgument);
  EXPECT_THROW(additiveSmoothed(1, 1, 2, -0.5), InvalidArgument);
}

TEST(Smoothing, AdditiveNormalizes) {
  // Sum over a closed vocab must be 1.
  const std::vector<std::uint64_t> counts = {3, 0, 7, 1};
  double sum = 0;
  for (auto c : counts) sum += additiveSmoothed(c, 11, counts.size(), 0.7);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Smoothing, GoodTuringAdjustsHeadKeepsTail) {
  // counts: three singletons, two doubletons, one five.
  const std::vector<std::uint64_t> counts = {1, 1, 1, 2, 2, 5};
  GoodTuring gt(counts);
  EXPECT_EQ(gt.total(), 12u);
  EXPECT_NEAR(gt.unseenMass(), 3.0 / 12.0, 1e-12);
  // c*=1: (1+1)*N2/N1 = 2*2/3
  EXPECT_NEAR(gt.adjustedCount(1), 4.0 / 3.0, 1e-12);
  // N3 == 0 -> raw count kept for c=2; c=5 sparse -> raw.
  EXPECT_NEAR(gt.adjustedCount(2), 2.0, 1e-12);
  EXPECT_NEAR(gt.adjustedCount(5), 5.0, 1e-12);
  EXPECT_EQ(gt.adjustedCount(0), 0.0);
}

TEST(Smoothing, GoodTuringRejectsBadInput) {
  const std::vector<std::uint64_t> zero = {1, 0};
  EXPECT_THROW(GoodTuring{zero}, InvalidArgument);
  const std::vector<std::uint64_t> none;
  EXPECT_THROW(GoodTuring{none}, InvalidArgument);
}

// -------------------------------------------------------------- edit distance

TEST(EditDistance, KnownCases) {
  EXPECT_EQ(editDistance("", ""), 0u);
  EXPECT_EQ(editDistance("abc", ""), 3u);
  EXPECT_EQ(editDistance("", "abc"), 3u);
  EXPECT_EQ(editDistance("abc", "abc"), 0u);
  EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(editDistance("password", "p@ssw0rd"), 2u);
  EXPECT_EQ(editDistance("password", "password1"), 1u);
  EXPECT_EQ(editDistance("abc", "cba"), 2u);
}

class EditDistanceProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EditDistanceProperty, MetricAxioms) {
  Rng rng(GetParam());
  auto randomWord = [&] {
    std::string w;
    const auto len = rng.below(10);
    for (std::uint64_t i = 0; i < len; ++i) {
      w.push_back(static_cast<char>('a' + rng.below(4)));
    }
    return w;
  };
  for (int trial = 0; trial < 30; ++trial) {
    const std::string a = randomWord();
    const std::string b = randomWord();
    const std::string c = randomWord();
    EXPECT_EQ(editDistance(a, b), editDistance(b, a));          // symmetry
    EXPECT_EQ(editDistance(a, a), 0u);                          // identity
    EXPECT_LE(editDistance(a, c),
              editDistance(a, b) + editDistance(b, c));         // triangle
    // Bounded by the longer length.
    EXPECT_LE(editDistance(a, b), std::max(a.size(), b.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistanceProperty,
                         ::testing::Values(3, 14, 159));

// ----------------------------------------------------------------------- zipf

TEST(Zipf, SamplerPrefersLowRanks) {
  Rng rng(8);
  ZipfSampler z(100, 1.0);
  std::vector<int> hits(100, 0);
  for (int i = 0; i < 50000; ++i) ++hits[z(rng)];
  EXPECT_GT(hits[0], hits[9]);
  EXPECT_GT(hits[9], hits[99]);
  // P(rank 0) = 1 / H_100 ~= 0.1928
  EXPECT_NEAR(hits[0] / 50000.0, 0.1928, 0.02);
}

TEST(Zipf, FitRecoversExponent) {
  // Exact power law f(r) = 1e6 / r^0.9
  std::vector<std::uint64_t> freqs;
  for (int r = 1; r <= 500; ++r) {
    freqs.push_back(static_cast<std::uint64_t>(
        1e6 / std::pow(static_cast<double>(r), 0.9)));
  }
  const auto fit = fitZipf(freqs);
  EXPECT_NEAR(fit.exponent, 0.9, 0.02);
  EXPECT_GT(fit.r2, 0.999);
}

TEST(Zipf, FitRejectsTinyInput) {
  const std::vector<std::uint64_t> one = {5};
  EXPECT_THROW(fitZipf(one), InvalidArgument);
}

}  // namespace
}  // namespace fpsm
