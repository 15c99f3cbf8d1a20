#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "artifact/checksum.h"
#include "eval/harness.h"
#include "eval/render.h"
#include "eval/scenario.h"
#include "meters/ideal/ideal.h"
#include "util/error.h"

namespace fpsm {
namespace {

// ---------------------------------------------------------------- scenarios

TEST(Scenarios, TableXiCounts) {
  EXPECT_EQ(idealScenarios().size(), 9u);      // Fig. 13 (a)-(i)
  EXPECT_EQ(realScenarios().size(), 7u);       // Fig. 13 (j)-(p)
  EXPECT_EQ(crossLanguageScenarios().size(), 2u);  // Fig. 13 (q)-(r)
  EXPECT_EQ(allScenarios().size(), 18u);
}

TEST(Scenarios, BaseDictionariesAreWeakestServices) {
  for (const auto& s : allScenarios()) {
    EXPECT_TRUE(s.baseService == "Rockyou" || s.baseService == "Tianya")
        << s.id;
  }
  // Ideal scenarios have no external training service.
  for (const auto& s : idealScenarios()) {
    EXPECT_TRUE(s.trainService.empty());
  }
  // Real scenarios train on Phpbb (English) or Weibo (Chinese) — the
  // moderate-strength services of Table XI.
  for (const auto& s : realScenarios()) {
    EXPECT_TRUE(s.trainService == "Phpbb" || s.trainService == "Weibo")
        << s.id;
  }
}

TEST(Scenarios, CrossLanguagePairsMatchPaper) {
  const auto xs = crossLanguageScenarios();
  EXPECT_EQ(xs[0].trainService, "Phpbb");   // English training ...
  EXPECT_EQ(xs[0].testService, "Dodonew");  // ... Chinese testing
  EXPECT_EQ(xs[1].trainService, "Weibo");
  EXPECT_EQ(xs[1].testService, "Yahoo");
}

// ------------------------------------------------------------------ harness

HarnessConfig tinyConfig() {
  HarnessConfig cfg;
  cfg.scale = 0.0005;
  cfg.minAccounts = 2000;
  cfg.chineseUsers = 8000;
  cfg.englishUsers = 8000;
  cfg.curvePoints = 6;
  cfg.computeSpearman = true;
  return cfg;
}

TEST(Harness, DatasetsAreCachedAndDeterministic) {
  EvalHarness h(tinyConfig());
  const Dataset& a = h.dataset("Yahoo");
  const Dataset& b = h.dataset("Yahoo");
  EXPECT_EQ(&a, &b);  // cached, not regenerated
  EXPECT_GE(a.total(), 2000u);

  EvalHarness h2(tinyConfig());
  EXPECT_EQ(h2.dataset("Yahoo").total(), a.total());
}

TEST(Harness, QuartersPartitionTheDataset) {
  EvalHarness h(tinyConfig());
  const auto& q = h.quarters("Phpbb");
  ASSERT_EQ(q.size(), 4u);
  std::uint64_t sum = 0;
  for (const auto& part : q) sum += part.total();
  EXPECT_EQ(sum, h.dataset("Phpbb").total());
}

TEST(Harness, RunProducesSixMeterCurves) {
  EvalHarness h(tinyConfig());
  const auto result = h.run(idealScenarios()[0]);  // ideal:Phpbb
  ASSERT_EQ(result.curves.size(), 6u);
  EXPECT_EQ(result.curves[0].meter, "fuzzyPSM");
  EXPECT_EQ(result.curves[1].meter, "PCFG-PSM");
  EXPECT_GT(result.evaluatedPasswords, 100u);
  for (const auto& c : result.curves) {
    ASSERT_FALSE(c.kendall.empty()) << c.meter;
    ASSERT_EQ(c.spearman.size(), c.kendall.size()) << c.meter;
    for (const auto& p : c.kendall) {
      EXPECT_GE(p.value, -1.0);
      EXPECT_LE(p.value, 1.0);
      EXPECT_TRUE(std::isfinite(p.value));
    }
    // Prefix sizes ascend.
    for (std::size_t i = 1; i < c.kendall.size(); ++i) {
      EXPECT_GT(c.kendall[i].k, c.kendall[i - 1].k);
    }
  }
}

TEST(Harness, AcademicMetersBeatNistOnFullRange) {
  // The paper's most robust qualitative finding: the rule-based NIST meter
  // trails the trained probabilistic meters.
  EvalHarness h(tinyConfig());
  const auto result = h.run(idealScenarios()[5]);  // ideal:Weibo
  const auto last = [](const MeterCurve& c) {
    return c.kendall.back().value;
  };
  const double fuzzy = last(result.curves[0]);
  const double pcfg = last(result.curves[1]);
  const double nist = last(result.curves[5]);
  EXPECT_GT(fuzzy, nist);
  EXPECT_GT(pcfg, nist);
}

TEST(Harness, ScenarioRunIsDeterministic) {
  // Guards the parallel scoring path: identical configs must yield
  // bit-identical correlation curves run to run.
  auto runOnce = [] {
    EvalHarness h(tinyConfig());
    return h.run(idealScenarios()[3]);  // ideal:Singles
  };
  const auto a = runOnce();
  const auto b = runOnce();
  ASSERT_EQ(a.curves.size(), b.curves.size());
  for (std::size_t m = 0; m < a.curves.size(); ++m) {
    ASSERT_EQ(a.curves[m].kendall.size(), b.curves[m].kendall.size());
    for (std::size_t i = 0; i < a.curves[m].kendall.size(); ++i) {
      EXPECT_EQ(a.curves[m].kendall[i].value, b.curves[m].kendall[i].value);
    }
  }
}

TEST(Harness, IdealMeterSelfCorrelationIsPerfect) {
  // Sanity check of the evaluation plumbing itself: correlating the ideal
  // meter against its own benchmark must give tau = 1 at every prefix.
  EvalHarness h(tinyConfig());
  const Dataset& test = h.dataset("Faithwriters");
  IdealMeter ideal(test);
  const auto curve = correlationAgainstIdeal(ideal, test, 5, false);
  for (const auto& p : curve.kendall) {
    EXPECT_NEAR(p.value, 1.0, 1e-9) << "k=" << p.k;
  }
}

// ------------------------------------------------------------------- claims

// The paper's league table (EXPERIMENTS.md, "Summary"): all 18 Table XI
// scenarios at scale 0.001 with bench_summary_all's config. It asserts what
// holds at that scale — fuzzyPSM leads and NIST-PSM trails both mean-tau
// aggregates — and pins every Kendall tau point of every curve by an xxh64
// over their bit patterns. A change that moves the digest on purpose
// re-records it and says why.
TEST(Claims, TableXiLeague) {
  HarnessConfig cfg;
  cfg.scale = 0.001;
  cfg.chineseUsers = 100000;
  cfg.englishUsers = 100000;
  cfg.computeSpearman = false;
  EvalHarness harness(cfg);

  std::vector<std::string> meters;
  std::vector<double> headSum;
  std::vector<double> fullSum;
  std::vector<std::uint64_t> tauBits;
  for (const Scenario& sc : allScenarios()) {
    const ScenarioResult r = harness.run(sc);
    // The weak head is the last curve point within the reliable (f >= 4)
    // prefix, as bench_summary_all and renderScenarioSummary pick it.
    std::size_t head = 0;
    const auto& pts = r.curves.front().kendall;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (pts[i].k <= std::max<std::size_t>(r.reliableCount, 10)) head = i;
    }
    if (meters.empty()) {
      for (const MeterCurve& c : r.curves) meters.push_back(c.meter);
      headSum.assign(meters.size(), 0.0);
      fullSum.assign(meters.size(), 0.0);
    }
    ASSERT_EQ(r.curves.size(), meters.size()) << sc.id;
    for (std::size_t m = 0; m < r.curves.size(); ++m) {
      ASSERT_EQ(r.curves[m].meter, meters[m]) << sc.id;
      headSum[m] += r.curves[m].kendall[head].value;
      fullSum[m] += r.curves[m].kendall.back().value;
      for (const CurvePoint& p : r.curves[m].kendall) {
        tauBits.push_back(std::bit_cast<std::uint64_t>(p.value));
      }
    }
  }

  const auto nameOf = [&](const std::vector<double>& sums, bool best) {
    const auto it = best ? std::max_element(sums.begin(), sums.end())
                         : std::min_element(sums.begin(), sums.end());
    return meters[static_cast<std::size_t>(it - sums.begin())];
  };
  EXPECT_EQ(nameOf(headSum, true), "fuzzyPSM");
  EXPECT_EQ(nameOf(fullSum, true), "fuzzyPSM");
  EXPECT_EQ(nameOf(headSum, false), "NIST-PSM");
  EXPECT_EQ(nameOf(fullSum, false), "NIST-PSM");

  EXPECT_EQ(xxhash64(tauBits.data(), tauBits.size() * sizeof(std::uint64_t)),
            0xbeb6e6702309dd12ULL)
      << "Kendall tau digest over " << tauBits.size() << " points";
}

TEST(Harness, CorrelationRequiresEnoughPasswords) {
  Dataset tiny;
  tiny.add("only", 1);
  IdealMeter ideal(tiny);
  EXPECT_THROW(correlationAgainstIdeal(ideal, tiny, 3, false),
               InvalidArgument);
}

// ------------------------------------------------------------------- render

TEST(Render, ScenarioTablesContainMetersAndKs) {
  EvalHarness h(tinyConfig());
  const auto result = h.run(idealScenarios()[4]);  // ideal:Faithwriters
  const std::string kendall = renderScenarioResult(result, true);
  EXPECT_NE(kendall.find("fuzzyPSM"), std::string::npos);
  EXPECT_NE(kendall.find("Kendall"), std::string::npos);
  const std::string spearman = renderScenarioResult(result, false);
  EXPECT_NE(spearman.find("Spearman"), std::string::npos);
  const std::string summary = renderScenarioSummary(result);
  EXPECT_NE(summary.find("leader"), std::string::npos);
}

TEST(Render, TsvExportRoundTrips) {
  EvalHarness h(tinyConfig());
  const auto result = h.run(idealScenarios()[3]);  // ideal:Singles
  const std::string dir = ::testing::TempDir();
  const std::string path = writeScenarioTsv(result, dir);
  EXPECT_NE(path.find("ideal_Singles.tsv"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find("fuzzyPSM"), std::string::npos);
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, result.curves.front().kendall.size());
  EXPECT_THROW(writeScenarioTsv(result, "/nonexistent/dir"), IoError);
}

TEST(Render, DatasetTablesRender) {
  EvalHarness h(tinyConfig());
  const std::vector<const Dataset*> ds = {&h.dataset("Faithwriters"),
                                          &h.dataset("Singles")};
  const std::string top = renderTopTenTable(ds);
  EXPECT_NE(top.find("% top-10"), std::string::npos);
  const std::string comp = renderCompositionTable(ds);
  EXPECT_NE(comp.find("^[0-9]+$"), std::string::npos);
  const std::string len = renderLengthTable(ds);
  EXPECT_NE(len.find(">=15"), std::string::npos);
  const std::string overlap = renderOverlapMatrix(ds, 2);
  EXPECT_NE(overlap.find("Faithwriters"), std::string::npos);
}

}  // namespace
}  // namespace fpsm
