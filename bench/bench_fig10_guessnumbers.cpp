// Fig. 10: ideal-meter guess number vs model guess number for the CSDN
// ideal split (1/4 training, 1/4 testing). The paper plots a scatter of
// (ideal guess number, model guess number); we print the log-binned
// geometric means of the model guess numbers plus the rank correlation of
// log guess numbers — the closer to the diagonal (ratio 1, tau 1), the
// better the meter.
//
// Paper shape: PCFG hugs the diagonal tighter than Markov on the weak
// (small-guess-number) head; fuzzyPSM is tightest overall.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "eval/scenario.h"
#include "meters/ideal/ideal.h"
#include "meters/markov/markov.h"
#include "meters/pcfg/pcfg.h"
#include "model/montecarlo.h"
#include "stats/correlation.h"
#include "util/format.h"

using namespace fpsm;

int main(int argc, char** argv) {
  const auto cfg = bench::defaultConfig(argc, argv);
  bench::printHeader(
      "Fig. 10: ideal vs model guess numbers (CSDN 1/4 train, 1/4 test)",
      cfg);
  EvalHarness harness(cfg);
  const auto& quarters = harness.quarters("CSDN");
  const Dataset& train = quarters[0];
  const Dataset& test = quarters[1];

  const auto artifact = bench::compiledFuzzyPsm(harness.dataset("Tianya"), train);
  const FlatGrammarView& fuzzy = artifact->grammar();
  PcfgModel pcfg;
  pcfg.train(train);
  MarkovModel markov;
  markov.train(train);
  IdealMeter ideal(test);

  constexpr std::size_t kSamples = 30000;
  Rng rng(7);
  const MonteCarloEstimator mcPcfg(pcfg, kSamples, rng);
  const MonteCarloEstimator mcMarkov(markov, kSamples, rng);
  const MonteCarloEstimator mcFuzzy(fuzzy, kSamples, rng);

  struct Series {
    const char* name;
    const ProbabilisticModel* model;
    const MonteCarloEstimator* mc;
    std::vector<double> logGuess;
  };
  Series series[] = {{"PCFG-PSM", &pcfg, &mcPcfg, {}},
                     {"Markov-PSM", &markov, &mcMarkov, {}},
                     {"fuzzyPSM", &fuzzy, &mcFuzzy, {}}};

  // Test passwords with f >= 4, in ideal order (descending frequency).
  std::vector<double> logIdeal;
  std::uint64_t rank = 0;
  for (const auto& e : test.sortedByFrequency()) {
    ++rank;
    if (e.count < IdealMeter::kReliableFrequency) break;
    logIdeal.push_back(std::log2(static_cast<double>(rank)));
    for (auto& s : series) {
      const double g = s.mc->guessNumber(s.model->log2Prob(e.password));
      s.logGuess.push_back(std::log2(g));
    }
  }
  std::printf("evaluated %zu reliable (f>=4) test passwords\n\n",
              logIdeal.size());

  // Log-binned geometric mean of model guess number per ideal-rank decade.
  TextTable table({"ideal guess number", "n", "PCFG geo-mean",
                   "Markov geo-mean", "fuzzy geo-mean"});
  const double maxLog = logIdeal.empty() ? 0.0 : logIdeal.back();
  for (double lo = 0.0; lo <= maxLog; lo += 2.0) {
    const double hi = lo + 2.0;
    double sums[3] = {0, 0, 0};
    int n = 0;
    for (std::size_t i = 0; i < logIdeal.size(); ++i) {
      if (logIdeal[i] >= lo && logIdeal[i] < hi) {
        ++n;
        for (int s = 0; s < 3; ++s) sums[s] += series[s].logGuess[i];
      }
    }
    if (n == 0) continue;
    auto geo = [&](int s) {
      return fmtCount(static_cast<std::uint64_t>(
          std::exp2(sums[s] / static_cast<double>(n))));
    };
    table.addRow({"2^" + fmtDouble(lo, 0) + " .. 2^" + fmtDouble(hi, 0),
                  std::to_string(n), geo(0), geo(1), geo(2)});
  }
  std::printf("%s", table.render().c_str());

  TextTable corr({"model", "Kendall tau (log guess numbers vs ideal)"});
  for (auto& s : series) {
    corr.addRow({s.name, fmtDouble(kendallTauB(logIdeal, s.logGuess), 3)});
  }
  std::printf("\n%s", corr.render().c_str());
  return 0;
}
