// Table II: guess numbers given by each PSM for typically weak passwords
// (CSDN 1/4 training, another 1/4 as the ideal benchmark).
//
// Paper shape: the probabilistic meters place these passwords within a few
// orders of magnitude of the ideal guess number; fuzzyPSM is closest
// overall. Exemplars that the synthetic corpus never produced are marked
// absent (see DESIGN.md on corpus substitution).
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "meters/ideal/ideal.h"
#include "meters/markov/markov.h"
#include "meters/pcfg/pcfg.h"
#include "model/montecarlo.h"
#include "util/format.h"

using namespace fpsm;

namespace {

std::string fmtGuess(double g) {
  if (g <= 0 || !std::isfinite(g)) return "-";
  if (g >= 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1e", g);
    return buf;
  }
  return fmtCount(static_cast<std::uint64_t>(g));
}

}  // namespace

int main(int argc, char** argv) {
  const auto cfg = bench::defaultConfig(argc, argv);
  bench::printHeader("Table II: guess numbers for weak passwords (CSDN)",
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

  Rng rng(13);
  constexpr std::size_t kSamples = 30000;
  const MonteCarloEstimator mcPcfg(pcfg, kSamples, rng);
  const MonteCarloEstimator mcMarkov(markov, kSamples, rng);
  const MonteCarloEstimator mcFuzzy(fuzzy, kSamples, rng);

  // The paper's six exemplars, plus corpus-native weak passwords drawn
  // from the test ranking so every run has rows with a live ideal
  // benchmark (the scaled synthetic corpus cannot contain every English
  // exemplar; see DESIGN.md).
  std::vector<std::string> exemplars = {
      "123qwe",      "123qwe123qwe", "password123",
      "Password123", "password",     "p@ssw0rd"};
  {
    const auto sorted = test.sortedByFrequency();
    for (const std::size_t rank : {std::size_t{1}, std::size_t{10},
                                   std::size_t{100}, std::size_t{1000}}) {
      if (rank - 1 < sorted.size()) {
        exemplars.push_back(sorted[rank - 1].password);
      }
    }
  }

  TextTable table({"Typical password", "f(train)", "Ideal PSM", "PCFG PSM",
                   "Markov PSM", "fuzzyPSM"});
  for (const auto& pw : exemplars) {
    const std::uint64_t ftrain = train.frequency(pw);
    const std::uint64_t idealRank = ideal.guessNumber(pw);
    table.addRow({pw, ftrain == 0 ? "absent" : fmtCount(ftrain),
                  idealRank == 0 ? "absent"
                                 : fmtCount(idealRank),
                  fmtGuess(mcPcfg.guessNumber(pcfg.log2Prob(pw))),
                  fmtGuess(mcMarkov.guessNumber(markov.log2Prob(pw))),
                  fmtGuess(mcFuzzy.guessNumber(fuzzy.log2Prob(pw)))});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nModel guess numbers are Monte Carlo estimates (%zu samples); "
      "'absent' = the synthetic corpus never produced the string; model "
      "columns showing the Monte Carlo ceiling (~%s) mean probability "
      "zero.\n",
      kSamples,
      fmtCount(static_cast<std::uint64_t>(mcPcfg.guessNumberCeiling()))
          .c_str());
  return 0;
}
