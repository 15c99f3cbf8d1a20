// Cracking-curve validation (paper Sec. IV-A): "To ensure the correctness
// of our implementations, we used the guesses output by these two PSMs to
// repeat the cracking experiments [of Ma et al. / Wang et al.] and the
// cracking results are in full accord."
//
// This bench runs the same validation: enumerate guesses from the PCFG,
// Markov and fuzzy models (trained on 1/4 CSDN) against the test quarter
// and print the classic cracked-fraction-vs-guess-number curves. Expected
// literature shape: PCFG ahead at small guess counts, Markov closing in /
// overtaking as the guess budget grows (cf. Table III's un-usable-guess
// crossover).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "meters/markov/markov.h"
#include "meters/pcfg/pcfg.h"
#include "util/format.h"

using namespace fpsm;

int main(int argc, char** argv) {
  const auto cfg = bench::defaultConfig(argc, argv);
  bench::printHeader(
      "Cracking validation: cracked mass vs guesses (CSDN split)", cfg);
  EvalHarness harness(cfg);
  const auto& quarters = harness.quarters("CSDN");
  const Dataset& train = quarters[0];
  const Dataset& test = quarters[1];

  PcfgModel pcfg;
  pcfg.train(train);
  MarkovModel markov;
  markov.train(train);
  const auto artifact = bench::compiledFuzzyPsm(harness.dataset("Tianya"), train);
  const FlatGrammarView& fuzzy = artifact->grammar();

  std::vector<std::uint64_t> checkpoints;
  for (std::uint64_t c = 10; c <= 1000000; c *= 10) checkpoints.push_back(c);

  struct Curve {
    const char* name;
    std::vector<double> crackedFraction;
  };
  std::vector<Curve> curves;
  for (const auto& [name, model] :
       std::initializer_list<
           std::pair<const char*, const ProbabilisticModel*>>{
           {"PCFG", &pcfg}, {"Markov", &markov}, {"fuzzyPSM", &fuzzy}}) {
    Curve curve{name, {}};
    std::uint64_t crackedMass = 0;
    std::uint64_t guesses = 0;
    std::size_t next = 0;
    StringSet seen;
    model->enumerateGuesses(
        checkpoints.back(), [&](std::string_view g, double) {
          if (!seen.emplace(g).second) return true;
          ++guesses;
          crackedMass += test.frequency(g);
          while (next < checkpoints.size() &&
                 guesses == checkpoints[next]) {
            curve.crackedFraction.push_back(
                static_cast<double>(crackedMass) /
                static_cast<double>(test.total()));
            ++next;
          }
          return guesses < checkpoints.back();
        });
    while (curve.crackedFraction.size() < checkpoints.size()) {
      curve.crackedFraction.push_back(
          static_cast<double>(crackedMass) /
          static_cast<double>(test.total()));
    }
    curves.push_back(std::move(curve));
  }

  TextTable table({"guesses", "PCFG cracked", "Markov cracked",
                   "fuzzyPSM cracked"});
  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    table.addRow({fmtCount(checkpoints[i]),
                  fmtPercent(curves[0].crackedFraction[i]),
                  fmtPercent(curves[1].crackedFraction[i]),
                  fmtPercent(curves[2].crackedFraction[i])});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nExpected shape (Weir'09 / Ma'14 literature): PCFG leads at small "
      "budgets, Markov catches up as the budget grows.\n");
  return 0;
}
