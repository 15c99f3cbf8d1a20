// Table III: number of un-usable guesses produced by the PCFG- and
// Markov-based cracking models among their top-N guesses (CSDN 1/4
// training, tested against another 1/4). fuzzyPSM is included as an
// extension column.
//
// Paper shape: PCFG produces fewer un-usable guesses at small N; the
// relation reverses at large N (which is why Markov cracks more at large
// guess counts while PCFG measures better).
//
// Default checkpoints stop at 10^6 (a few seconds); extend toward the
// paper's 10^7 via the environment (FPSM_MAX_GUESSES=10000000).
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "meters/markov/markov.h"
#include "meters/pcfg/pcfg.h"
#include "model/unusable.h"
#include "util/format.h"
#include "util/timer.h"

using namespace fpsm;

int main(int argc, char** argv) {
  const auto cfg = bench::defaultConfig(argc, argv);
  bench::printHeader("Table III: un-usable guesses (CSDN split)", cfg);
  EvalHarness harness(cfg);
  const auto& quarters = harness.quarters("CSDN");
  const Dataset& train = quarters[0];
  const Dataset& test = quarters[1];

  std::uint64_t maxGuesses = 1000000;
  if (const char* env = std::getenv("FPSM_MAX_GUESSES")) {
    const auto v = std::strtoull(env, nullptr, 10);
    if (v >= 100) maxGuesses = v;
  }
  std::vector<std::uint64_t> checkpoints;
  for (std::uint64_t c = 100; c <= maxGuesses; c *= 10) {
    checkpoints.push_back(c);
  }

  PcfgModel pcfg;
  pcfg.train(train);
  MarkovModel markov;
  markov.train(train);
  const auto artifact = bench::compiledFuzzyPsm(harness.dataset("Tianya"), train);
  const FlatGrammarView& fuzzy = artifact->grammar();

  struct Row {
    const char* name;
    std::vector<UnusableCheckpoint> result;
    double seconds;
  };
  std::vector<Row> rows;
  for (const auto& [name, model] :
       std::initializer_list<std::pair<const char*, const ProbabilisticModel*>>{
           {"PCFG", &pcfg}, {"Markov", &markov}, {"fuzzyPSM", &fuzzy}}) {
    Timer timer;
    rows.push_back({name, unusableGuessAnalysis(*model, test, checkpoints),
                    0.0});
    rows.back().seconds = timer.seconds();
  }

  TextTable table({"Model", "top-N", "un-usable", "cracked uniq",
                   "cracked mass", "coverage"});
  for (const auto& row : rows) {
    for (const auto& cp : row.result) {
      table.addRow(
          {row.name, fmtCount(cp.guesses), fmtCount(cp.unusable),
           fmtCount(cp.crackedUnique), fmtCount(cp.crackedMass),
           fmtPercent(static_cast<double>(cp.crackedMass) /
                      static_cast<double>(test.total()))});
    }
  }
  std::printf("%s", table.render().c_str());
  for (const auto& row : rows) {
    std::printf("%s enumeration: %.2fs\n", row.name, row.seconds);
  }
  return 0;
}
