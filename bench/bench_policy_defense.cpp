// Policy-defense comparison: deploy each meter as a mandatory registration
// gate, all calibrated to reject the same fraction of attempts, then
// attack the resulting password distribution with a perfect-knowledge
// trawling attacker (Table I online budget). The meter that best
// recognizes *popular* passwords pushes users off the head and shrinks
// the attacker's take — this quantifies the paper's premise that
// "preventing weak passwords is the primary goal of any PSM".
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "eval/defense.h"
#include "meters/keepsm/keepsm.h"
#include "meters/markov/markov.h"
#include "meters/nist/nist.h"
#include "meters/pcfg/pcfg.h"
#include "meters/zxcvbn/zxcvbn.h"
#include "util/format.h"

using namespace fpsm;

int main(int argc, char** argv) {
  const auto cfg = bench::defaultConfig(argc, argv);
  bench::printHeader(
      "Policy defense: meters as registration gates (Yahoo service)", cfg);

  PopulationModel population(cfg.chineseUsers, cfg.englishUsers,
                             cfg.populationSeed);
  DatasetGenerator generator(population, SurveyModel::paper(),
                             cfg.generatorSeed);
  const auto service =
      ServiceProfile::byName("Yahoo", cfg.scale, cfg.minAccounts);

  // Train the learned meters on a similar service (the real-world setup).
  const Dataset training =
      generator.generate(ServiceProfile::byName("Phpbb", cfg.scale));
  const Dataset base = generator.generate(
      ServiceProfile::byName("Rockyou", cfg.scale / 10, 3000));

  const auto artifact = bench::compiledFuzzyPsm(base, training);
  const FlatGrammarView& fuzzy = artifact->grammar();
  PcfgModel pcfg;
  pcfg.train(training);
  MarkovModel markov;
  markov.train(training);
  ZxcvbnMeter zxcvbn;
  KeepsmMeter keepsm;
  NistMeter nist;

  DefenseConfig defense;
  defense.accounts = std::max<std::size_t>(service.accounts * 8, 40000);
  // The paper's online budget (10^4 guesses, Table I) is sized against
  // full-scale services; against our scaled corpus the equivalent pressure
  // is ~1% of the account count.
  defense.onlineBudget =
      std::max<std::uint64_t>(50, defense.accounts / 100);

  TextTable table({"gate", "threshold", "rejects 1st try", "gave up",
                   "proposals/acct", "online compromise"});
  const Meter* gates[] = {nullptr, &fuzzy,  &pcfg,
                          &markov, &zxcvbn, &keepsm, &nist};
  for (const Meter* gate : gates) {
    const auto r = simulateDefense(gate, generator, population, service,
                                   training, defense);
    table.addRow({r.meterName,
                  gate == nullptr ? "-" : fmtDouble(r.threshold, 1) + " bits",
                  fmtPercent(r.rejectionRate), fmtPercent(r.gaveUpRate),
                  fmtDouble(r.meanProposals, 2),
                  fmtPercent(r.compromisedOnline)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nAll gates reject the weakest %.0f%% of calibration attempts; the "
      "attacker tries the resulting corpus's own top-%s passwords.\n",
      defense.rejectPercentile * 100,
      fmtCount(defense.onlineBudget).c_str());
  return 0;
}
