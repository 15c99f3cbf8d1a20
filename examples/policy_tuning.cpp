// Policy-tuning walkthrough: sweep the registration gate's strictness and
// print the security/usability trade-off curve — how much of the user
// base an online trawling attacker compromises vs. how often users get
// told "pick another password".
//
// This is the operational question a deployment faces after adopting a
// PSM: where to put the mandatory threshold (paper Sec. II-B distinguishes
// mandatory from suggestive meters).
#include <cstdio>

#include "artifact/artifact.h"
#include "core/fuzzy_psm.h"
#include "eval/defense.h"
#include "synth/generator.h"
#include "util/format.h"

using namespace fpsm;

int main() {
  PopulationModel population(40000, 40000, 2026);
  DatasetGenerator generator(population, SurveyModel::paper(), 11);
  const auto service = ServiceProfile::byName("Yahoo", 0.02);
  const Dataset training =
      generator.generate(ServiceProfile::byName("Phpbb", 0.02));
  const Dataset base =
      generator.generate(ServiceProfile::byName("Rockyou", 0.001));

  FuzzyPsm builder;
  builder.loadBaseDictionary(base);
  builder.train(training);
  const auto artifact = GrammarArtifact::fromBytes(compileArtifact(builder));
  const FlatGrammarView& meter = artifact->grammar();

  std::printf("gate: fuzzyPSM trained on %s; service: %s (%s accounts)\n\n",
              training.name().c_str(), service.name.c_str(),
              fmtCount(service.accounts).c_str());

  TextTable table({"reject percentile", "threshold", "rejected 1st try",
                   "proposals/acct", "online compromise"});
  for (const double percentile : {0.0, 0.05, 0.10, 0.20, 0.35, 0.50}) {
    DefenseConfig cfg;
    cfg.accounts = 30000;
    cfg.onlineBudget = 300;  // ~1% of accounts: scaled Table I pressure
    cfg.rejectPercentile = percentile == 0.0 ? 0.001 : percentile;
    const auto r =
        simulateDefense(percentile == 0.0 ? nullptr : &meter, generator,
                        population, service, training, cfg);
    table.addRow({percentile == 0.0 ? "(no gate)" : fmtPercent(percentile, 0),
                  percentile == 0.0 ? "-" : fmtDouble(r.threshold, 1) + " bits",
                  fmtPercent(r.rejectionRate),
                  fmtDouble(r.meanProposals, 2),
                  fmtPercent(r.compromisedOnline)});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nReading the curve: each extra percentile of rejections buys less "
      "security — pick the knee. The gate cannot push compromise to zero "
      "because it only sees individual choices, not the emerging "
      "distribution (which is why the update phase matters).\n");
  return 0;
}
