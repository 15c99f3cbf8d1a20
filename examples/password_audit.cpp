// Password-audit tool: score every password of a leak/export file with a
// trained fuzzyPSM, convert probabilities to estimated guess numbers
// (Monte Carlo), and report how much of the user base falls to online
// (10^4 guesses) and offline (10^9) trawling attacks — the attacker model
// of the paper's Table I.
//
// Usage:
//   ./password_audit file.txt        # lines: "password" or "password\tcount"
//   ./password_audit                 # demo: audits a synthetic Yahoo leak
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "artifact/artifact.h"
#include "core/fuzzy_psm.h"
#include "corpus/io.h"
#include "model/montecarlo.h"
#include "synth/generator.h"
#include "util/format.h"

using namespace fpsm;

int main(int argc, char** argv) {
  // --- corpus to audit -----------------------------------------------------
  PopulationModel population(30000, 30000, 2024);
  DatasetGenerator generator(population, SurveyModel::paper(), 7);
  Dataset audited;
  if (argc > 1) {
    audited.setName(argv[1]);
    const LoadStats stats = loadDatasetFile(argv[1], audited);
    std::printf("loaded %s: %s passwords (%s lines rejected)\n", argv[1],
                fmtCount(stats.accepted).c_str(),
                fmtCount(stats.rejected).c_str());
  } else {
    audited = generator.generate(ServiceProfile::byName("Yahoo", 0.01));
    std::printf("no file given - auditing a synthetic %s leak (%s "
                "passwords)\n",
                audited.name().c_str(), fmtCount(audited.total()).c_str());
  }

  // --- attacker model: fuzzyPSM trained on a similar-service leak ----------
  FuzzyPsm builder;
  builder.loadBaseDictionary(
      generator.generate(ServiceProfile::byName("Rockyou", 0.001)));
  builder.train(generator.generate(ServiceProfile::byName("Phpbb", 0.01)));
  const auto artifact = GrammarArtifact::fromBytes(compileArtifact(builder));
  const FlatGrammarView& attacker = artifact->grammar();
  Rng rng(5);
  const MonteCarloEstimator mc(attacker, 20000, rng);

  // --- audit ----------------------------------------------------------------
  const double kOnline = 1e4;   // Table I: online trawling budget
  const double kOffline = 1e9;  // Table I: offline trawling budget
  std::uint64_t online = 0, offline = 0, total = audited.total();
  std::vector<std::pair<double, std::string>> weakest;
  audited.forEach([&](std::string_view pw, std::uint64_t count) {
    const double g = mc.guessNumber(attacker.log2Prob(pw));
    if (g <= kOnline) online += count;
    if (g <= kOffline) offline += count;
    weakest.emplace_back(g, std::string(pw) + "\t" + fmtCount(count));
  });
  std::sort(weakest.begin(), weakest.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });

  std::printf("\naccounts crackable within 10^4 guesses (online):  %s "
              "(%s)\n",
              fmtCount(online).c_str(),
              fmtPercent(static_cast<double>(online) /
                         static_cast<double>(total))
                  .c_str());
  std::printf("accounts crackable within 10^9 guesses (offline): %s (%s)\n",
              fmtCount(offline).c_str(),
              fmtPercent(static_cast<double>(offline) /
                         static_cast<double>(total))
                  .c_str());

  std::printf("\n10 weakest distinct passwords (est. guess number, "
              "password, count):\n");
  for (std::size_t i = 0; i < weakest.size() && i < 10; ++i) {
    std::printf("  %12s  %s\n",
                fmtCount(static_cast<std::uint64_t>(weakest[i].first)).c_str(),
                weakest[i].second.c_str());
  }
  return 0;
}
