// Side-by-side comparison of all six meters on a list of passwords.
//
// Usage:
//   ./meter_shootout                 # built-in demo list
//   ./meter_shootout pw1 pw2 ...     # your own candidates
//
// All meters report strength in bits (larger = stronger; probabilistic
// meters report -log2 P, "inf" = the trained model assigns probability 0).
// The trained meters (fuzzyPSM, PCFG, Markov) are trained on a synthetic
// Phpbb-style leak; the rule-based meters need no training.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "artifact/artifact.h"
#include "core/fuzzy_psm.h"
#include "meters/keepsm/keepsm.h"
#include "meters/markov/markov.h"
#include "meters/nist/nist.h"
#include "meters/pcfg/pcfg.h"
#include "meters/zxcvbn/zxcvbn.h"
#include "synth/generator.h"

using namespace fpsm;

int main(int argc, char** argv) {
  std::vector<std::string> passwords;
  for (int i = 1; i < argc; ++i) passwords.emplace_back(argv[i]);
  if (passwords.empty()) {
    passwords = {"password",    "password123", "Password123", "p@ssw0rd",
                 "123456",      "123qwe123qwe", "iloveyou2",  "dragon2015",
                 "Tr0ub4dor&3", "correcthorsebatterystaple",  "zQ#9vLp2x!"};
  }

  // Train the probabilistic meters on a synthetic English leak.
  PopulationModel population(30000, 30000, 2024);
  DatasetGenerator generator(population, SurveyModel::paper(), 7);
  const Dataset training =
      generator.generate(ServiceProfile::byName("Phpbb", 0.01));
  const Dataset base =
      generator.generate(ServiceProfile::byName("Rockyou", 0.001));

  FuzzyPsm builder;
  builder.loadBaseDictionary(base);
  builder.train(training);
  const auto artifact = GrammarArtifact::fromBytes(compileArtifact(builder));
  const FlatGrammarView& fuzzy = artifact->grammar();
  PcfgModel pcfg;
  pcfg.train(training);
  MarkovModel markov;
  markov.train(training);
  ZxcvbnMeter zxcvbn;
  KeepsmMeter keepsm;
  NistMeter nist;

  const Meter* meters[] = {&fuzzy, &pcfg, &markov, &zxcvbn, &keepsm, &nist};

  std::printf("%-28s", "password \\ meter [bits]");
  for (const Meter* m : meters) std::printf(" %10.10s", m->name().c_str());
  std::printf("\n");
  for (const auto& pw : passwords) {
    std::printf("%-28.28s", pw.c_str());
    for (const Meter* m : meters) {
      const double bits = m->strengthBits(pw);
      if (std::isinf(bits)) {
        std::printf(" %10s", "inf");
      } else {
        std::printf(" %10.1f", bits);
      }
    }
    std::printf("\n");
  }
  std::printf(
      "\n'inf' = the trained grammar assigns probability zero (never saw "
      "the structure/segment) - i.e. very strong against this attacker.\n");
  return 0;
}
