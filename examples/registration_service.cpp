// Simulated web-service registration flow with an adaptive fuzzyPSM.
//
// The service trains its meter on a similar service's leak (the paper's
// real-world scenario), then processes a stream of sign-ups:
//   - each candidate password is scored; weak ones (estimated guess number
//     below the online-guessing threshold of Table I, ~10^4, or medium
//     ones below 10^8) get the paper-style feedback buckets;
//   - accepted passwords feed the update phase, so the meter tracks the
//     service's own (shifting) password distribution — watch a once-"good"
//     password degrade to "weak" after it becomes locally popular.
//
// The meter is served the way production serves it: the trained grammar
// is compiled to an artifact, committed as generation 1 of a generation
// log, and OnlineUpdater folds accepted passwords into the next generation
// (src/online). The log lives in a scratch directory removed on exit.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "artifact/artifact.h"
#include "core/fuzzy_psm.h"
#include "model/montecarlo.h"
#include "online/online_updater.h"
#include "synth/generator.h"
#include "util/format.h"

using namespace fpsm;

namespace {

struct Policy {
  double weakBelow = 1e4;    // online trawling threshold (Table I)
  double strongAbove = 1e8;  // offline headroom
};

const char* verdict(double guessNumber, const Policy& policy) {
  if (guessNumber < policy.weakBelow) return "REJECT (weak)";
  if (guessNumber < policy.strongAbove) return "accept (fair)";
  return "accept (strong)";
}

}  // namespace

int main() {
  // --- stand up the service ------------------------------------------------
  PopulationModel population(30000, 30000, /*seed=*/2024);
  DatasetGenerator generator(population, SurveyModel::paper(), 7);
  const Dataset trainingLeak =
      generator.generate(ServiceProfile::byName("Phpbb", 0.01));
  const Dataset baseLeak =
      generator.generate(ServiceProfile::byName("Rockyou", 0.001));

  FuzzyPsm builder;
  builder.loadBaseDictionary(baseLeak);
  builder.train(trainingLeak);
  const std::vector<std::byte> grammar = compileArtifact(builder);

  std::string logDir =
      (std::filesystem::temp_directory_path() / "fpsm-registration-XXXXXX")
          .string();
  if (mkdtemp(logDir.data()) == nullptr) {
    std::perror("mkdtemp");
    return 1;
  }
  const auto meter =
      OnlineUpdater::bootstrap(logDir, grammar.data(), grammar.size());

  // Calibrate probability -> guess number once (Monte Carlo).
  Rng rng(99);
  const MonteCarloEstimator calibration(
      GrammarArtifact::fromBytes(grammar)->grammar(), 20000, rng);
  auto guessNumberOf = [&](const std::string& pw) {
    return calibration.guessNumber(-meter->service().score(pw).bits);
  };
  // The update phase: accept, then compact into the next generation.
  auto accept = [&](const std::string& pw, std::uint64_t n) {
    meter->accept(pw, n);
    meter->compactNow();
  };

  const Policy policy;
  std::printf("registration service up: trained on %s (%s passwords)\n\n",
              trainingLeak.name().c_str(),
              fmtCount(trainingLeak.total()).c_str());

  // --- a day of sign-ups ----------------------------------------------------
  const char* candidates[] = {
      "password",     "password1",  "Summer2024",   "dragonball99",
      "correcthorse", "zQ#9vLp2x!", "letmein123",   "sunshine!",
      "x7kQ-ppL0-wM", "iloveyou2",
  };
  std::printf("%-16s %14s  %s\n", "candidate", "guess number", "decision");
  for (const char* pw : candidates) {
    const double g = guessNumberOf(pw);
    std::printf("%-16s %14s  %s\n", pw,
                g >= 1e12 ? ">1e12" : fmtCount(static_cast<uint64_t>(g)).c_str(),
                verdict(g, policy));
    if (g >= policy.weakBelow) accept(pw, 1);  // the update phase
  }

  // --- adaptivity: a locally fashionable password degrades ------------------
  const std::string fad = "GoTeam2026!";
  std::printf("\nadaptive update phase: \"%s\" becomes locally popular\n",
              fad.c_str());
  std::printf("%8s %14s  %s\n", "sign-ups", "guess number", "decision");
  for (int wave = 0; wave <= 5; ++wave) {
    const double g = guessNumberOf(fad);
    std::printf("%8d %14s  %s\n", wave * 40,
                g >= 1e12 ? ">1e12" : fmtCount(static_cast<uint64_t>(g)).c_str(),
                verdict(g, policy));
    accept(fad, 40);  // 40 more users pick the fad password
  }
  std::printf(
      "\nThe meter reacts to its own acceptance stream — the dynamic "
      "behaviour the paper's update phase provides (Sec. IV-C).\n");
  std::filesystem::remove_all(logDir);
  return 0;
}
