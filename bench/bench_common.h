// Shared configuration for the bench binaries.
//
// Every bench accepts an optional scale argument (fraction of the paper's
// dataset sizes) either as argv[1] or the FPSM_SCALE environment variable,
// so the full-size experiments can be re-run without recompiling:
//   ./bench_fig13_ideal 0.01
// Defaults keep the whole bench suite within a few minutes.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "artifact/artifact.h"
#include "core/fuzzy_psm.h"
#include "eval/harness.h"

namespace fpsm::bench {

inline double scaleFromArgs(int argc, char** argv, double fallback) {
  if (argc > 1) {
    const double v = std::atof(argv[1]);
    if (v > 0.0) return v;
  }
  if (const char* env = std::getenv("FPSM_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return fallback;
}

inline HarnessConfig defaultConfig(int argc, char** argv,
                                   double fallbackScale = 0.004) {
  HarnessConfig cfg;
  cfg.scale = scaleFromArgs(argc, argv, fallbackScale);
  cfg.chineseUsers = 100000;
  cfg.englishUsers = 100000;
  return cfg;
}

/// fuzzyPSM as it is served: `base` loaded as the base dictionary,
/// `training` counted, and the grammar compiled to an artifact whose
/// grammar() view scores, samples and enumerates. Hold the pointer while
/// using the view.
inline std::shared_ptr<const GrammarArtifact> compiledFuzzyPsm(
    const Dataset& base, const Dataset& training) {
  FuzzyPsm builder;
  builder.loadBaseDictionary(base);
  builder.train(training);
  return GrammarArtifact::fromBytes(compileArtifact(builder));
}

inline void printHeader(const char* title, const HarnessConfig& cfg) {
  std::printf("%s\n", title);
  std::printf(
      "synthetic corpora: scale=%g of Table VII sizes, users=%zu zh + %zu "
      "en, seeds pop=%llu gen=%llu split=%llu\n",
      cfg.scale, cfg.chineseUsers, cfg.englishUsers,
      static_cast<unsigned long long>(cfg.populationSeed),
      static_cast<unsigned long long>(cfg.generatorSeed),
      static_cast<unsigned long long>(cfg.splitSeed));
}

}  // namespace fpsm::bench
