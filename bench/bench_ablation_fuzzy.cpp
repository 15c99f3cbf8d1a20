// Ablation: fuzzyPSM design choices on the real-world CSDN scenario
// (train = Weibo + 1/4 CSDN, test = full CSDN):
//   - transformation matching on/off (leet, capitalization),
//   - paper's whole-run fallback vs retrying the trie inside runs,
//   - transformation prior (0 = the paper's pure MLE),
//   - base dictionary choice (Tianya = weakest service heuristic, Weibo,
//     or no base dictionary at all -> pure fallback grammar).
#include <cstdio>
#include <functional>

#include "bench_common.h"
#include "artifact/artifact.h"
#include "core/fuzzy_psm.h"
#include "eval/harness.h"
#include "util/format.h"

using namespace fpsm;

int main(int argc, char** argv) {
  const auto cfg = bench::defaultConfig(argc, argv);
  bench::printHeader("Ablation: fuzzyPSM variants (real-world CSDN)", cfg);
  EvalHarness harness(cfg);

  Dataset train("train");
  train.merge(harness.dataset("Weibo"));
  train.merge(harness.quarters("CSDN")[0]);
  const Dataset& test = harness.dataset("CSDN");

  struct Variant {
    const char* name;
    FuzzyConfig config;
    const char* baseService;  // nullptr = no base dictionary
  };
  FuzzyConfig def;
  FuzzyConfig noLeet = def;
  noLeet.matchLeet = false;
  FuzzyConfig noCap = def;
  noCap.matchCapitalization = false;
  FuzzyConfig retry = def;
  retry.retryTrieInsideRuns = true;
  FuzzyConfig mle = def;
  mle.transformationPrior = 0.0;
  FuzzyConfig longWords = def;
  longWords.minBaseWordLen = 5;
  FuzzyConfig withReverse = def;
  withReverse.matchReverse = true;

  const Variant variants[] = {
      {"default (base=Tianya)", def, "Tianya"},
      {"no leet matching", noLeet, "Tianya"},
      {"no capitalization matching", noCap, "Tianya"},
      {"retry trie inside runs", retry, "Tianya"},
      {"prior=0 (paper MLE)", mle, "Tianya"},
      {"minBaseWordLen=5", longWords, "Tianya"},
      {"+ reverse rule (future work)", withReverse, "Tianya"},
      {"base=Weibo", def, "Weibo"},
      {"base=Rockyou (wrong language)", def, "Rockyou"},
      {"no base dictionary", def, nullptr},
  };

  TextTable table({"variant", "tau @ weak head", "tau @ full"});
  for (const auto& v : variants) {
    FuzzyPsm psm(v.config);
    if (v.baseService != nullptr) {
      psm.loadBaseDictionary(harness.dataset(v.baseService));
    }
    psm.train(train);
    const auto artifact = GrammarArtifact::fromBytes(compileArtifact(psm));
    const auto curve =
        correlationAgainstIdeal(artifact->grammar(), test, 8, false);
    std::size_t headIdx = 0;
    for (std::size_t i = 0; i < curve.kendall.size(); ++i) {
      if (curve.kendall[i].k <= 200) headIdx = i;
    }
    table.addRow({v.name,
                  fmtDouble(curve.kendall[headIdx].value, 3) + " (k=" +
                      fmtCount(curve.kendall[headIdx].k) + ")",
                  fmtDouble(curve.kendall.back().value, 3) + " (k=" +
                      fmtCount(curve.kendall.back().k) + ")"});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}
