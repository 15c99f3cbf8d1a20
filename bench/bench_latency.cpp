// Timing claims of the paper (Sec. IV-C), via google-benchmark:
//   - "It takes less than 2ms to measure a password on a common PC"
//     (fuzzyPSM measuring latency; we also time every baseline),
//   - "the training phase ... takes roughly 10*l seconds ... when the
//     training sets are with a size of l millions" (per-password training
//     cost, i.e. ~10us/password on 2016 hardware).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/fuzzy_psm.h"
#include "meters/ideal/ideal.h"
#include "meters/keepsm/keepsm.h"
#include "meters/markov/markov.h"
#include "meters/nist/nist.h"
#include "meters/pcfg/pcfg.h"
#include "meters/zxcvbn/zxcvbn.h"
#include "model/montecarlo.h"

namespace fpsm {
namespace {

/// Shared fixture: a CSDN split with trained meters and a probe list.
struct Setup {
  Setup() {
    HarnessConfig cfg;
    cfg.scale = 0.002;
    cfg.chineseUsers = 50000;
    cfg.englishUsers = 50000;
    EvalHarness harness(cfg);
    const auto& quarters = harness.quarters("CSDN");
    train = quarters[0];
    artifact = bench::compiledFuzzyPsm(harness.dataset("Tianya"), train);
    pcfg.train(train);
    markov.train(train);
    for (const auto& e : quarters[1].sortedByFrequency()) {
      probes.push_back(e.password);
      if (probes.size() >= 2000) break;
    }
  }
  /// fuzzyPSM as it is served: the compiled grammar's view.
  const FlatGrammarView& fuzzy() const { return artifact->grammar(); }

  Dataset train;
  std::shared_ptr<const GrammarArtifact> artifact;
  PcfgModel pcfg;
  MarkovModel markov;
  ZxcvbnMeter zxcvbn;
  KeepsmMeter keepsm;
  NistMeter nist;
  std::vector<std::string> probes;
};

Setup& setup() {
  static Setup s;
  return s;
}

void measureLoop(benchmark::State& state, const Meter& meter) {
  const auto& probes = setup().probes;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(meter.strengthBits(probes[i]));
    i = (i + 1) % probes.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_MeasureFuzzyPsm(benchmark::State& state) {
  measureLoop(state, setup().fuzzy());
}
void BM_MeasurePcfg(benchmark::State& state) {
  measureLoop(state, setup().pcfg);
}
void BM_MeasureMarkov(benchmark::State& state) {
  measureLoop(state, setup().markov);
}
void BM_MeasureZxcvbn(benchmark::State& state) {
  measureLoop(state, setup().zxcvbn);
}
void BM_MeasureKeepsm(benchmark::State& state) {
  measureLoop(state, setup().keepsm);
}
void BM_MeasureNist(benchmark::State& state) {
  measureLoop(state, setup().nist);
}

/// Per-password training cost of fuzzyPSM (the update phase).
void BM_TrainFuzzyPerPassword(benchmark::State& state) {
  const auto& probes = setup().probes;
  FuzzyPsm psm;
  psm.loadBaseDictionary(setup().train);
  std::size_t i = 0;
  for (auto _ : state) {
    psm.update(probes[i]);
    i = (i + 1) % probes.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_TrainMarkovPerPassword(benchmark::State& state) {
  const auto& probes = setup().probes;
  MarkovModel m;
  std::size_t i = 0;
  for (auto _ : state) {
    m.update(probes[i]);
    i = (i + 1) % probes.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_SampleFuzzy(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup().fuzzy().sample(rng));
  }
}

void BM_MonteCarloBuild10k(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    MonteCarloEstimator mc(setup().fuzzy(), 10000, rng);
    benchmark::DoNotOptimize(mc.guessNumberCeiling());
  }
}

BENCHMARK(BM_MeasureFuzzyPsm);
BENCHMARK(BM_MeasurePcfg);
BENCHMARK(BM_MeasureMarkov);
BENCHMARK(BM_MeasureZxcvbn);
BENCHMARK(BM_MeasureKeepsm);
BENCHMARK(BM_MeasureNist);
BENCHMARK(BM_TrainFuzzyPerPassword);
BENCHMARK(BM_TrainMarkovPerPassword);
BENCHMARK(BM_SampleFuzzy);
BENCHMARK(BM_MonteCarloBuild10k)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fpsm

BENCHMARK_MAIN();
