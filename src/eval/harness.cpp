#include "eval/harness.h"

#include <algorithm>
#include <cmath>

#include "artifact/artifact.h"
#include "core/fuzzy_psm.h"
#include "meters/ideal/ideal.h"
#include "meters/keepsm/keepsm.h"
#include "meters/markov/markov.h"
#include "meters/nist/nist.h"
#include "meters/pcfg/pcfg.h"
#include "meters/zxcvbn/zxcvbn.h"
#include "synth/generator.h"
#include "util/error.h"
#include "util/parallel.h"

namespace fpsm {

struct EvalHarness::Impl {
  Impl(const HarnessConfig& cfg)
      : population(cfg.chineseUsers, cfg.englishUsers, cfg.populationSeed),
        generator(population, SurveyModel::paper(), cfg.generatorSeed) {}

  PopulationModel population;
  DatasetGenerator generator;
  StringMap<Dataset> datasets;
  StringMap<std::vector<Dataset>> splits;
};

EvalHarness::EvalHarness(HarnessConfig config)
    : config_(config), impl_(std::make_unique<Impl>(config)) {}

EvalHarness::~EvalHarness() = default;

const Dataset& EvalHarness::dataset(const std::string& service) {
  auto it = impl_->datasets.find(service);
  if (it == impl_->datasets.end()) {
    const auto profile = ServiceProfile::byName(service, config_.scale,
                                                config_.minAccounts);
    it = impl_->datasets
             .emplace(service, impl_->generator.generate(profile))
             .first;
  }
  return it->second;
}

const std::vector<Dataset>& EvalHarness::quarters(
    const std::string& service) {
  auto it = impl_->splits.find(service);
  if (it == impl_->splits.end()) {
    StringHash h;
    Rng rng(config_.splitSeed ^ h(service));
    it = impl_->splits.emplace(service, randomSplit(dataset(service), 4, rng))
             .first;
  }
  return it->second;
}

MeterCurve correlationAgainstIdeal(const Meter& meter, const Dataset& test,
                                   std::size_t curvePoints,
                                   bool computeSpearman) {
  // Distinct test passwords in ideal order: descending empirical frequency
  // (deterministic tie-break), i.e. ascending ideal strength.
  const auto order = test.sortedByFrequency();
  if (order.size() < 2) {
    throw InvalidArgument("correlationAgainstIdeal: test set too small");
  }
  std::vector<double> idealBits(order.size());
  std::vector<double> meterBits(order.size());
  const double total = static_cast<double>(test.total());
  // Scoring is const per meter and dominates the harness runtime; shard it.
  parallelFor(order.size(), [&](std::size_t i) {
    idealBits[i] =
        -std::log2(static_cast<double>(order[i].count) / total);
    meterBits[i] = meter.strengthBits(order[i].password);
  });
  const auto ks = logSpacedKs(10, order.size(), curvePoints);
  MeterCurve curve;
  curve.meter = meter.name();
  curve.kendall =
      correlationCurve(idealBits, meterBits, ks, /*useKendall=*/true);
  if (computeSpearman) {
    curve.spearman =
        correlationCurve(idealBits, meterBits, ks, /*useKendall=*/false);
  }
  return curve;
}

ScenarioResult EvalHarness::run(const Scenario& scenario) {
  // --- assemble training and testing corpora per Table XI ---------------
  Dataset train("train:" + scenario.id);
  const Dataset* test = nullptr;
  if (scenario.kind == Scenario::Kind::Ideal) {
    const auto& q = quarters(scenario.testService);
    train.merge(q[0]);
    test = &q[1];
  } else {
    // Real-world / cross-language: similar-service leak + 1/4 of the
    // target; measure the full target.
    train.merge(dataset(scenario.trainService));
    train.merge(quarters(scenario.testService)[0]);
    test = &dataset(scenario.testService);
  }

  // --- train the meters ---------------------------------------------------
  // fuzzyPSM is measured as production serves it: the counted grammar
  // compiled to an artifact and scored through its view.
  FuzzyPsm builder;
  builder.loadBaseDictionary(dataset(scenario.baseService));
  builder.train(train);
  const auto artifact = GrammarArtifact::fromBytes(compileArtifact(builder));
  const FlatGrammarView& fuzzy = artifact->grammar();

  PcfgModel pcfg;
  pcfg.train(train);

  MarkovConfig mcfg;
  mcfg.order = config_.markovOrder;
  MarkovModel markov(mcfg);
  markov.train(train);

  ZxcvbnMeter zxcvbn;
  KeepsmMeter keepsm;
  NistMeter nist;

  // --- evaluate ------------------------------------------------------------
  ScenarioResult result;
  result.scenario = scenario;
  result.evaluatedPasswords = test->unique();
  test->forEach([&](std::string_view, std::uint64_t c) {
    if (c >= IdealMeter::kReliableFrequency) ++result.reliableCount;
  });

  const Meter* meters[] = {&fuzzy, &pcfg, &markov, &zxcvbn, &keepsm, &nist};
  for (const Meter* m : meters) {
    result.curves.push_back(correlationAgainstIdeal(
        *m, *test, config_.curvePoints, config_.computeSpearman));
  }
  return result;
}

}  // namespace fpsm
