#include "fleet.h"

#include <algorithm>
#include <bit>
#include <thread>

#include "corpus/io.h"
#include "online/generation_log.h"
#include "process.h"
#include "trace.h"
#include "util/rng.h"

namespace fs = std::filesystem;

namespace fpsm::suite {

HarnessConfig harnessConfig(const Options& opts) {
  HarnessConfig cfg;
  cfg.scale = opts.smoke ? 0.0005 : 0.002;
  cfg.chineseUsers = opts.smoke ? 10000 : 40000;
  cfg.englishUsers = cfg.chineseUsers;
  cfg.populationSeed = deriveSeed(opts.seed, 1);
  cfg.generatorSeed = deriveSeed(opts.seed, 2);
  cfg.splitSeed = deriveSeed(opts.seed, 3);
  return cfg;
}

TenantInputs::TenantInputs(const Options& opts, std::vector<TenantSpec> specs,
                           std::size_t poolSize)
    : opts_(opts), specs_(std::move(specs)), harness_(harnessConfig(opts)) {
  const std::string dir = opts.workDir + "/inputs";
  fs::create_directories(dir);
  std::map<std::string, std::string> written;  // file name -> path
  auto corpusFile = [&](const std::string& name, const Dataset& ds) {
    auto [it, fresh] = written.try_emplace(name, dir + "/" + name + ".txt");
    if (fresh) saveDatasetFile(ds, it->second);
    return it->second;
  };
  Rng rng(deriveSeed(opts.seed, 4));
  for (const TenantSpec& t : specs_) {
    basePaths_.push_back(
        corpusFile("base-" + t.baseService, harness_.dataset(t.baseService)));
    const std::vector<Dataset>& quarters = harness_.quarters(t.trainService);
    trainPaths_.push_back(corpusFile("train-" + t.trainService, quarters[0]));

    std::vector<const std::string*> forms;
    std::vector<double> weights;
    for (std::size_t q = 1; q < quarters.size(); ++q) {
      for (const Dataset::Entry& e : quarters[q].sortedByFrequency()) {
        forms.push_back(&e.password);
        weights.push_back(static_cast<double>(e.count));
      }
    }
    const DiscreteSampler byOccurrence(weights);
    std::vector<std::string>& pool = pools_.emplace_back();
    pool.reserve(poolSize);
    for (std::size_t i = 0; i < poolSize; ++i) {
      pool.push_back(*forms[byOccurrence(rng)]);
    }
  }
}

std::size_t TenantInputs::indexOf(const std::string& id) const {
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].id == id) return i;
  }
  throw std::logic_error("unknown tenant " + id);
}

std::vector<std::string> TenantInputs::trainCommand(
    std::size_t tenant, const std::string& out) const {
  return {opts_.fuzzypsm,      "train",   "--base", basePaths_[tenant],
          "--training",        trainPaths_[tenant], "--threads", "1",
          "--out",             out};
}

Fleet registerFleet(const std::string& dir, const std::vector<std::string>& ids,
                    std::vector<std::string> artifactPaths,
                    FleetOptions options) {
  std::vector<std::string> artifacts;
  std::size_t largest = 0;
  for (const std::string& path : artifactPaths) {
    largest = std::max(largest, artifacts.emplace_back(readFile(path)).size());
  }
  Fleet fleet;
  fleet.root = dir + "/registry";
  fleet.artifactPaths = std::move(artifactPaths);
  GrammarRegistryConfig config;
  config.rootDir = fleet.root;
  config.residentBytesBudget = static_cast<std::uint64_t>(
      options.budgetArtifacts * static_cast<double>(largest));
  config.tenantConfig.compactionThreads = options.compactionThreads;
  fleet.registry = std::make_unique<GrammarRegistry>(config);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Span span("registry.addTenant");
    fleet.registry->addTenant(ids[i], artifacts[i].data(), artifacts[i].size());
  }
  return fleet;
}

Fleet buildFleet(const TenantInputs& inputs, const std::string& dir,
                 FleetOptions options) {
  std::vector<std::string> ids;
  std::vector<std::string> paths;
  std::vector<std::vector<std::string>> commands;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    ids.push_back(inputs.specs()[i].id);
    paths.push_back(dir + "/" + ids.back() + ".fpsmb");
    commands.push_back(inputs.trainCommand(i, paths.back()));
  }
  {
    const Span span("cli.train");
    runCommands(commands, std::max(1u, std::thread::hardware_concurrency()));
  }
  return registerFleet(dir, ids, std::move(paths), options);
}

void GenerationOracle::serving(const std::string& tenant,
                               std::uint64_t generation,
                               std::uint64_t sequence) {
  const MutexLock lock(mutex_);
  sequences_[{tenant, generation}] = sequence;
}

void GenerationOracle::compacted(
    const std::string& tenant, const OnlineUpdater::CompactionResult& result) {
  if (result.published) serving(tenant, result.generation, result.sequence);
}

void GenerationOracle::sample(const std::string& tenant, std::string_view pw,
                              const TenantMeter::Score& score) {
  const MutexLock lock(mutex_);
  samples_.push_back(
      Sample{tenant, std::string(pw), score.generation, score.bits});
}

std::size_t GenerationOracle::verify(Tally& tally) {
  const MutexLock lock(mutex_);
  std::map<std::pair<std::string, std::uint64_t>,
           std::shared_ptr<const GrammarArtifact>>
      opened;
  for (const Sample& s : samples_) {
    const auto seq = sequences_.find({s.tenant, s.generation});
    if (seq == sequences_.end()) {
      tally.fail(s.tenant + ": no log sequence recorded for generation " +
                 std::to_string(s.generation));
      continue;
    }
    auto& artifact = opened[{s.tenant, seq->second}];
    if (!artifact) {
      artifact = GrammarArtifact::open(
          root_ + "/" + s.tenant + "/" + GenerationLog::fileNameFor(seq->second));
    }
    const double expected = artifact->grammar().strengthBits(s.pw);
    if (!sameBits(expected, s.bits)) {
      tally.fail(s.tenant + " generation " + std::to_string(s.generation) +
                 ": served " + std::to_string(s.bits) + " bits, artifact says " +
                 std::to_string(expected));
    }
  }
  return samples_.size();
}

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace fpsm::suite
