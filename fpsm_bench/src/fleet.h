// Tenants, their inputs, and the checks on what the registry served.
//
// A tenant is one site's grammar: a base dictionary from one service's
// leak and training passwords from another's (the paper's Table XI
// pairings). Its inputs come from EvalHarness with population, generator
// and split seeds derived from the run seed: the base corpus and the first
// quarter of the training service are written to disk for `fuzzypsm
// train`; the other three quarters are the test passwords that requests
// draw from, by occurrence.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "artifact/artifact.h"
#include "common.h"
#include "eval/harness.h"
#include "registry/grammar_registry.h"
#include "util/mutex.h"

namespace fpsm::suite {

struct TenantSpec {
  std::string id;
  std::string baseService;
  std::string trainService;
};

class TenantInputs {
 public:
  /// Generates the corpora for `specs` and writes them under
  /// opts.workDir/inputs. `poolSize` requests are drawn per tenant.
  TenantInputs(const Options& opts, std::vector<TenantSpec> specs,
               std::size_t poolSize);

  const std::vector<TenantSpec>& specs() const { return specs_; }
  std::size_t size() const { return specs_.size(); }
  std::size_t indexOf(const std::string& id) const;

  /// Test passwords drawn by occurrence: the tenant's request pool.
  const std::vector<std::string>& pool(std::size_t tenant) const {
    return pools_[tenant];
  }
  const std::string& trainingPath(std::size_t tenant) const {
    return trainPaths_[tenant];
  }
  /// The `fuzzypsm train` command that compiles tenant `i` to `out`.
  std::vector<std::string> trainCommand(std::size_t tenant,
                                        const std::string& out) const;

  EvalHarness& harness() { return harness_; }

 private:
  const Options& opts_;
  std::vector<TenantSpec> specs_;
  EvalHarness harness_;
  std::vector<std::string> basePaths_;
  std::vector<std::string> trainPaths_;
  std::vector<std::vector<std::string>> pools_;
};

/// EvalHarness settings for a run: fixed scale, seeds derived from --seed.
HarnessConfig harnessConfig(const Options& opts);

/// A registry with every tenant trained by the CLI and registered.
struct Fleet {
  std::unique_ptr<GrammarRegistry> registry;
  std::string root;
  std::vector<std::string> artifactPaths;  ///< generation 1 of each tenant
};

/// How a workload deploys its registry.
struct FleetOptions {
  /// Resident-bytes budget in sizes of the largest artifact; 0 = unlimited.
  /// Artifacts differ in size by well under a third, so a budget of n
  /// largest artifacts always holds exactly n tenants, whichever they are.
  double budgetArtifacts = 0.0;
  /// Threads each tenant's compaction parses with; 0 = automatic.
  unsigned compactionThreads = 0;
};

/// Registers each artifact file under its id in a fresh registry rooted at
/// dir/registry. Nothing is loaded.
Fleet registerFleet(const std::string& dir, const std::vector<std::string>& ids,
                    std::vector<std::string> artifactPaths,
                    FleetOptions options = {});

/// Trains every tenant into `dir`, up to nproc `fuzzypsm train` processes
/// at once, then registers them as registerFleet does.
Fleet buildFleet(const TenantInputs& inputs, const std::string& dir,
                 FleetOptions options = {});

/// Runs `setUp` opts.setupRepeats() times, each in a fresh directory under
/// opts.workDir, and returns the median wall time in seconds. Before each
/// repeat but the first, `tearDown` drops the previous set-up's state
/// (untimed) and its directory is removed; the last set-up is kept.
template <typename TearDown, typename SetUp>
double timeSetups(const Options& opts, TearDown&& tearDown, SetUp&& setUp);

/// Re-scores sampled requests against the artifact of the generation the
/// registry said served them. Loads and compactions report which log
/// sequence each (tenant, generation) pair serves; samples are checked
/// after the run, when all of them are known.
class GenerationOracle {
 public:
  explicit GenerationOracle(std::string registryRoot)
      : root_(std::move(registryRoot)) {}

  /// `tenant` serves log `sequence` as `generation`.
  void serving(const std::string& tenant, std::uint64_t generation,
               std::uint64_t sequence) FPSM_EXCLUDES(mutex_);
  /// Records one compaction's outcome (no-op unless it published).
  void compacted(const std::string& tenant,
                 const OnlineUpdater::CompactionResult& result)
      FPSM_EXCLUDES(mutex_);
  /// Keeps one served score for checking.
  void sample(const std::string& tenant, std::string_view pw,
              const TenantMeter::Score& score) FPSM_EXCLUDES(mutex_);

  /// Checks every sample; each mismatch or unmapped generation is a
  /// failure in `tally`. Returns the number of samples checked.
  std::size_t verify(Tally& tally) FPSM_EXCLUDES(mutex_);

 private:
  struct Sample {
    std::string tenant;
    std::string pw;
    std::uint64_t generation;
    double bits;
  };
  const std::string root_;
  Mutex mutex_;
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> sequences_
      FPSM_GUARDED_BY(mutex_);
  std::vector<Sample> samples_ FPSM_GUARDED_BY(mutex_);
};

/// True when two scores are the same double, bit for bit.
bool sameBits(double a, double b);

// --- template definitions ----------------------------------------------------

template <typename TearDown, typename SetUp>
double timeSetups(const Options& opts, TearDown&& tearDown, SetUp&& setUp) {
  std::vector<double> seconds;
  std::string previous;
  for (int r = 0; r < opts.setupRepeats(); ++r) {
    if (!previous.empty()) {
      tearDown();
      std::filesystem::remove_all(previous);
    }
    previous = opts.workDir + "/setup-" + std::to_string(r);
    std::filesystem::create_directories(previous);
    const std::uint64_t t0 = nowNs();
    setUp(previous);
    seconds.push_back(secondsSince(t0));
  }
  return median(seconds);
}

}  // namespace fpsm::suite
