// The workload interface main.cpp runs, and the per-layer
// replay every workload feeds in the traced run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "obs/metrics.h"
#include "registry/grammar_registry.h"

namespace fpsm::suite {

/// What one measured phase produced. workPerS and opP50Us become the
/// end-to-end metrics every workload reports (see README.md for what each
/// means per workload); `named` keeps the workload's own metrics under
/// their own names for the results file.
struct PhaseResult {
  double workPerS = 0.0;  ///< the workload's unit of work per second
  double opP50Us = 0.0;   ///< median latency of its latency-critical operation
  Metrics named;
  /// Per-layer values only a live phase can observe: the operation's tail,
  /// generator lateness, cache hits, cold loads, the share of time a layer
  /// took.
  Metrics live;
  /// Passwords the phase had parsed (cache misses) and the thread-seconds
  /// its scoring callers had, for artifact.score_share.
  double parses = 0.0;
  double threadSeconds = 0.0;
};

/// Inputs to the rung replay (layers.cpp): which tenant of which live
/// registry, and the workload's own request and update streams.
struct LayerTarget {
  GrammarRegistry* registry = nullptr;
  std::string tenant;
  std::string tenantLogDir;
  bool pinned = false;                ///< re-pinned after the cold-load rung
  std::vector<std::string> sample;    ///< requests in arrival order
  std::vector<std::string> updates;   ///< occurrences for the write rungs
  std::string corpusPath;             ///< training corpus for read/count
};

class Workload {
 public:
  explicit Workload(const Options& opts) : opts_(opts) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the seeded inputs. Untimed.
  virtual void prepare() = 0;
  /// Brings the system from inputs to serving in the fresh directory
  /// `dir`: trains, registers, loads. Timed as setup_s.
  virtual void setUp(const std::string& dir) = 0;
  /// Drops what setUp built.
  virtual void tearDown() = 0;
  /// One warm-up, then one measured phase of `seconds`.
  virtual PhaseResult measure(double seconds) = 0;
  /// Correctness checks that need the whole run; failures go to tally().
  virtual void check() = 0;
  virtual LayerTarget layerTarget() = 0;

  Tally& tally() { return tally_; }

 protected:
  const Options& opts_;
  Tally tally_;
};

std::unique_ptr<Workload> makeRegisterZipf(const Options& opts);
std::unique_ptr<Workload> makeAuditUnique(const Options& opts);
std::unique_ptr<Workload> makeTenantChurn(const Options& opts);
std::unique_ptr<Workload> makeRetrainCompact(const Options& opts);

/// Replays the target's sample down the layers, one rung at a time, and
/// returns every per-layer metric the rungs measure.
Metrics replayLayers(const Options& opts, const LayerTarget& target);

/// Live counts between two obs snapshots: the serving cache's hit ratio
/// and the registry's cold loads and evictions.
Metrics observedCounts(const obs::MetricsSnapshot& before,
                       const obs::MetricsSnapshot& after);

/// The live per-layer metrics, each 0 on a workload that does not
/// exercise it (a closed loop has no generator lag).
Metrics withLiveDefaults(Metrics live);

}  // namespace fpsm::suite
