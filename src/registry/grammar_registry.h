// GrammarRegistry — one meter fleet, many per-site grammars (DESIGN.md §15).
//
// fuzzyPSM's accuracy is grammar-dependent: the paper trains per-site
// grammars from each service's leaked corpus, and bench_fig13_crosslang
// shows a Chinese-trained grammar misranks English passwords (and vice
// versa). The realistic deployment is therefore one process serving N
// tenants, each with its own grammar — which is what this class is.
//
// On disk a registry is a root directory of per-tenant GenerationLogs:
//
//   <root>/<tenant>/MANIFEST
//   <root>/<tenant>/gen-000001.fpsmb
//   <root>/<tenant>/gen-000002.fpsmb ...
//
// Each tenant's full serving unit — TenantMeter (RCU snapshot, score
// cache) plus OnlineUpdater (sharded accept queues, compaction, the
// generation log) — is owned behind a routing table:
//
//   read path    score()/scoreBatch()/update() pin the RCU-published
//                RoutingTable (registry/tenant_route.h, lock-free by
//                fpsm_lint R004), find the tenant, stamp its LRU clock,
//                and run against its unit with no registry lock at all.
//   slow path    a request for a registered-but-cold tenant takes the
//                registry mutex and cold-loads the unit via the tenant's
//                own OnlineUpdater::resume() — walk the GenerationLog
//                newest-first, serve the first generation that passes
//                every gate, zero-copy mmap. The mapped artifact is the
//                unit's whole grammar state, for serving and compaction
//                alike, so a cold load costs an mmap plus log recovery
//                and no compaction ever rebuilds the grammar.
//   eviction     when residentBytesBudget is set, finishing a cold load
//                scans the table for the least-recently-touched tenant
//                that is neither pinned nor busy (compaction in flight)
//                and drops its unit from the table. In-flight readers
//                keep scoring their pinned route until they finish (no
//                serving gap); the next touch reloads from the log. With
//                flushOnEvict, pending accepted updates are compacted
//                into a final generation first, so eviction loses
//                nothing that accept() promised to keep.
//
// Invariants (tested by tests/registry_test.cpp):
//   * Bit-identical scores: a tenant served through the registry scores
//     exactly like a standalone TenantMeter over the same artifact —
//     including after an evict→reload cycle and after a compaction.
//   * No serving gap: concurrent scoreBatch during evict/reload always
//     completes against one consistent snapshot of one generation.
//   * No concurrent writers per log: a unit is only dropped when busy==0
//     (checked and set under the registry mutex), and a tenant is only
//     (re)loaded from inside the same mutex, so two OnlineUpdaters never
//     touch one tenant directory at the same time.
//
// Locking discipline (`tsa` build, DESIGN.md §13): tenants_ is
// FPSM_GUARDED_BY(mutex_); the routing table is an RcuPtr (internally
// annotated); TenantRuntime's flags are atomics written only under
// mutex_ (a protocol the header documents because the capability system
// cannot express "guarded writes, lock-free reads").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "online/online_updater.h"
#include "registry/tenant_route.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/mutex.h"
#include "util/rcu_ptr.h"
#include "util/thread_annotations.h"

namespace fpsm {

/// Thrown when a request names a tenant the registry does not know.
class UnknownTenantError : public InvalidArgument {
 public:
  explicit UnknownTenantError(const std::string& tenant)
      : InvalidArgument("GrammarRegistry: unknown tenant '" + tenant + "'"),
        tenant_(tenant) {}
  const std::string& tenant() const { return tenant_; }

 private:
  std::string tenant_;
};

struct GrammarRegistryConfig {
  /// Per-tenant directory root. Created if absent.
  std::string rootDir;
  /// Resident-bytes budget across all loaded tenants (sum of mmap'd
  /// artifact bytes). 0 = unlimited. The budget is soft in exactly one
  /// case: a single tenant larger than the whole budget still serves
  /// (evicting it on load would livelock the request).
  std::uint64_t residentBytesBudget = 0;
  /// Compact a unit's pending accepted updates into a final generation
  /// before evicting it, so eviction never discards accepted traffic.
  bool flushOnEvict = true;
  /// Per-tenant serving/updater configuration, handed to every unit's
  /// OnlineUpdater::resume(). Units compact only through compactTenant()
  /// and flush-on-evict, where the busy bar makes a compaction visible to
  /// the eviction scan.
  OnlineUpdaterConfig tenantConfig{};
};

class GrammarRegistry {
 public:
  /// Everything the CLI's `tenants list/stats` renders for one tenant.
  struct TenantInfo {
    std::string id;
    std::string directory;
    bool resident = false;
    bool pinned = false;
    std::uint64_t residentBytes = 0;   ///< 0 when cold
    std::uint64_t generation = 0;      ///< serving generation when resident
    std::uint64_t logGenerations = 0;  ///< gen-*.fpsmb files on disk
    std::uint64_t lastTouch = 0;       ///< registry-clock stamp (0 = never)
    std::uint64_t routedScores = 0;
    std::uint64_t routedUpdates = 0;
    std::uint64_t coldLoads = 0;
    std::uint64_t evictions = 0;
    double cacheHitRate = 0.0;  ///< this unit's score cache (0 when cold)
  };

  struct Stats {
    std::uint64_t tenants = 0;          ///< registered tenants
    std::uint64_t resident = 0;         ///< currently loaded tenants
    std::uint64_t residentBytes = 0;    ///< sum of loaded artifact bytes
    std::uint64_t coldLoads = 0;
    std::uint64_t evictions = 0;
    std::uint64_t evictFlushes = 0;     ///< evictions that compacted first
    std::uint64_t routedScores = 0;
    std::uint64_t routedUpdates = 0;
    std::uint64_t unknownTenant = 0;    ///< requests for unknown tenants
  };

  /// Opens (or creates) the registry root and registers every existing
  /// tenant directory (a subdirectory containing a MANIFEST whose name is
  /// a valid tenant id). No tenant is loaded — first touch does that.
  explicit GrammarRegistry(GrammarRegistryConfig config);

  /// Drops every resident unit (flushing per flushOnEvict).
  ~GrammarRegistry();

  GrammarRegistry(const GrammarRegistry&) = delete;
  GrammarRegistry& operator=(const GrammarRegistry&) = delete;

  /// Valid tenant ids are safe path segments: [A-Za-z0-9._-]{1,64}, not
  /// starting with a dot.
  static bool validTenantId(std::string_view id);

  /// Registers a new tenant and commits `artifactBytes` (a compiled
  /// .fpsmb image: a grammar file's bytes, or compileArtifact of a
  /// FuzzyPsm builder) as generation 1 of its log, like
  /// OnlineUpdater::bootstrap. Before anything touches disk the image is
  /// loaded (ArtifactError on bad bytes) and put through
  /// OnlineUpdater's trust gate under tenantConfig (GrammarLintError, or
  /// what tenantConfig.publishGate throws), so a tenant is registered only
  /// with a generation its cold load will serve; a rejected image leaves
  /// no directory and no id taken. The tenant is NOT loaded — first touch
  /// does that. Throws InvalidArgument on a bad id or an
  /// already-registered tenant.
  void addTenant(const std::string& tenant, const void* artifactBytes,
                 std::size_t byteCount) FPSM_EXCLUDES(mutex_);

  /// Scores one password against `tenant`'s current snapshot, loading the
  /// tenant if cold. Throws UnknownTenantError for unregistered tenants.
  TenantMeter::Score score(const std::string& tenant, std::string_view pw)
      FPSM_EXCLUDES(mutex_);

  /// Batch scoring against ONE consistent snapshot of one tenant (see
  /// TenantMeter::scoreBatch for the bit-identity contract).
  std::vector<TenantMeter::Score> scoreBatch(
      const std::string& tenant, const std::vector<std::string>& pws,
      unsigned requestedThreads = 0) FPSM_EXCLUDES(mutex_);

  /// Routes n occurrences of an accepted password into `tenant`'s durable
  /// update pipeline (OnlineUpdater::accept — folded at the next
  /// compaction, published as a log-backed generation). A call accept()
  /// rejects (malformed password, n > OnlineUpdater::kMaxAcceptCount)
  /// throws InvalidArgument and is not counted as routed traffic.
  void update(const std::string& tenant, std::string_view pw,
              std::uint64_t n = 1) FPSM_EXCLUDES(mutex_);

  /// Runs one compaction cycle on `tenant`'s unit (loading it if cold).
  /// While the compaction is in flight the tenant is barred from
  /// eviction. Filesystem errors propagate; gate rejections are reported
  /// in the result, same contract as OnlineUpdater::compactNow.
  OnlineUpdater::CompactionResult compactTenant(const std::string& tenant)
      FPSM_EXCLUDES(mutex_);

  /// Ensures `tenant` is resident and returns its serving generation.
  std::uint64_t loadTenant(const std::string& tenant) FPSM_EXCLUDES(mutex_);

  /// Explicitly evicts `tenant`'s unit. Returns false when the tenant is
  /// not resident, is pinned, or has a compaction in flight. Readers that
  /// already routed keep scoring the old unit until they finish; the next
  /// touch reloads from the log.
  bool evictTenant(const std::string& tenant) FPSM_EXCLUDES(mutex_);

  /// Pinned tenants are exempt from budget eviction (explicit evictTenant
  /// still refuses politely). Throws UnknownTenantError.
  void pinTenant(const std::string& tenant, bool pinned)
      FPSM_EXCLUDES(mutex_);

  bool resident(const std::string& tenant) const FPSM_EXCLUDES(mutex_);

  /// Sum of resident tenants' artifact bytes (the budgeted quantity).
  std::uint64_t residentBytes() const FPSM_EXCLUDES(mutex_);

  /// Registered tenant ids, sorted.
  std::vector<std::string> tenantIds() const FPSM_EXCLUDES(mutex_);

  /// Per-tenant detail for every registered tenant, sorted by id.
  std::vector<TenantInfo> tenants() const FPSM_EXCLUDES(mutex_);

  Stats stats() const FPSM_EXCLUDES(mutex_);

  const std::string& rootDir() const FPSM_NO_CAPABILITY {
    return config_.rootDir;
  }

 private:
  /// Fast path: pin the table, find + touch the route. Falls back to the
  /// locked slow path (cold load) on miss. Throws UnknownTenantError.
  TenantRoute routeFor(const std::string& tenant) FPSM_EXCLUDES(mutex_);
  TenantRoute loadSlow(const std::string& tenant) FPSM_EXCLUDES(mutex_);
  TenantRoute loadLocked(const std::shared_ptr<TenantRuntime>& state)
      FPSM_REQUIRES(mutex_);
  /// Evicts LRU tenants until the resident set fits the budget. `keep` is
  /// the just-loaded tenant, exempt so a load cannot evict itself.
  void enforceBudgetLocked(const TenantRuntime* keep) FPSM_REQUIRES(mutex_);
  /// Drops one tenant's unit from the table (flushing first per config).
  /// The caller has already checked pinned/busy under mutex_.
  void evictLocked(const std::string& tenant) FPSM_REQUIRES(mutex_);
  /// Publishes a new routing table with `route` added (or replaced).
  void publishAddLocked(TenantRoute route) FPSM_REQUIRES(mutex_);
  /// Publishes a new routing table with `tenant` removed.
  void publishRemoveLocked(const std::string& tenant) FPSM_REQUIRES(mutex_);
  void refreshGaugesLocked() FPSM_REQUIRES(mutex_);
  std::uint64_t residentBytesLocked() const FPSM_REQUIRES(mutex_);
  void registerExistingTenants() FPSM_EXCLUDES(mutex_);

  const GrammarRegistryConfig config_;  // immutable after construction

  // Control plane: every registered tenant's runtime record, resident or
  // not. The routing table only carries the resident subset.
  mutable Mutex mutex_;
  StringMap<std::shared_ptr<TenantRuntime>> tenants_ FPSM_GUARDED_BY(mutex_);

  // Read path (internally synchronized / atomic).
  RcuPtr<RoutingTable> table_;
  std::atomic<std::uint64_t> lruClock_{0};

  // Counters (relaxed; monitoring only).
  std::atomic<std::uint64_t> coldLoads_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> evictFlushes_{0};
  std::atomic<std::uint64_t> routedScores_{0};
  std::atomic<std::uint64_t> routedUpdates_{0};
  std::atomic<std::uint64_t> unknownTenant_{0};
};

}  // namespace fpsm
