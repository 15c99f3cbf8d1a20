#include "registry/grammar_registry.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "artifact/artifact.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"

namespace fpsm {

namespace fs = std::filesystem;

namespace {

/// Generations on disk for one tenant, counted from the directory rather
/// than by opening the GenerationLog — opening runs full recovery (every
/// file re-checksummed) and the live unit may be appending concurrently;
/// a name scan is safe against a writer and costs one readdir.
std::uint64_t countGenerationFiles(const std::string& directory) {
  std::uint64_t n = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("gen-") && name.ends_with(".fpsmb")) ++n;
  }
  return n;
}

}  // namespace

bool GrammarRegistry::validTenantId(std::string_view id) {
  if (id.empty() || id.size() > 64) return false;
  if (id.front() == '.') return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

GrammarRegistry::GrammarRegistry(GrammarRegistryConfig config)
    : config_(std::move(config)) {
  if (config_.rootDir.empty()) {
    throw InvalidArgument("GrammarRegistry: rootDir must not be empty");
  }
  std::error_code ec;
  fs::create_directories(config_.rootDir, ec);
  if (ec || !fs::is_directory(config_.rootDir)) {
    throw IoError("GrammarRegistry: cannot create registry root " +
                  config_.rootDir);
  }
  table_.store(std::make_shared<const RoutingTable>());
  registerExistingTenants();
}

GrammarRegistry::~GrammarRegistry() {
  const MutexLock lock(mutex_);
  const auto table = table_.load();
  if (table != nullptr && config_.flushOnEvict) {
    for (const auto& [id, route] : table->routes) {
      try {
        if (route.unit->pendingUpdates() > 0) route.unit->compactNow();
      } catch (const Error&) {
        // Teardown must not throw; the pending batch is lost, which is the
        // same bounded-loss contract a crash has (DESIGN.md §12).
      }
    }
  }
  table_.store(nullptr);
}

void GrammarRegistry::registerExistingTenants() {
  const MutexLock lock(mutex_);
  for (const auto& entry : fs::directory_iterator(config_.rootDir)) {
    if (!entry.is_directory()) continue;
    const std::string id = entry.path().filename().string();
    if (!validTenantId(id)) continue;
    if (!fs::exists(entry.path() / "MANIFEST")) continue;
    tenants_.emplace(id, std::make_shared<TenantRuntime>(
                             id, entry.path().string()));
  }
  refreshGaugesLocked();
}

void GrammarRegistry::addTenant(const std::string& tenant,
                                const void* artifactBytes,
                                std::size_t byteCount) {
  if (!validTenantId(tenant)) {
    throw InvalidArgument("GrammarRegistry: invalid tenant id '" + tenant +
                          "' (want [A-Za-z0-9._-]{1,64}, no leading dot)");
  }
  // Validate and gate the image BEFORE anything touches disk, under the
  // config every later resume() of this tenant gates with, so neither a
  // malformed artifact nor one the trust gate rejects can become a
  // registered tenant's generation 1.
  const auto* first = static_cast<const std::byte*>(artifactBytes);
  OnlineUpdater::gate(config_.tenantConfig,
                      GrammarArtifact::fromBytes(
                          std::vector<std::byte>(first, first + byteCount))
                          ->grammar());

  const MutexLock lock(mutex_);
  const std::string dir =
      (fs::path(config_.rootDir) / tenant).string();
  if (tenants_.find(tenant) != tenants_.end() || fs::exists(dir)) {
    throw InvalidArgument("GrammarRegistry: tenant '" + tenant +
                          "' already exists");
  }
  GenerationLog log(dir);
  log.append(artifactBytes, byteCount);
  tenants_.emplace(tenant, std::make_shared<TenantRuntime>(tenant, dir));
  refreshGaugesLocked();
}

TenantRoute GrammarRegistry::routeFor(const std::string& tenant) {
  if (const auto table = table_.load()) {
    if (const TenantRoute* route = findRoute(*table, tenant)) {
      touchRoute(*route, lruClock_);
      return *route;
    }
  }
  return loadSlow(tenant);
}

TenantRoute GrammarRegistry::loadSlow(const std::string& tenant) {
  const MutexLock lock(mutex_);
  // Re-check under the lock: another thread may have finished the same
  // cold load while this one was waiting.
  if (const auto table = table_.load()) {
    if (const TenantRoute* route = findRoute(*table, tenant)) {
      touchRoute(*route, lruClock_);
      return *route;
    }
  }
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    unknownTenant_.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::RegistryUnknownTenant);
    throw UnknownTenantError(tenant);
  }
  TenantRoute route = loadLocked(it->second);
  enforceBudgetLocked(it->second.get());
  return route;
}

TenantRoute GrammarRegistry::loadLocked(
    const std::shared_ptr<TenantRuntime>& state) {
  obs::StageTimer coldSpan(obs::Histo::RegistryColdLoad);
  auto unit = OnlineUpdater::resume(state->directory, config_.tenantConfig);
  TenantRoute route;
  route.runtime = state;
  route.unit = std::shared_ptr<OnlineUpdater>(std::move(unit));
  publishAddLocked(route);
  coldSpan.stop();

  touchRoute(route, lruClock_);
  state->coldLoads.fetch_add(1, std::memory_order_relaxed);
  coldLoads_.fetch_add(1, std::memory_order_relaxed);
  obs::count(obs::Counter::RegistryColdLoads);
  refreshGaugesLocked();
  return route;
}

void GrammarRegistry::enforceBudgetLocked(const TenantRuntime* keep) {
  if (config_.residentBytesBudget == 0) return;
  while (residentBytesLocked() > config_.residentBytesBudget) {
    const auto table = table_.load();
    if (table == nullptr) return;
    // LRU scan: smallest recency stamp among evictable residents. Pinned
    // tenants and tenants with a compaction in flight (busy) are exempt,
    // as is the tenant whose load triggered this scan — a load that
    // evicted itself would thrash forever.
    const TenantRoute* victim = nullptr;
    std::uint64_t oldest = 0;
    for (const auto& [id, route] : table->routes) {
      const TenantRuntime& rt = *route.runtime;
      if (route.runtime.get() == keep) continue;
      if (rt.pinned.load(std::memory_order_relaxed)) continue;
      if (rt.busy.load(std::memory_order_relaxed) != 0) continue;
      const std::uint64_t touch = rt.lastTouch.load(std::memory_order_relaxed);
      if (victim == nullptr || touch < oldest) {
        victim = &route;
        oldest = touch;
      }
    }
    if (victim == nullptr) return;  // nothing evictable: budget stays soft
    evictLocked(victim->runtime->id);
  }
}

void GrammarRegistry::evictLocked(const std::string& tenant) {
  const auto table = table_.load();
  const TenantRoute* found =
      table == nullptr ? nullptr : findRoute(*table, tenant);
  if (found == nullptr) return;
  // Hold the route past the republish: in-flight readers that resolved it
  // before the swap keep scoring this unit until their shared_ptr drops —
  // the same retirement rule grammar snapshots follow one layer down.
  const TenantRoute held = *found;
  if (config_.flushOnEvict && held.unit->pendingUpdates() > 0) {
    held.unit->compactNow();
    evictFlushes_.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::RegistryEvictFlushes);
  }
  publishRemoveLocked(tenant);
  held.runtime->evictions.fetch_add(1, std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  obs::count(obs::Counter::RegistryEvictions);
  refreshGaugesLocked();
}

void GrammarRegistry::publishAddLocked(TenantRoute route) {
  auto next = std::make_shared<RoutingTable>();
  if (const auto table = table_.load()) next->routes = table->routes;
  next->routes.insert_or_assign(route.runtime->id, std::move(route));
  table_.store(std::move(next));
}

void GrammarRegistry::publishRemoveLocked(const std::string& tenant) {
  auto next = std::make_shared<RoutingTable>();
  if (const auto table = table_.load()) next->routes = table->routes;
  next->routes.erase(tenant);
  table_.store(std::move(next));
}

void GrammarRegistry::refreshGaugesLocked() {
  const auto registered = static_cast<std::int64_t>(tenants_.size());
  const auto table = table_.load();
  const auto residentCount = static_cast<std::int64_t>(
      table == nullptr ? 0 : table->routes.size());
  const auto bytes = static_cast<std::int64_t>(residentBytesLocked());
  obs::gaugeSet(obs::Gauge::RegistryTenants, registered);
  obs::gaugeSet(obs::Gauge::RegistryResidentTenants, residentCount);
  obs::gaugeSet(obs::Gauge::RegistryResidentBytes, bytes);
}

std::uint64_t GrammarRegistry::residentBytesLocked() const {
  // Recomputed from the units themselves rather than tracked by deltas:
  // a tenant's artifact grows when a compaction publishes a new
  // generation, and summing live values cannot drift.
  const auto table = table_.load();
  if (table == nullptr) return 0;
  std::uint64_t total = 0;
  for (const auto& [id, route] : table->routes) {
    total += route.unit->service().residentBytes();
  }
  return total;
}

TenantMeter::Score GrammarRegistry::score(const std::string& tenant,
                                          std::string_view pw) {
  const TenantRoute route = routeFor(tenant);
  route.runtime->routedScores.fetch_add(1, std::memory_order_relaxed);
  routedScores_.fetch_add(1, std::memory_order_relaxed);
  obs::count(obs::Counter::RegistryScoresRouted);
  return route.unit->service().score(pw);
}

std::vector<TenantMeter::Score> GrammarRegistry::scoreBatch(
    const std::string& tenant, const std::vector<std::string>& pws,
    unsigned requestedThreads) {
  const TenantRoute route = routeFor(tenant);
  const auto n = static_cast<std::uint64_t>(pws.size());
  route.runtime->routedScores.fetch_add(n, std::memory_order_relaxed);
  routedScores_.fetch_add(n, std::memory_order_relaxed);
  obs::count(obs::Counter::RegistryScoresRouted, n);
  return route.unit->service().scoreBatch(pws, requestedThreads);
}

void GrammarRegistry::update(const std::string& tenant, std::string_view pw,
                             std::uint64_t n) {
  const TenantRoute route = routeFor(tenant);
  // accept() validates first: a rejected call is not routed traffic.
  route.unit->accept(pw, n);
  route.runtime->routedUpdates.fetch_add(n, std::memory_order_relaxed);
  routedUpdates_.fetch_add(n, std::memory_order_relaxed);
  obs::count(obs::Counter::RegistryUpdatesRouted, n);
}

OnlineUpdater::CompactionResult GrammarRegistry::compactTenant(
    const std::string& tenant) {
  for (;;) {
    TenantRoute route = routeFor(tenant);
    {
      const MutexLock lock(mutex_);
      // The route may have been evicted between resolving it and taking
      // the lock. Compacting a detached unit would race a reload's writer
      // on the same log directory, so re-route and try again.
      const auto table = table_.load();
      const TenantRoute* cur =
          table == nullptr ? nullptr : findRoute(*table, tenant);
      if (cur == nullptr || cur->unit != route.unit) continue;
      TenantRuntime& rt = *route.runtime;
      // busy is written only under mutex_ (plain store, not RMW); while
      // it is raised, the eviction scan will not touch this tenant.
      rt.busy.store(rt.busy.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    }
    OnlineUpdater::CompactionResult result;
    try {
      result = route.unit->compactNow();
    } catch (...) {
      const MutexLock lock(mutex_);
      TenantRuntime& rt = *route.runtime;
      rt.busy.store(rt.busy.load(std::memory_order_relaxed) - 1,
                    std::memory_order_relaxed);
      throw;
    }
    const MutexLock lock(mutex_);
    TenantRuntime& rt = *route.runtime;
    rt.busy.store(rt.busy.load(std::memory_order_relaxed) - 1,
                  std::memory_order_relaxed);
    // A published generation changes this tenant's resident footprint.
    refreshGaugesLocked();
    enforceBudgetLocked(route.runtime.get());
    return result;
  }
}

std::uint64_t GrammarRegistry::loadTenant(const std::string& tenant) {
  const TenantRoute route = routeFor(tenant);
  return route.unit->service().generation();
}

bool GrammarRegistry::evictTenant(const std::string& tenant) {
  const MutexLock lock(mutex_);
  const auto table = table_.load();
  const TenantRoute* route =
      table == nullptr ? nullptr : findRoute(*table, tenant);
  if (route == nullptr) return false;
  const TenantRuntime& rt = *route->runtime;
  if (rt.pinned.load(std::memory_order_relaxed)) return false;
  if (rt.busy.load(std::memory_order_relaxed) != 0) return false;
  evictLocked(tenant);
  return true;
}

void GrammarRegistry::pinTenant(const std::string& tenant, bool pinned) {
  const MutexLock lock(mutex_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    unknownTenant_.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::RegistryUnknownTenant);
    throw UnknownTenantError(tenant);
  }
  it->second->pinned.store(pinned, std::memory_order_relaxed);
}

bool GrammarRegistry::resident(const std::string& tenant) const {
  const auto table = table_.load();
  return table != nullptr && findRoute(*table, tenant) != nullptr;
}

std::uint64_t GrammarRegistry::residentBytes() const {
  const MutexLock lock(mutex_);
  return residentBytesLocked();
}

std::vector<std::string> GrammarRegistry::tenantIds() const {
  std::vector<std::string> ids;
  {
    const MutexLock lock(mutex_);
    ids.reserve(tenants_.size());
    for (const auto& [id, state] : tenants_) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<GrammarRegistry::TenantInfo> GrammarRegistry::tenants() const {
  std::vector<TenantInfo> infos;
  {
    const MutexLock lock(mutex_);
    const auto table = table_.load();
    infos.reserve(tenants_.size());
    for (const auto& [id, state] : tenants_) {
      TenantInfo info;
      info.id = state->id;
      info.directory = state->directory;
      info.pinned = state->pinned.load(std::memory_order_relaxed);
      info.lastTouch = state->lastTouch.load(std::memory_order_relaxed);
      info.routedScores = state->routedScores.load(std::memory_order_relaxed);
      info.routedUpdates =
          state->routedUpdates.load(std::memory_order_relaxed);
      info.coldLoads = state->coldLoads.load(std::memory_order_relaxed);
      info.evictions = state->evictions.load(std::memory_order_relaxed);
      const TenantRoute* route =
          table == nullptr ? nullptr : findRoute(*table, id);
      if (route != nullptr) {
        info.resident = true;
        info.residentBytes = route->unit->service().residentBytes();
        info.generation = route->unit->service().generation();
        info.cacheHitRate = route->unit->service().stats().cache.hitRate();
      }
      infos.push_back(std::move(info));
    }
  }
  // The directory scans run after the lock is released so listing never
  // waits behind, or holds up, a cold load.
  for (TenantInfo& info : infos) {
    info.logGenerations = countGenerationFiles(info.directory);
  }
  std::sort(infos.begin(), infos.end(),
            [](const TenantInfo& a, const TenantInfo& b) { return a.id < b.id; });
  return infos;
}

GrammarRegistry::Stats GrammarRegistry::stats() const {
  Stats s;
  {
    const MutexLock lock(mutex_);
    s.tenants = tenants_.size();
    const auto table = table_.load();
    s.resident = table == nullptr ? 0 : table->routes.size();
    s.residentBytes = residentBytesLocked();
  }
  s.coldLoads = coldLoads_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.evictFlushes = evictFlushes_.load(std::memory_order_relaxed);
  s.routedScores = routedScores_.load(std::memory_order_relaxed);
  s.routedUpdates = routedUpdates_.load(std::memory_order_relaxed);
  s.unknownTenant = unknownTenant_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace fpsm
