// Tenant routing — the registry's lock-free read path (DESIGN.md §15).
//
// The GrammarRegistry serves N tenants from one process. Its hot path —
// route a request to the right TenantMeter — must cost no more than the
// single-tenant serve path does, so the routing table is an immutable
// snapshot published through an RcuPtr, exactly like grammar snapshots
// one layer down: readers pin the current table with one shared_ptr copy
// and look their tenant up with zero locks; mutations (cold load, evict,
// add) build a fresh table off to the side and publish it with a pointer
// swap. In-flight requests finish against the unit they resolved — an
// eviction can never yank a grammar out from under a running scoreBatch
// (the route's shared_ptr keeps the unit alive until the last reader
// drops it: the RCU lifetime rule, applied to whole serving units).
//
// This header is on the fpsm_lint R004 hot-path list: no lock token may
// appear here, which makes "routing takes no locks" a mechanically
// enforced invariant rather than a comment. Everything mutable in this
// file is a relaxed atomic:
//
//   * lastTouch — the LRU recency stamp. Readers stamp it on every routed
//     request from a global monotonic clock; the eviction scan (which
//     runs under the registry mutex, elsewhere) picks the smallest stamp.
//     Relaxed is enough: recency is a heuristic, not a happens-before
//     edge.
//   * the per-tenant traffic counters — monitoring only, same contract as
//     every other relaxed counter in the tree.
//   * pinned / busy — control-plane flags. They are *written* only under
//     the registry mutex; they are atomics (not guarded fields) so the
//     lock-free CLI/stats surface may read them, and so this header needs
//     no capability vocabulary.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "online/online_updater.h"
#include "util/hash.h"

namespace fpsm {

/// Control-plane record for one known tenant. Lives as long as the tenant
/// is registered — across any number of evict/reload cycles — so the LRU
/// stamp and lifetime counters survive the serving unit's death.
struct TenantRuntime {
  TenantRuntime(std::string tenantId, std::string dir)
      : id(std::move(tenantId)), directory(std::move(dir)) {}

  const std::string id;         ///< tenant key (validated path segment)
  const std::string directory;  ///< the tenant's GenerationLog directory

  /// LRU recency: the registry clock's value at the last routed request.
  std::atomic<std::uint64_t> lastTouch{0};

  // Lifetime traffic counters (relaxed; monitoring only).
  std::atomic<std::uint64_t> routedScores{0};
  std::atomic<std::uint64_t> routedUpdates{0};
  std::atomic<std::uint64_t> coldLoads{0};
  std::atomic<std::uint64_t> evictions{0};

  /// Pinned tenants are never chosen by the budget eviction scan.
  std::atomic<bool> pinned{false};

  /// Eviction bar: >0 while a compaction (or the eviction's own flush) is
  /// in flight on this tenant's unit. Written only under the registry
  /// mutex; the eviction scan skips any tenant with busy != 0, so a unit
  /// can never be dropped while its generation log is being appended to.
  std::atomic<std::uint32_t> busy{0};
};

/// One resolved route: the tenant's control record plus its live serving
/// unit (an OnlineUpdater wrapping a TenantMeter and the
/// tenant's GenerationLog). Copying a route pins both alive.
struct TenantRoute {
  std::shared_ptr<TenantRuntime> runtime;
  std::shared_ptr<OnlineUpdater> unit;
};

/// Immutable routing table: tenant id -> route for every RESIDENT tenant.
/// Registered-but-cold tenants are absent (their requests take the slow
/// path, which loads them). Published via RcuPtr<RoutingTable>.
struct RoutingTable {
  StringMap<TenantRoute> routes;
};

/// Lock-free lookup in a pinned table. Returns nullptr when the tenant is
/// not resident; the pointer is valid while the caller pins the table.
inline const TenantRoute* findRoute(const RoutingTable& table,
                                    std::string_view tenant) {
  const auto it = table.routes.find(tenant);
  return it == table.routes.end() ? nullptr : &it->second;
}

/// Stamps a route's LRU recency from the registry's monotonic clock.
inline void touchRoute(const TenantRoute& route,
                       std::atomic<std::uint64_t>& clock) {
  const std::uint64_t now =
      clock.fetch_add(1, std::memory_order_relaxed) + 1;
  route.runtime->lastTouch.store(now, std::memory_order_relaxed);
}

}  // namespace fpsm
