// tenant-churn: many site grammars in one process, under a memory budget.
//
// Twelve tenants are registered, one per distinct (base, training) service
// pair, and the resident-bytes budget holds three of them. A churn
// client scores one password per request against a tenant picked by
// Zipf(1.0) over a fixed popularity order, so the tail tenants keep
// being evicted and cold-loaded: log recovery, artifact open and checksum,
// the lint gate and the route publish. A warm client, closed loop like the
// churn client, scores only a pinned hot tenant; its latency shows whether
// a cold load stalls resident traffic.
#include <algorithm>
#include <thread>

#include "fleet.h"
#include "obs/metrics.h"
#include "samples.h"
#include "trace.h"
#include "util/rng.h"
#include "workload.h"

namespace fpsm::suite {

namespace {

constexpr char kHot[] = "tianya-dodonew";

struct Request {
  std::uint32_t tenant;
  std::uint32_t pw;
};

/// Every distinct (base, training) pair, in popularity order: the churn
/// client's Zipf rank is the position here. The order is fixed rather
/// than drawn from the seed so that every seed sees the same mix of large
/// and small tenants at each rank.
std::vector<TenantSpec> churnTenants() {
  return {
      {kHot, "Tianya", "Dodonew"},
      {"rockyou-phpbb", "Rockyou", "Phpbb"},
      {"tianya-weibo", "Tianya", "Weibo"},
      {"rockyou-yahoo", "Rockyou", "Yahoo"},
      {"tianya-csdn", "Tianya", "CSDN"},
      {"rockyou-battlefield", "Rockyou", "Battlefield"},
      {"tianya-zhenai", "Tianya", "Zhenai"},
      {"rockyou-singles", "Rockyou", "Singles"},
      {"tianya-phpbb", "Tianya", "Phpbb"},
      {"rockyou-faithwriters", "Rockyou", "Faithwriters"},
      {"tianya-yahoo", "Tianya", "Yahoo"},
      {"rockyou-dodonew", "Rockyou", "Dodonew"},
  };
}

class TenantChurn final : public Workload {
 public:
  using Workload::Workload;

  void prepare() override {
    inputs_ = std::make_unique<TenantInputs>(opts_, churnTenants(),
                                             opts_.smoke ? 256 : 2048);
    hot_ = inputs_->indexOf(kHot);
    Rng rng(deriveSeed(opts_.seed, 40));
    std::vector<double> zipf(inputs_->size());
    for (std::size_t rank = 0; rank < zipf.size(); ++rank) {
      zipf[rank] = 1.0 / static_cast<double>(rank + 1);
    }
    const DiscreteSampler pick(zipf);
    churn_.resize(kStreamLength);
    for (Request& r : churn_) {
      r.tenant = static_cast<std::uint32_t>(pick(rng));
      r.pw = static_cast<std::uint32_t>(rng.below(inputs_->pool(r.tenant).size()));
    }
    warm_.resize(kStreamLength);
    for (std::uint32_t& pw : warm_) {
      pw = static_cast<std::uint32_t>(rng.below(inputs_->pool(hot_).size()));
    }
  }

  void setUp(const std::string& dir) override {
    fleet_ = buildFleet(*inputs_, dir, FleetOptions{.budgetArtifacts = 3.0});
    fleet_.registry->pinTenant(kHot, true);
    const Span span("registry.loadTenant");
    fleet_.registry->loadTenant(kHot);
  }

  void tearDown() override { fleet_ = Fleet{}; }

  PhaseResult measure(double seconds) override {
    if (reference_.empty()) computeReference();
    const Record warmup = run(opts_.warmupSeconds());
    tally_.attempt(warmup.churnUs.total() + warmup.warmUs.total());

    const obs::MetricsSnapshot before = obs::snapshot();
    const Record rec = run(seconds);
    const obs::MetricsSnapshot after = obs::snapshot();
    tally_.attempt(rec.churnUs.total() + rec.warmUs.total());

    const Summary cold = summarizeAll({&rec.coldUs}, 900000);
    const Summary warm = summarizeAll({&rec.warmUs}, 990000);
    PhaseResult r;
    r.workPerS = medianWindowRate({&rec.churnUs});
    r.opP50Us = medianWindowMedian({&rec.coldUs});
    r.named = {{"churn_ops_per_s", r.workPerS, "1/s"},
               {"warm_ops_per_s", medianWindowRate({&rec.warmUs}), "1/s"}};
    addTiming(r.named, "cold_load", cold, 1e-3, "ms");
    addTiming(r.named, "warm", warm, 1.0, "us");
    r.live = observedCounts(before, after);
    r.live.push_back({"loadgen.op_tail_us", cold.tail, "us"});
    r.live.push_back({"registry.cold_load_share",
                      rec.churnBusyNs > 0 ? static_cast<double>(rec.coldBusyNs) /
                                                static_cast<double>(rec.churnBusyNs)
                                          : 0.0,
                      "ratio"});
    r.parses = static_cast<double>(after.counter(obs::Counter::ServeCacheMisses) -
                                   before.counter(obs::Counter::ServeCacheMisses));
    r.threadSeconds = 2.0 * seconds;
    return r;
  }

  void check() override {
    std::printf("tenant-churn: every churn and warm score compared with its "
                "tenant's trained artifact\n");
  }

  LayerTarget layerTarget() override {
    LayerTarget t;
    t.registry = fleet_.registry.get();
    t.tenant = kHot;
    t.tenantLogDir = fleet_.root + "/" + kHot;
    t.pinned = true;
    const std::vector<std::string>& pool = inputs_->pool(hot_);
    const std::size_t want = opts_.smoke ? 5000 : 50000;
    for (std::size_t i = 0; i < want; ++i) t.sample.push_back(pool[warm_[i % kStreamLength]]);
    for (std::size_t i = 0; i < 10000; ++i) t.updates.push_back(pool[(i * 7919) % pool.size()]);
    t.corpusPath = inputs_->trainingPath(hot_);
    return t;
  }

 private:
  static constexpr std::size_t kStreamLength = std::size_t{1} << 16;

  struct Record {
    Record(std::uint64_t start, std::uint64_t end, std::size_t windows)
        : churnUs(start, end, windows, kKeepPerWindow, 1),
          coldUs(start, end, windows, kKeepPerWindow, 2),
          warmUs(start, end, windows, kKeepPerWindow, 3) {}
    WindowedSamples churnUs;  ///< every churn-client request
    WindowedSamples coldUs;   ///< those that found their tenant cold
    WindowedSamples warmUs;   ///< every warm-client request
    std::uint64_t churnBusyNs = 0;
    std::uint64_t coldBusyNs = 0;
  };

  /// Every tenant's pool scored on its trained artifact. No tenant takes
  /// updates here, so every generation it serves is that artifact.
  void computeReference() {
    for (std::size_t t = 0; t < inputs_->size(); ++t) {
      const auto artifact = GrammarArtifact::open(fleet_.artifactPaths[t]);
      std::vector<double>& bits = reference_.emplace_back();
      for (const std::string& pw : inputs_->pool(t)) {
        bits.push_back(artifact->grammar().strengthBits(pw));
      }
    }
  }

  /// One request; returns its latency in ns (0 when it threw).
  std::uint64_t score(std::size_t tenant, std::uint32_t pw, std::uint64_t id) {
    const std::string& name = inputs_->specs()[tenant].id;
    try {
      const Span span("registry.score", id);
      const std::uint64_t t0 = nowNs();
      const double bits = fleet_.registry->score(name, inputs_->pool(tenant)[pw]).bits;
      const std::uint64_t ns = nowNs() - t0;
      if (!sameBits(bits, reference_[tenant][pw])) {
        tally_.fail(name + ": served " + std::to_string(bits) +
                    " bits, artifact says " + std::to_string(reference_[tenant][pw]));
      }
      return ns;
    } catch (const std::exception& e) {
      tally_.fail(name + ": " + e.what());
      return 0;
    }
  }

  /// Both clients, closed loop, for `seconds`.
  Record run(double seconds) {
    const std::uint64_t start = nowNs();
    const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    // Windows of 2.5 s: a churn window must hold enough cold loads (tens a
    // second) for its median and its rate to mean something.
    Record rec(start, end, static_cast<std::size_t>(std::max(1.0, seconds / 2.5)));
    std::thread warmClient([&] {
      for (std::uint64_t k = 0; nowNs() < end; ++k) {
        const std::uint64_t ns = score(hot_, warm_[warmPos_++ % kStreamLength], k);
        rec.warmUs.add(nowNs(), static_cast<double>(ns) * 1e-3);
      }
    });
    for (std::uint64_t k = 0; nowNs() < end; ++k) {
      const Request& r = churn_[churnPos_++ % kStreamLength];
      const bool cold = !fleet_.registry->resident(inputs_->specs()[r.tenant].id);
      const std::uint64_t ns = score(r.tenant, r.pw, (std::uint64_t{1} << 40) | k);
      const std::uint64_t at = nowNs();
      rec.churnUs.add(at, static_cast<double>(ns) * 1e-3);
      rec.churnBusyNs += ns;
      if (cold) {
        rec.coldUs.add(at, static_cast<double>(ns) * 1e-3);
        rec.coldBusyNs += ns;
      }
    }
    warmClient.join();
    return rec;
  }

  std::unique_ptr<TenantInputs> inputs_;
  std::size_t hot_ = 0;
  std::vector<Request> churn_;
  std::vector<std::uint32_t> warm_;
  std::uint64_t churnPos_ = 0;  ///< streams continue across phases
  std::uint64_t warmPos_ = 0;
  std::vector<std::vector<double>> reference_;
  Fleet fleet_;
};

}  // namespace

std::unique_ptr<Workload> makeTenantChurn(const Options& opts) {
  return std::make_unique<TenantChurn>(opts);
}

}  // namespace fpsm::suite
