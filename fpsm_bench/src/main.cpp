// fpsm_bench — runs one of the suite's four workloads.
//
//   fpsm_bench --workload NAME --seed N --seconds S --trace 0|1
//              --fuzzypsm PATH --work DIR --out DIR [--commit SHA] [--smoke]
//
// Each run is one workload in a fresh process: build the seeded inputs,
// set the system up three times (setup_s is the median), warm up for a
// second, measure for S seconds, check every output against a reference,
// and print one JSON object as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// measured phase runs a second time with spans recorded (the difference
// is the tracing overhead), the spans go to DIR/trace-<workload>.json, a
// fixed sample is replayed down the layers, and the metrics are the
// per-layer ones. Either way the results, with a header naming the host
// and build, go to DIR/<workload>-seed<N>[-trace].json. Exit status is 0
// only when every check passed.
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

#include "fleet.h"
#include "trace.h"
#include "util/simd.h"
#include "workload.h"

namespace fs = std::filesystem;
using namespace fpsm::suite;

namespace {

#ifndef FPSM_BENCH_BUILD_TYPE
#define FPSM_BENCH_BUILD_TYPE "unknown"
#endif

const std::map<std::string, std::function<std::unique_ptr<Workload>(const Options&)>>
    kWorkloads = {
        {"register-zipf", makeRegisterZipf},
        {"audit-unique", makeAuditUnique},
        {"tenant-churn", makeTenantChurn},
        {"retrain-compact", makeRetrainCompact},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "fpsm_bench: %s\nusage: fpsm_bench --workload "
               "register-zipf|audit-unique|tenant-churn|retrain-compact "
               "--seed N --seconds S --trace 0|1 --fuzzypsm PATH --work DIR "
               "--out DIR [--commit SHA] [--smoke]\n",
               why.c_str());
  std::exit(2);
}

Options parseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = std::stoi(v) != 0;
      else if (a == "--fuzzypsm") o.fuzzypsm = v;
      else if (a == "--work") o.workDir = v;
      else if (a == "--out") o.outDir = v;
      else if (a == "--commit") o.commit = v;
      else usage("unknown option " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!kWorkloads.contains(o.workload)) usage("unknown workload '" + o.workload + "'");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  if (o.fuzzypsm.empty() || o.workDir.empty() || o.outDir.empty()) {
    usage("--fuzzypsm, --work and --out are required");
  }
  return o;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metricsJson(const Metrics& metrics, const char* indent) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ',';
    out.append(indent).append(jsonString(metrics[i].name));
    out.append(": {\"value\": ").append(number(metrics[i].value));
    out.append(", \"unit\": ").append(jsonString(metrics[i].unit)).append("}");
  }
  return out + (indent[0] == '\n' ? "\n  }" : "}");
}

/// The shared header of every results file.
std::string headerJson(const Options& o) {
  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
  std::ostringstream h;
  h << "{\"host\": " << jsonString(host)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
    << ", \"simd\": " << jsonString(fpsm::simdLevelName(fpsm::activeSimdLevel()))
    << ", \"build_type\": " << jsonString(FPSM_BENCH_BUILD_TYPE)
    << ", \"commit\": " << jsonString(o.commit) << ", \"seed\": " << o.seed
    << ", \"seconds\": " << number(o.seconds)
    << ", \"smoke\": " << (o.smoke ? "true" : "false") << "}";
  return h.str();
}

void printTable(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

Metrics endToEnd(const PhaseResult& r, double setupS, double peakRssMb) {
  return {
      {"setup_s", setupS, "s"},
      {"peak_rss_mb", peakRssMb, "MB"},
      {"work_per_s", r.workPerS, "1/s"},
      {"op_p50_us", r.opP50Us, "us"},
  };
}

int run(const Options& opts) {
  fs::remove_all(opts.workDir);
  fs::create_directories(opts.workDir);
  fs::create_directories(opts.outDir);
  std::unique_ptr<Workload> workload = kWorkloads.at(opts.workload)(opts);

  workload->prepare();
  const double setupS =
      timeSetups(opts, [&] { workload->tearDown(); },
                 [&](const std::string& dir) { workload->setUp(dir); });
  const PhaseResult plain = workload->measure(opts.seconds);
  const double peakRss = peakRssMb();
  Metrics e2e = endToEnd(plain, setupS, peakRss);

  Metrics layers;
  PhaseResult traced;
  if (opts.trace) {
    Tracer::instance().enable(true);
    traced = workload->measure(opts.seconds);
    Tracer::instance().enable(false);
  }
  workload->check();
  if (opts.trace) {
    Tracer::instance().enable(true);
    layers = replayLayers(opts, workload->layerTarget());
    Tracer::instance().enable(false);
    const Metrics live = withLiveDefaults(traced.live);
    layers.insert(layers.end(), live.begin(), live.end());
    const double scoreNs = metricValue(layers, "artifact.score_ns");
    layers.push_back({"artifact.score_share",
                      traced.threadSeconds > 0
                          ? traced.parses * scoreNs * 1e-9 / traced.threadSeconds
                          : 0.0,
                      "ratio"});
    layers.push_back({"trace.spans",
                      static_cast<double>(Tracer::instance().recorded()), "count"});
    layers.push_back({"trace.dropped",
                      static_cast<double>(Tracer::instance().dropped()), "count"});
    layers.push_back({"trace.overhead_pct",
                      100.0 * (plain.workPerS - traced.workPerS) / plain.workPerS,
                      "%"});
    Tracer::instance().writeJson(opts.outDir + "/trace-" + opts.workload + ".json");
  }

  const Tally& tally = workload->tally();
  const bool correct = tally.failed() == 0;
  const std::uint64_t attempted = tally.attempted();
  const std::uint64_t failed = tally.failed();
  for (const std::string& m : tally.messages()) std::printf("FAILED: %s\n", m.c_str());
  printTable("named metrics:", plain.named);
  printTable("end-to-end metrics:", e2e);
  if (opts.trace) printTable("per-layer metrics (traced run):", layers);

  const Metrics& reported = opts.trace ? layers : e2e;
  std::ostringstream results;
  results << "{\n  \"header\": " << headerJson(opts)
          << ",\n  \"workload\": " << jsonString(opts.workload)
          << ",\n  \"correct\": " << (correct ? "true" : "false")
          << ",\n  \"attempted\": " << attempted
          << ",\n  \"failed\": " << failed
          << ",\n  \"named\": " << metricsJson(plain.named, "\n    ")
          << ",\n  \"end_to_end\": " << metricsJson(e2e, "\n    ");
  if (opts.trace) {
    results << ",\n  \"traced_named\": " << metricsJson(traced.named, "\n    ")
            << ",\n  \"per_layer\": " << metricsJson(layers, "\n    ");
  }
  results << "\n}\n";
  writeFile(opts.outDir + "/" + opts.workload + "-seed" + std::to_string(opts.seed) +
                (opts.trace ? "-trace" : "") + ".json",
            results.str());

  workload.reset();
  fs::remove_all(opts.workDir);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metricsJson(reported, " ").c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parseOptions(argc, argv);
  try {
    return run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fpsm_bench: %s\n", e.what());
    return 1;
  }
}
