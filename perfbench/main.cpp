// The repository benchmark: one process, one workload per invocation.
//
//   hcp_perfbench --workload train_cold|predict_stream|serve_flowcache
//                 --seed N --seconds S --trace 0|1
//                 --workdir DIR --golden FILE --manifest FILE
//
// Prints a human summary (every metric by name, unit and sample count, the
// deterministic work counts and the digest of the generated inputs) on
// stderr, and as the last stdout line one JSON object with the metrics the
// manifest (BENCHMARK.json) lists: end_to_end ones when --trace 0, per_layer
// ones when --trace 1. Exits 1 when any output check failed, 2 on a usage
// error and 3 when the run itself failed.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "apps/registry.hpp"
#include "bench.hpp"
#include "core/flow.hpp"
#include "ml/mapnet.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/flowcache.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/signals.hpp"
#include "support/telemetry.hpp"

using namespace hcp;

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "hcp_perfbench: %s\n", why.c_str());
  std::exit(2);
}

perfbench::Options parseArgs(int argc, char** argv, std::string& manifest) {
  perfbench::Options o;
  bool haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (value != "train_cold" && value != "predict_stream" &&
          value != "serve_flowcache")
        usage("unknown workload " + value);
      o.workload = value;
    } else if (flag == "--seed") {
      const auto v = support::env::parseU64(value);
      if (!v) usage("--seed expects a non-negative integer");
      o.seed = *v;
      haveSeed = true;
    } else if (flag == "--seconds") {
      const auto v = support::env::parseU64(value);
      if (!v || *v == 0 || *v > 3600) usage("--seconds expects 1..3600");
      o.seconds = static_cast<double>(*v);
      haveSeconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      o.trace = value == "1";
      haveTrace = true;
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else if (flag == "--golden") {
      o.golden = value;
    } else if (flag == "--manifest") {
      manifest = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (o.workload.empty() || !haveSeed || !haveSeconds || !haveTrace ||
      o.workdir.empty() || o.golden.empty() || manifest.empty())
    usage("--workload, --seed, --seconds, --trace, --workdir, --golden and "
          "--manifest are all required");
  return o;
}

using MetricList = std::vector<std::pair<std::string, std::string>>;

MetricList manifestMetrics(const support::json::Value& manifest,
                           const char* key) {
  MetricList out;
  const auto* list = manifest.find(key);
  if (list == nullptr || !list->isArray())
    throw Error(std::string("manifest has no ") + key + " list");
  for (const auto& m : list->array) {
    const auto* name = m.find("name");
    const auto* unit = m.find("unit");
    if (name == nullptr || unit == nullptr)
      throw Error(std::string("manifest ") + key + " entry lacks name or unit");
    out.emplace_back(name->asString(), unit->asString());
  }
  return out;
}

/// The routed map of spam_filter at seed 42 must equal the checked-in golden
/// file byte for byte (the same pin the tier-1 golden-map test holds).
void checkGoldenMap(const perfbench::Options& opts, perfbench::Report& report) {
  support::flowcache::setGlobalDir("");
  const auto device = fpga::Device::xc7z020like();
  const core::FlowResult flow =
      core::runFlow(apps::makeDesign("spam_filter"), device, {});
  const fpga::CongestionMap& routed = flow.impl.routing.map;
  ml::MapPrediction truth;
  truth.width = routed.width();
  truth.height = routed.height();
  for (std::uint32_t y = 0; y < routed.height(); ++y)
    for (std::uint32_t x = 0; x < routed.width(); ++x) {
      truth.vUtil.push_back(routed.vUtil(x, y));
      truth.hUtil.push_back(routed.hUtil(x, y));
    }
  std::ostringstream os;
  ml::saveMapPrediction(truth, os);
  std::ifstream in(opts.golden, std::ios::binary);
  if (!report.check(in.is_open(), "golden map " + opts.golden + " opens")) return;
  const std::string golden((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  report.check(os.str() == golden,
               "routed spam_filter map equals " + opts.golden);
}

}  // namespace

int main(int argc, char** argv) {
  support::ignoreSigpipe();
  std::string manifestPath;
  const perfbench::Options opts = parseArgs(argc, argv, manifestPath);
  try {
    const auto manifest = support::json::parseFile(manifestPath);
    const MetricList endToEnd = manifestMetrics(manifest, "end_to_end");
    const MetricList layers = manifestMetrics(manifest, "per_layer");

    support::setThreadLimit(perfbench::kThreads);
    // Work counts come from the program's own counters. hcp_serve always
    // runs with them on, so every workload does.
    support::telemetry::setEnabled(true);

    perfbench::Report report;
    std::string inputs;
    if (opts.workload == "train_cold")
      inputs = perfbench::runTrainCold(opts, report);
    else if (opts.workload == "predict_stream")
      inputs = perfbench::runPredictStream(opts, report);
    else
      inputs = perfbench::runServeFlowcache(opts, report);

    checkGoldenMap(opts, report);
    for (const std::string& problem : report.conform(endToEnd, layers))
      report.check(false, problem);
    report.print(opts, inputs);
    return report.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hcp_perfbench: run failed: %s\n", e.what());
    return 3;
  }
}
