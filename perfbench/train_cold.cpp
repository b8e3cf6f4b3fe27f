// train_cold: the paper's Fig-2 training phase, cold. Each pass runs the
// three Table-III combinations through core::runFlow one after another (no
// flow cache, placer seed = workload seed), builds the dataset with the
// marginal filter on, makes an 80/20 split at the workload seed, trains a
// default-GBRT CongestionPredictor and scores MAE on the 20%.
//
// Place and route are >=98% of flow time and the GBRT fit is the only other
// large cost, so this is the workload that shows fpga and ml changes. It
// bypasses serve, the flow cache and most of inference. The designs run one
// after another, not through runFlows: concurrent flows on a shared 4-core
// host measure the scheduler.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "bench.hpp"
#include "core/dataset_builder.hpp"
#include "core/flow_serialize.hpp"
#include "core/predictor.hpp"
#include "ml/dataset.hpp"
#include "ml/metrics.hpp"

namespace perfbench {

namespace {

using namespace hcp;
namespace tel = support::telemetry;

const std::vector<std::string> kCombos = {"face_detection", "digit_spam",
                                          "vision_combined"};
constexpr double kTestFraction = 0.2;
constexpr int kSetups = 20;

struct Pass {
  double passMs = 0.0;
  double flowMs = 0.0;
  double trainMs = 0.0;
  double maeV = 0.0;
  double maeH = 0.0;
  std::size_t rows = 0;
  std::size_t testRows = 0;
  CounterDelta delta;
  LayerTimes layers;
  std::vector<std::string> flowBytes;  ///< per design, when asked for
};

core::LabeledDataset subsetOf(const core::LabeledDataset& data,
                              const std::vector<std::size_t>& rows) {
  core::LabeledDataset out;
  out.vertical = data.vertical.subset(rows);
  out.horizontal = data.horizontal.subset(rows);
  out.average = data.average.subset(rows);
  for (const std::size_t i : rows) out.samples.push_back(data.samples[i]);
  return out;
}

Pass runPass(const fpga::Device& device, std::uint64_t seed, bool traced,
             bool keepBytes) {
  core::FlowConfig config;
  config.seed = seed;
  Pass p;
  const auto t0 = Clock::now();
  std::vector<core::FlowResult> flows;
  for (const std::string& name : kCombos) {
    apps::AppDesign app = apps::makeDesign(name);
    const auto tf = Clock::now();
    flows.push_back(traced ? stagedFlow(std::move(app), device, config, p.layers)
                           : core::runFlow(std::move(app), device, config));
    p.flowMs += msSince(tf);
  }

  const auto tt = Clock::now();
  const core::LabeledDataset data = timed(
      p.layers, "core.dataset_ms", [&] { return core::buildDataset(flows, {}); });
  const ml::Split split =
      ml::trainTestSplit(data.vertical.size(), kTestFraction, seed);
  core::CongestionPredictor predictor;
  {
    const core::LabeledDataset train = subsetOf(data, split.train);
    timed(p.layers, "ml.fit_ms", [&] { predictor.train(train); });
  }
  p.trainMs = msSince(tt);

  const ml::Dataset testV = data.vertical.subset(split.test);
  const ml::Dataset testH = data.horizontal.subset(split.test);
  const auto predV = timed(p.layers, "ml.predict_ms", [&] {
    return predictor.verticalModel().predictAll(testV);
  });
  const auto predH = timed(p.layers, "ml.predict_ms", [&] {
    return predictor.horizontalModel().predictAll(testH);
  });
  p.maeV = ml::meanAbsoluteError(testV.targets(), predV);
  p.maeH = ml::meanAbsoluteError(testH.targets(), predH);
  p.passMs = msSince(t0);
  p.delta.stop();

  p.rows = data.vertical.size();
  p.testRows = split.test.size();
  if (keepBytes)
    for (const core::FlowResult& f : flows) p.flowBytes.push_back(flowBytes(f));
  return p;
}

/// Work counts of one pass; identical for every pass at one seed.
std::vector<std::pair<std::string, std::uint64_t>> workCounts(const Pass& p) {
  const CounterDelta& d = p.delta;
  return {
      {"hls_functions_synthesized", d(tel::Counter::HlsFunctionsSynthesized)},
      {"placer_moves_proposed", d(tel::Counter::PlacerMovesProposed)},
      {"placer_moves_accepted", d(tel::Counter::PlacerMovesAccepted)},
      {"router_iterations", d(tel::Counter::RouterIterations)},
      {"router_ripups", d(tel::Counter::RouterRipUps)},
      {"router_overflow_tiles", d(tel::Counter::RouterOverflowTiles)},
      {"trace_cells_traced", d(tel::Counter::TraceCellsTraced)},
      {"dataset_rows", p.rows},
      {"test_rows", p.testRows},
      {"gbrt_boosting_rounds", d(tel::Counter::GbrtBoostingRounds)},
  };
}

bool samePass(const Pass& a, const Pass& b) {
  return workCounts(a) == workCounts(b) && a.maeV == b.maeV && a.maeH == b.maeH;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

}  // namespace

std::string runTrainCold(const Options& opts, Report& report) {
  core::FlowConfig config;
  config.seed = opts.seed;

  // Set-up: the device model and the three designs' inputs. The inputs'
  // digest is their flow-cache keys, which cover every input runFlow reads.
  Samples setupMs;
  std::string inputs;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    const auto device = fpga::Device::xc7z020like();
    inputs = "train_cold test_fraction=0.2 split_seed=" +
             std::to_string(opts.seed);
    for (const std::string& name : kCombos)
      inputs += " " + name + ":" +
                core::flowCacheKey(apps::makeDesign(name), device, config);
    setupMs.add(msSince(t0));
  }
  report.note("inputs " + inputs);
  const auto device = fpga::Device::xc7z020like();

  Samples passMs, flowMs, trainMs;
  std::vector<Pass> passes;
  const auto start = Clock::now();
  do {
    passes.push_back(runPass(device, opts.seed, false, passes.empty()));
    const Pass& p = passes.back();
    passMs.add(p.passMs);
    flowMs.add(p.flowMs);
    trainMs.add(p.trainMs);
    report.check(std::isfinite(p.maeV) && std::isfinite(p.maeH) &&
                     samePass(p, passes.front()),
                 "train_cold pass " + std::to_string(passes.size()) +
                     " repeats the first pass's work counts and MAE");
  } while (!phaseDone(start, opts.seconds) || passes.size() < 2);
  const double phaseS = msSince(start) / 1000.0;
  const std::size_t n = passMs.size();

  report.endToEnd("setup_s", "s", setupMs.median() / 1000.0, setupMs.size());
  report.endToEnd("peak_rss_mb", "MB", peakRssMb(), 1);
  report.endToEnd("p50_ms", "ms", passMs.median(), n);
  report.endToEnd("p90_ms", "ms", passMs.quantile(0.9), n);
  report.endToEnd("ops_per_s", "1/s", static_cast<double>(n) / phaseS, n);
  report.summary("flow_s", "s", flowMs.median() / 1000.0, n);
  report.summary("train_s", "s", trainMs.median() / 1000.0, n);
  const Pass& first = passes.front();
  report.summary("mae_v_pct", "%", first.maeV, first.testRows);
  report.summary("mae_h_pct", "%", first.maeH, first.testRows);
  for (const auto& [name, v] : workCounts(first)) report.count(name, v);
  report.note("mae_v_pct " + fmt("%.17g", first.maeV) + " mae_h_pct " +
              fmt("%.17g", first.maeH));

  if (!opts.trace) return digest(inputs);

  // Traced phase: the same passes, every stage called (and timed) one by
  // one. Its flows must serialize to the bytes runFlow gave.
  LayerTable layers;
  Samples tracedPassMs, tracedFlowMs;
  std::vector<Pass> traced;
  const auto tstart = Clock::now();
  do {
    traced.push_back(runPass(device, opts.seed, true, traced.empty()));
    const Pass& p = traced.back();
    layers.add(p.layers);
    tracedPassMs.add(p.passMs);
    tracedFlowMs.add(p.flowMs);
    report.check(samePass(p, first),
                 "traced train_cold pass repeats the untraced work counts "
                 "and MAE");
  } while (!phaseDone(tstart, opts.seconds));
  for (std::size_t i = 0; i < kCombos.size(); ++i)
    report.check(traced.front().flowBytes.at(i) == first.flowBytes.at(i),
                 kCombos[i] + ": stage-by-stage flow serializes to the "
                              "runFlow bytes");

  const Pass& t = traced.front();
  for (const char* name :
       {"hls.synth_ms", "rtl.gen_ms", "fpga.pack_ms", "fpga.place_ms",
        "fpga.route_ms", "fpga.sta_ms", "trace.backtrace_ms",
        "core.dataset_ms", "ml.fit_ms", "ml.predict_ms"})
    report.layer(name, "ms", layers.meanMs(name));
  reportPhysicalCounts(report, t.delta, layers.meanMs("fpga.place_ms"));
  report.layer("features.rows", "count", static_cast<double>(t.rows));
  report.layer("ml.boost_rounds", "count",
               static_cast<double>(t.delta(tel::Counter::GbrtBoostingRounds)));
  report.layer("ml.predict_us_per_row", "us",
               layers.meanMs("ml.predict_ms") * 1000.0 /
                   static_cast<double>(2 * t.testRows));
  report.layer("ml.mae_v_pct", "%", t.maeV);
  report.layer("ml.mae_h_pct", "%", t.maeH);

  double stagesMs = 0.0;
  for (const char* name : {"hls.synth_ms", "rtl.gen_ms", "fpga.pack_ms",
                           "fpga.place_ms", "fpga.route_ms", "fpga.sta_ms",
                           "trace.backtrace_ms"})
    stagesMs += layers.meanMs(name);
  const double overheadPct =
      100.0 * (tracedPassMs.median() - passMs.median()) / passMs.median();
  report.layer("trace_overhead_pct", "%", overheadPct);
  report.layer("attr.flow_stages_pct", "%", 100.0 * stagesMs / flowMs.mean());
  report.note("traced: stage sum " + fmt("%.1f", stagesMs) +
              " ms per pass = " +
              fmt("%.1f", 100.0 * stagesMs / tracedFlowMs.mean()) +
              "% of the traced flow wall, " +
              fmt("%.1f", 100.0 * stagesMs / flowMs.mean()) +
              "% of the untraced flow wall; pass overhead " +
              fmt("%+.1f", overheadPct) + "% (" +
              std::to_string(traced.size()) + " traced passes)");
  return digest(inputs);
}

}  // namespace perfbench
