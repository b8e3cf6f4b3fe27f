// predict_stream: the paper's prediction phase as a user meets it. An
// in-process serve::Server holds a GBRT predictor (set-up trains it from
// digit_recognition + spam_filter, saves it and loads it); one closed-loop
// client sends `predict` requests drawn by the seed from all bundled
// designs x directives on/off x top_k, one request per window.
//
// There is no place-and-route here: a request costs hls::synthesize, feature
// extraction and GBRT evaluation over a few hundred to ~1500 functional-unit
// ops. The workload bypasses fpga and the flow cache.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "bench.hpp"
#include "core/dataset_builder.hpp"
#include "core/predictor.hpp"
#include "features/extractor.hpp"
#include "hls/design.hpp"
#include "ir/opcode.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using namespace hcp;
namespace tel = support::telemetry;

const std::vector<std::string> kTrainDesigns = {"digit_recognition",
                                                "spam_filter"};
/// Placer seed of the served model's training flows. Fixed, so every run
/// serves the same model and the workload seed only draws the requests.
constexpr std::uint64_t kModelSeed = 42;
constexpr int kSetups = 3;
constexpr std::uint64_t kMaxTopK = 10;
constexpr std::size_t kDigestBlocks = 8;

struct Request {
  std::string design;
  bool directives = true;
  std::string line;
};

/// The request stream. A block holds every (design, directives) pair once,
/// in a seeded order, each with a seeded top_k, so every complete block
/// costs the same work and only the order and top_k differ between seeds.
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed) : rng_(seed ^ 0x70726564696374ULL) {}

  std::vector<Request> nextBlock() {
    const auto& names = apps::designNames();
    std::vector<Request> block;
    for (const std::size_t i : rng_.permutation(2 * names.size())) {
      Request r;
      r.design = names[i / 2];
      r.directives = i % 2 == 0;
      const std::uint64_t topK = 1 + rng_.uniformInt(kMaxTopK);
      r.line = "{\"id\":\"p" + std::to_string(next_++) +
               "\",\"op\":\"predict\",\"design\":\"" + r.design +
               "\",\"directives\":" + (r.directives ? "true" : "false") +
               ",\"top_k\":" + std::to_string(topK) + "}";
      block.push_back(std::move(r));
    }
    return block;
  }

 private:
  Rng rng_;
  std::uint64_t next_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::size_t fuOps(const hls::SynthesizedDesign& design) {
  std::size_t n = 0;
  for (std::uint32_t f = 0; f < design.module->numFunctions(); ++f) {
    const ir::Function& fn = design.module->function(f);
    for (ir::OpId op = 0; op < fn.numOps(); ++op)
      n += ir::isFunctionalUnit(fn.op(op).opcode) ? 1 : 0;
  }
  return n;
}

/// One predict request, one public call at a time: synthesize, extract the
/// features of every functional-unit op, evaluate the V/H/avg models, rank
/// the source regions as CongestionPredictor::findHotspots does and write
/// the response line as the server does.
std::string stagedPredict(const core::CongestionPredictor& predictor,
                          const Request& req, LayerTimes& times,
                          std::size_t& rows) {
  apps::AppDesign app = timed(times, "apps.design_ms", [&] {
    return apps::makeDesign(req.design, req.directives);
  });
  const hls::SynthesizedDesign design = timed(times, "hls.synth_ms", [&] {
    return hls::synthesize(std::move(app.module), app.directives, {});
  });

  struct Row {
    std::uint32_t function;
    std::int32_t line;
    std::vector<double> x;
  };
  const std::vector<Row> ops = timed(times, "features.extract_ms", [&] {
    features::FeatureExtractor extractor(design, {});
    std::vector<Row> out;
    for (std::uint32_t f = 0; f < design.module->numFunctions(); ++f) {
      const ir::Function& fn = design.module->function(f);
      for (ir::OpId op = 0; op < fn.numOps(); ++op)
        if (ir::isFunctionalUnit(fn.op(op).opcode))
          out.push_back({f, fn.op(op).sourceLine, extractor.extract(f, op)});
    }
    return out;
  });
  rows += ops.size();

  const std::vector<core::OpPrediction> preds = timed(times, "ml.predict_ms", [&] {
    std::vector<core::OpPrediction> out;
    for (const Row& r : ops)
      out.push_back({predictor.verticalModel().predict(r.x),
                     predictor.horizontalModel().predict(r.x),
                     predictor.averageModel().predict(r.x)});
    return out;
  });

  struct Acc {
    double sum = 0.0, max = 0.0;
    std::size_t count = 0;
  };
  std::map<std::pair<std::uint32_t, std::int32_t>, Acc> regions;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Acc& a = regions[{ops[i].function, ops[i].line}];
    a.sum += preds[i].average;
    a.max = std::max(a.max, preds[i].average);
    ++a.count;
  }
  std::vector<core::Hotspot> hotspots;
  for (const auto& [key, a] : regions) {
    core::Hotspot h;
    h.functionName = design.module->function(key.first).name();
    h.sourceLine = key.second;
    h.numOps = a.count;
    h.meanPredicted = a.sum / static_cast<double>(a.count);
    h.maxPredicted = a.max;
    hotspots.push_back(std::move(h));
  }
  std::sort(hotspots.begin(), hotspots.end(),
            [](const core::Hotspot& a, const core::Hotspot& b) {
              return a.meanPredicted > b.meanPredicted;
            });
  const serve::Request parsed = serve::parseRequest(req.line).request;
  if (hotspots.size() > parsed.topK) hotspots.resize(parsed.topK);

  std::string b = serve::responsePrefix(parsed);
  b += "\"ok\":true,\"op\":\"predict\",\"design\":\"";
  b += support::json::escape(req.design);
  b += "\",\"hotspots\":[";
  for (std::size_t i = 0; i < hotspots.size(); ++i) {
    const core::Hotspot& h = hotspots[i];
    if (i != 0) b += ',';
    b += "{\"function\":\"" + support::json::escape(h.functionName) +
         "\",\"line\":" + std::to_string(h.sourceLine) +
         ",\"ops\":" + std::to_string(h.numOps) + ",\"mean\":";
    appendDouble(b, h.meanPredicted);
    b += ",\"max\":";
    appendDouble(b, h.maxPredicted);
    b += '}';
  }
  b += "]}\n";
  return b;
}

}  // namespace

std::string runPredictStream(const Options& opts, Report& report) {
  const auto device = fpga::Device::xc7z020like();
  core::FlowConfig config;
  config.seed = kModelSeed;

  // Set-up: train the predictor from two designs' flows, save it and start
  // a server that loads it. Repeated; every repetition must save the same
  // model bytes.
  Samples setupMs, fitMs, datasetMs;
  std::unique_ptr<serve::Server> server;
  std::string modelPath, modelBytes;
  std::size_t trainRows = 0;
  std::uint64_t boostRounds = 0;
  for (int i = 0; i < kSetups; ++i) {
    const std::string path = opts.workdir + "/model-" + std::to_string(i) + ".hcp";
    const auto t0 = Clock::now();
    LayerTimes t;
    CounterDelta delta;
    std::vector<core::FlowResult> flows;
    for (const std::string& name : kTrainDesigns)
      flows.push_back(core::runFlow(apps::makeDesign(name), device, config));
    const core::LabeledDataset data = timed(
        t, "core.dataset_ms", [&] { return core::buildDataset(flows, {}); });
    core::CongestionPredictor predictor;
    timed(t, "ml.fit_ms", [&] { predictor.train(data); });
    predictor.save(path);
    serve::ServerConfig sc;
    sc.modelPath = path;
    server = std::make_unique<serve::Server>(sc);
    setupMs.add(msSince(t0));
    delta.stop();
    fitMs.add(t["ml.fit_ms"]);
    datasetMs.add(t["core.dataset_ms"]);
    trainRows = data.vertical.size();
    boostRounds = delta(tel::Counter::GbrtBoostingRounds);
    const std::string bytes = slurp(path);
    if (i == 0) {
      modelBytes = bytes;
      modelPath = path;
    }
    report.check(bytes == modelBytes,
                 "set-up " + std::to_string(i) + " saves the same model bytes");
  }

  // Input sizes: functional-unit ops per (design, directives).
  std::map<std::pair<std::string, bool>, std::size_t> fuOpsOf;
  std::string sizes = "fu_ops";
  for (const std::string& name : apps::designNames())
    for (const bool dirs : {true, false}) {
      apps::AppDesign app = apps::makeDesign(name, dirs);
      const auto design = hls::synthesize(std::move(app.module), app.directives, {});
      fuOpsOf[{name, dirs}] = fuOps(design);
      sizes += " " + name + (dirs ? "" : "/nodirs") + ":" +
               std::to_string(fuOpsOf[{name, dirs}]);
    }
  report.note(sizes);

  std::string inputs = "predict_stream seed=" + std::to_string(opts.seed) +
                       " model=" + digest(modelBytes) + "\n";
  {
    RequestStream stream(opts.seed);
    for (std::size_t b = 0; b < kDigestBlocks; ++b)
      for (const Request& r : stream.nextBlock()) inputs += r.line + "\n";
  }

  // Untraced phase: every request through the server, one window each.
  RequestStream stream(opts.seed);
  std::vector<std::string> responses;
  Samples latency;
  std::vector<std::uint64_t> firstBlockCounts;
  CounterDelta phase;
  const auto start = Clock::now();
  do {
    CounterDelta block;
    std::uint64_t fu = 0;
    for (const Request& r : stream.nextBlock()) {
      const auto t0 = Clock::now();
      std::istringstream in(r.line + "\n\n");
      std::ostringstream out;
      const bool served = server->serve(in, out);
      std::string response = out.str();
      latency.add(msSince(t0));
      const bool ok = served && !response.empty() && response.back() == '\n' &&
                      std::count(response.begin(), response.end(), '\n') == 1 &&
                      responseOk(response);
      if (!ok) report.check(false, "predict response: " + response);
      else report.attempt(false);
      responses.push_back(std::move(response));
      fu += fuOpsOf[{r.design, r.directives}];
    }
    block.stop();
    const std::vector<std::uint64_t> counts = {
        block(tel::Counter::ServeRequests), block(tel::Counter::ServeErrors),
        block(tel::Counter::HlsFunctionsSynthesized), fu};
    if (firstBlockCounts.empty()) firstBlockCounts = counts;
    report.check(counts == firstBlockCounts,
                 "predict block repeats the first block's work counts");
  } while (!phaseDone(start, opts.seconds) || latency.size() < 100);
  const double phaseS = msSince(start) / 1000.0;
  phase.stop();
  const std::size_t n = latency.size();

  report.endToEnd("setup_s", "s", setupMs.median() / 1000.0, setupMs.size());
  report.endToEnd("peak_rss_mb", "MB", peakRssMb(), 1);
  report.endToEnd("p50_ms", "ms", latency.median(), n);
  report.endToEnd("p90_ms", "ms", latency.quantile(0.9), n);
  report.endToEnd("ops_per_s", "1/s", static_cast<double>(n) / phaseS, n);
  report.summary("predict_p50_ms", "ms", latency.median(), n);
  report.summary("predict_p90_ms", "ms", latency.quantile(0.9), n);
  report.summary("predict_rps", "req/s", static_cast<double>(n) / phaseS, n);
  report.count("block_serve_requests", firstBlockCounts[0]);
  report.count("block_serve_errors", firstBlockCounts[1]);
  report.count("block_hls_functions_synthesized", firstBlockCounts[2]);
  report.count("block_fu_ops_predicted", firstBlockCounts[3]);
  report.count("train_rows", trainRows);
  report.count("train_boosting_rounds", boostRounds);
  report.count("model_bytes", modelBytes.size());

  if (!opts.trace) return digest(inputs);

  report.layer("serve.queue_wait_ms", "ms",
               phase.histMean(tel::Histogram::ServeQueueWaitMs));
  report.layer("serve.exec_ms", "ms", phase.histMean(tel::Histogram::ServeExecMs));
  report.layer("serve.serialize_ms", "ms",
               phase.histMean(tel::Histogram::ServeSerializeMs));
  report.layer("core.dataset_ms", "ms", datasetMs.median());
  report.layer("ml.fit_ms", "ms", fitMs.median());
  report.layer("features.rows", "count", static_cast<double>(trainRows));
  report.layer("ml.boost_rounds", "count", static_cast<double>(boostRounds));
  report.layer("ml.model_bytes", "bytes", static_cast<double>(modelBytes.size()));

  // Traced phase: the same request stream, each request staged through the
  // public calls it makes, until the phase time is up or every untraced
  // request was replayed. Response bytes must match the server's.
  const auto tl = Clock::now();
  const core::CongestionPredictor predictor =
      core::CongestionPredictor::load(modelPath);
  report.layer("ml.model_load_ms", "ms", msSince(tl));

  RequestStream replay(opts.seed);
  LayerTable layers;
  Samples tracedLatency;
  double synthMs = 0.0, extractMs = 0.0, gbrtMs = 0.0, untracedMs = 0.0;
  std::size_t rows = 0, firstBlockRows = 0, replayed = 0;
  const auto tstart = Clock::now();
  while (replayed < responses.size() && !phaseDone(tstart, opts.seconds)) {
    for (const Request& r : replay.nextBlock()) {
      LayerTimes t;
      const auto t0 = Clock::now();
      const std::string response = stagedPredict(predictor, r, t, rows);
      tracedLatency.add(msSince(t0));
      layers.add(t);
      synthMs += t["hls.synth_ms"];
      extractMs += t["features.extract_ms"];
      gbrtMs += t["ml.predict_ms"];
      untracedMs += latency.values()[replayed];
      report.check(response == responses[replayed],
                   "traced predict response equals the server's for " + r.line);
      ++replayed;
    }
    if (firstBlockRows == 0) firstBlockRows = rows;
  }
  report.check(firstBlockRows == firstBlockCounts[3],
               "traced first block extracts every functional-unit op");
  for (const char* name : {"apps.design_ms", "hls.synth_ms",
                           "features.extract_ms", "ml.predict_ms"})
    report.layer(name, "ms", layers.meanMs(name));
  report.layer("features.fu_ops", "count", static_cast<double>(firstBlockRows));
  report.layer("ml.predict_us_per_row", "us",
               rows == 0 ? 0.0 : gbrtMs * 1000.0 / static_cast<double>(3 * rows));
  report.layer("attr.predict_synth_pct", "%", 100.0 * synthMs / untracedMs);
  report.layer("attr.predict_extract_pct", "%", 100.0 * extractMs / untracedMs);
  report.layer("attr.predict_gbrt_pct", "%", 100.0 * gbrtMs / untracedMs);
  const double overheadPct =
      100.0 * (tracedLatency.median() - latency.median()) / latency.median();
  report.layer("trace_overhead_pct", "%", overheadPct);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "traced: %zu requests; of the untraced request time "
                "synthesis %.1f%%, extraction %.1f%%, GBRT %.1f%%, other "
                "%.1f%%; overhead %+.1f%%",
                replayed, 100.0 * synthMs / untracedMs,
                100.0 * extractMs / untracedMs, 100.0 * gbrtMs / untracedMs,
                100.0 * (untracedMs - synthMs - extractMs - gbrtMs) / untracedMs,
                overheadPct);
  report.note(buf);
  return digest(inputs);
}

}  // namespace perfbench
