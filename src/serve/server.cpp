#include "serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <ostream>
#include <unordered_map>

#include "apps/registry.hpp"
#include "core/flow.hpp"
#include "core/flow_serialize.hpp"
#include "core/map_predictor.hpp"
#include "core/predictor.hpp"
#include "ml/mapnet.hpp"
#include "hls/design.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/flowcache.hpp"
#include "support/json.hpp"
#include "support/metrics_export.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"
#include "support/textio.hpp"
#include "support/tracing.hpp"

namespace hcp::serve {

namespace tel = support::telemetry;
namespace json = support::json;
namespace tracing = support::tracing;
namespace metrics = support::metrics;

namespace {

constexpr std::size_t kNoWork = static_cast<std::size_t>(-1);

/// %.17g — same round-trip-exact convention as the run report, so response
/// bytes are comparable across runs and thread counts.
void appendDouble(std::string& s, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  s += buf;
}

void appendU64(std::string& s, std::uint64_t v) {
  s += std::to_string(v);
}

std::string flowBody(const core::FlowResult& result, const std::string& key,
                     bool cached) {
  std::string b = "\"ok\":true,\"op\":\"flow\",\"design\":\"";
  b += json::escape(result.name);
  b += "\",\"key\":\"";
  b += key;  // 16-char hex (or "" when the cache is off); never needs escaping
  b += "\",\"cached\":";
  b += cached ? "true" : "false";
  b += ",\"wns_ns\":";
  appendDouble(b, result.wnsNs);
  b += ",\"fmax_mhz\":";
  appendDouble(b, result.maxFrequencyMhz);
  b += ",\"latency_cycles\":";
  appendU64(b, result.latencyCycles);
  b += ",\"max_v_congestion\":";
  appendDouble(b, result.maxVCongestion);
  b += ",\"max_h_congestion\":";
  appendDouble(b, result.maxHCongestion);
  b += ",\"congested_tiles\":";
  appendU64(b, result.congestedTiles);
  b += '}';
  return b;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)), device_(fpga::Device::xc7z020like()) {
  if (config_.maxBatch == 0) config_.maxBatch = 1;
  if (config_.metricsInterval == 0) config_.metricsInterval = 1;
  // A daemon is always observable: the metrics op and the periodic snapshot
  // read live telemetry histograms, which only fill while collection is on.
  tel::setEnabled(true);
  startNs_ = nowNs();
  if (!config_.modelPath.empty())
    predictor_ = std::make_unique<core::CongestionPredictor>(
        core::CongestionPredictor::load(config_.modelPath));
  if (!config_.mapModelPath.empty())
    mapModel_ = std::make_unique<ml::MapNet>(
        ml::loadMapModelFromFile(config_.mapModelPath));
}

Server::~Server() = default;

bool Server::serve(std::istream& in, std::ostream& out) {
  std::string line;
  while (!shutdown_ && std::getline(in, line)) {
    if (line.empty()) {
      if (!flushPending(out)) return false;
      continue;
    }
    admit(line);
  }
  if (!flushPending(out)) return false;
  out.flush();
  return !out.fail();
}

void Server::admit(std::string_view line) {
  Pending p;
  p.ctx.admitNs = nowNs();
  ++seq_;
  if (line.size() > config_.maxLineBytes) {
    ++stats_.rejected;
    tel::count(tel::Counter::ServeRejected);
    p.ctx.rid = "#" + std::to_string(seq_);
    p.body = errorBody("request line exceeds " +
                       std::to_string(config_.maxLineBytes) + " bytes");
    p.isError = true;
    pending_.push_back(std::move(p));
    return;
  }

  ParseOutcome parsed = parseRequest(line);
  p.request = std::move(parsed.request);
  p.ctx.rid = p.request.id.empty() ? "#" + std::to_string(seq_)
                                   : p.request.id;
  if (!parsed.ok) {
    ++stats_.admitted;
    tel::count(tel::Counter::ServeRequests);
    p.body = errorBody(parsed.error);
    p.isError = true;
    pending_.push_back(std::move(p));
    return;
  }

  switch (p.request.op) {
    case Op::Status:
      ++stats_.admitted;
      tel::count(tel::Counter::ServeRequests);
      p.body = statusBody();
      break;
    case Op::Metrics:
      ++stats_.admitted;
      tel::count(tel::Counter::ServeRequests);
      p.body = metricsBody();
      break;
    case Op::Shutdown:
      ++stats_.admitted;
      tel::count(tel::Counter::ServeRequests);
      p.body = "\"ok\":true,\"op\":\"shutdown\"}";
      shutdown_ = true;
      break;
    case Op::Predict:
    case Op::Flow:
    case Op::PredictMap:
      if (pendingWork_ >= config_.queueDepth) {
        ++stats_.rejected;
        tel::count(tel::Counter::ServeRejected);
        p.body = errorBody("queue full (depth " +
                           std::to_string(config_.queueDepth) + ")");
        p.isError = true;
      } else {
        ++stats_.admitted;
        tel::count(tel::Counter::ServeRequests);
        if (p.request.op == Op::PredictMap)
          tel::count(tel::Counter::ServeMapRequests);
        ++pendingWork_;
      }
      break;
  }
  pending_.push_back(std::move(p));
}

bool Server::flushPending(std::ostream& out) {
  if (pending_.empty()) return !out.fail();
  tel::observe(tel::Histogram::ServeQueueDepth,
               static_cast<double>(pendingWork_));
  stats_.queuePeak = std::max(stats_.queuePeak, pendingWork_);

  // Dedupe: requests naming identical work share one computation and one
  // byte-identical body. This is also what makes serial and parallel flushes
  // indistinguishable — without it, the second of two equal flow requests
  // would report cached:true serially (the first one's store landed) but
  // cached:false in a concurrent batch.
  std::vector<const Request*> work;
  std::unordered_map<std::string, std::size_t> indexByKey;
  std::vector<std::size_t> slot(pending_.size(), kNoWork);
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (!pending_[i].needsWork()) continue;
    const auto [it, fresh] =
        indexByKey.emplace(workKey(pending_[i].request), work.size());
    if (fresh) work.push_back(&pending_[i].request);
    slot[i] = it->second;
  }

  // Per-batch execution windows, stamped on the serving thread around the
  // pool dispatch. Every request deduped into a batch shares its window —
  // the most honest per-request attribution available without letting pool
  // workers touch the (possibly logical) server clock.
  struct Window {
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
  };
  std::vector<Window> windows((work.size() + config_.maxBatch - 1) /
                              config_.maxBatch);
  std::vector<WorkResult> results(work.size());
  for (std::size_t base = 0; base < work.size(); base += config_.maxBatch) {
    const std::size_t n = std::min(config_.maxBatch, work.size() - base);
    Window& w = windows[base / config_.maxBatch];
    w.startNs = nowNs();
    {
      HCP_SPAN("serve_batch");
      tel::count(tel::Counter::ServeBatches);
      tel::observe(tel::Histogram::ServeBatchSize, static_cast<double>(n));
      ++stats_.batches;
      auto chunk = support::parallelMapIndex(
          n, [&](std::size_t i) { return executeWork(*work[base + i]); });
      for (std::size_t i = 0; i < n; ++i)
        results[base + i] = std::move(chunk[i]);
    }
    w.endNs = nowNs();
    maybeStatusLine();
  }

  for (std::size_t i = 0; i < pending_.size(); ++i) {
    Pending& p = pending_[i];
    const std::string* body = &p.body;
    bool isError = p.isError;
    bool fromCache = false;
    if (slot[i] != kNoWork) {
      const WorkResult& r = results[slot[i]];
      body = &r.body;
      isError = r.isError;
      fromCache = r.fromCache;
      const Window& w = windows[slot[i] / config_.maxBatch];
      p.ctx.execStartNs = w.startNs;
      p.ctx.execEndNs = w.endNs;
    }
    if (isError) {
      ++stats_.errors;
      tel::count(tel::Counter::ServeErrors);
    }
    if (fromCache) {
      ++stats_.cacheHits;
      tel::count(tel::Counter::ServeCacheHits);
    }
    p.ctx.serializeStartNs = nowNs();
    out << responsePrefix(p.request) << *body << '\n';
    p.ctx.serializeEndNs = nowNs();
    finishRequest(p.ctx);
    ++stats_.served;
    if (out.fail()) break;
  }
  pending_.clear();
  pendingWork_ = 0;
  out.flush();

  // The flush window just closed: workers are idle, so this is a quiescent
  // point — safe for both the metrics snapshot and the trace auto-flush.
  ++windows_;
  if (windows_ % config_.metricsInterval == 0) {
    writeMetricsNow();
    tracing::autoFlush();
  }
  return !out.fail();
}

Server::WorkResult Server::executeWork(const Request& r) const {
  HCP_SPAN("serve_request");
  WorkResult out;
  out.isError = true;
  try {
    if (support::failpoint::shouldFail("serve.request"))
      throw Error("injected serve.request failure");
    if (r.op == Op::Predict) return executePredict(r);
    if (r.op == Op::PredictMap) return executePredictMap(r);
    return executeFlow(r);
  } catch (const Error& e) {
    out.body = errorBody(e.what());
  } catch (const std::exception& e) {
    out.body = errorBody(std::string("internal error: ") + e.what());
  }
  return out;
}

Server::WorkResult Server::executePredict(const Request& r) const {
  if (!predictor_)
    throw Error("no model loaded (start hcp_serve with --model FILE)");
  auto app = apps::makeDesign(r.design, r.directives);
  const auto design =
      hls::synthesize(std::move(app.module), app.directives, {});
  const auto hotspots = predictor_->findHotspots(design, {}, r.topK);

  WorkResult out;
  std::string& b = out.body;
  b = "\"ok\":true,\"op\":\"predict\",\"design\":\"";
  b += json::escape(r.design);
  b += "\",\"hotspots\":[";
  for (std::size_t i = 0; i < hotspots.size(); ++i) {
    const auto& h = hotspots[i];
    if (i != 0) b += ',';
    b += "{\"function\":\"";
    b += json::escape(h.functionName);
    b += "\",\"line\":";
    b += std::to_string(h.sourceLine);
    b += ",\"ops\":";
    appendU64(b, h.numOps);
    b += ",\"mean\":";
    appendDouble(b, h.meanPredicted);
    b += ",\"max\":";
    appendDouble(b, h.maxPredicted);
    b += '}';
  }
  b += "]}";
  return out;
}

Server::WorkResult Server::executeFlow(const Request& r) const {
  WorkResult out;
  if (!r.cacheKey.empty()) {
    // Flow-by-key answers straight from the cache, never computes: a key
    // carries no design inputs to recompute from.
    support::flowcache::FlowCache* cache = support::flowcache::global();
    if (cache == nullptr)
      throw Error("flow-by-key needs a flow cache (--cache DIR / HCP_CACHE)");
    std::optional<std::string> payload = cache->load(r.cacheKey);
    if (!payload)
      throw Error("key '" + r.cacheKey + "' is not in the flow cache");
    const core::FlowResult result = core::readFlowResult(*payload);
    tel::count(tel::Counter::FlowCacheHit);
    out.body = flowBody(result, r.cacheKey, true);
    out.fromCache = true;
    return out;
  }

  core::FlowConfig cfg;
  cfg.seed = r.seed;
  core::CachedFlow flow = core::runFlowCached(
      apps::makeDesign(r.design, r.directives), device_, cfg);
  out.fromCache = flow.fromCache;
  out.body = flowBody(flow.result, flow.cacheKey, flow.fromCache);
  return out;
}

Server::WorkResult Server::executePredictMap(const Request& r) const {
  if (!mapModel_)
    throw Error("no map model loaded (start hcp_serve with --map-model FILE)");
  core::FlowConfig cfg;
  cfg.seed = r.seed;
  const ml::GridSample grid = core::placeAndExtract(
      apps::makeDesign(r.design, r.directives), device_, cfg);
  const ml::MapPrediction map = mapModel_->predict(grid);

  WorkResult out;
  std::string& b = out.body;
  b = "\"ok\":true,\"op\":\"predict_map\",\"design\":\"";
  b += json::escape(r.design);
  b += "\",\"topology\":\"";
  b += topologyName(mapModel_->config().topology);
  b += "\",\"width\":";
  appendU64(b, map.width);
  b += ",\"height\":";
  appendU64(b, map.height);
  b += ",\"max_v_util\":";
  appendDouble(b, map.maxVUtil());
  b += ",\"max_h_util\":";
  appendDouble(b, map.maxHUtil());
  b += ",\"tiles_over_100\":";
  appendU64(b, map.tilesOver(100.0));
  b += ",\"v_util\":[";
  for (std::size_t i = 0; i < map.vUtil.size(); ++i) {
    if (i != 0) b += ',';
    appendDouble(b, map.vUtil[i]);
  }
  b += "],\"h_util\":[";
  for (std::size_t i = 0; i < map.hUtil.size(); ++i) {
    if (i != 0) b += ',';
    appendDouble(b, map.hUtil[i]);
  }
  b += "]}";
  return out;
}

std::string Server::statusBody() const {
  std::string b = "\"ok\":true,\"op\":\"status\",\"model\":";
  b += predictor_ ? "true" : "false";
  b += ",\"map_model\":";
  b += mapModel_ ? "true" : "false";
  b += ",\"uptime_ms\":";
  appendDouble(b, uptimeMs());
  b += ",\"requests_in_flight\":";
  appendU64(b, pendingWork_);
  b += ",\"admitted\":";
  appendU64(b, stats_.admitted);
  b += ",\"served\":";
  appendU64(b, stats_.served);
  b += ",\"errors\":";
  appendU64(b, stats_.errors);
  b += ",\"rejected\":";
  appendU64(b, stats_.rejected);
  b += ",\"batches\":";
  appendU64(b, stats_.batches);
  b += ",\"cache_hits\":";
  appendU64(b, stats_.cacheHits);
  b += ",\"queue_peak\":";
  appendU64(b, stats_.queuePeak);
  b += ",\"flowcache_degraded\":";
  b += support::flowcache::degraded() ? "true" : "false";
  b += '}';
  return b;
}

std::uint64_t Server::nowNs() {
  if (config_.tickNs != 0) {
    clockNs_ += config_.tickNs;
    lastNowNs_ = clockNs_;
  } else {
    lastNowNs_ = tel::detail::nowNs();
  }
  return lastNowNs_;
}

double Server::uptimeMs() const {
  if (lastNowNs_ <= startNs_) return 0.0;
  return static_cast<double>(lastNowNs_ - startNs_) / 1e6;
}

metrics::Gauges Server::gauges() const {
  metrics::Gauges g;
  g.tool = "hcp_serve";
  g.uptimeMs = uptimeMs();
  g.requestsInFlight = pendingWork_;
  g.served = stats_.served;
  g.queuePeak = stats_.queuePeak;
  if (g.uptimeMs > 0.0)
    g.qps = static_cast<double>(stats_.served) * 1000.0 / g.uptimeMs;
  if (stats_.served != 0)
    g.cacheHitRate = static_cast<double>(stats_.cacheHits) /
                     static_cast<double>(stats_.served);
  g.model = predictor_ != nullptr;
  g.flowcacheDegraded = support::flowcache::degraded();
  return g;
}

std::string Server::metricsBody() const {
  return "\"ok\":true,\"op\":\"metrics\"," +
         metrics::jsonBody(gauges(), tel::snapshot()) + "}";
}

void Server::writeMetricsNow() {
  if (config_.metricsOutPath.empty()) return;
  const metrics::Gauges g = gauges();
  const tel::Snapshot snap = tel::snapshot();
  try {
    {
      support::txt::CheckedFileWriter w(config_.metricsOutPath, "metrics");
      w.stream() << '{' << metrics::jsonBody(g, snap) << "}\n";
      w.commit();
    }
    {
      support::txt::CheckedFileWriter w(
          metrics::promPathFor(config_.metricsOutPath), "metrics");
      metrics::writePrometheus(w.stream(), g, snap);
      w.commit();
    }
    tel::count(tel::Counter::MetricsWrites);
  } catch (const Error& e) {
    // Degrade: the daemon keeps serving; the failure is visible in the
    // metrics_write_error counter (and once on stderr).
    tel::count(tel::Counter::MetricsWriteError);
    if (!metricsErrorLogged_) {
      metricsErrorLogged_ = true;
      std::fprintf(stderr, "[hcp_serve] metrics snapshot failed: %s\n",
                   e.what());
    }
  }
}

void Server::maybeStatusLine() {
  if (config_.statusEveryBatches == 0) return;
  if (stats_.batches % config_.statusEveryBatches != 0) return;
  std::fprintf(stderr,
               "[hcp_serve] batches=%llu served=%llu errors=%llu "
               "rejected=%llu cache_hits=%llu flowcache_degraded=%d\n",
               static_cast<unsigned long long>(stats_.batches),
               static_cast<unsigned long long>(stats_.served),
               static_cast<unsigned long long>(stats_.errors),
               static_cast<unsigned long long>(stats_.rejected),
               static_cast<unsigned long long>(stats_.cacheHits),
               support::flowcache::degraded() ? 1 : 0);
}

}  // namespace hcp::serve
