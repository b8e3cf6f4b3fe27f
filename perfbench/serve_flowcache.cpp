// serve_flowcache: an in-process serve::Server over a flow cache that set-up
// prefills with a seeded set of (design, seed) keys, face_detection among
// them. One closed-loop client sends `flow` requests, one per window. Most
// are warm replays of the prefilled keys, by design name and by key; one
// request in every block is cold, at a fresh seed of spam_filter or
// digit_recognition: it misses, runs the full flow and stores the result.
//
// Warm cost is the cache's read path (key, load, parse); the cold share
// writes to the same cache, so a change that speeds reads by slowing writes
// shows. The workload bypasses ml entirely.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "bench.hpp"
#include "core/flow_serialize.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/flowcache.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using namespace hcp;
namespace tel = support::telemetry;
namespace fc = support::flowcache;

const std::vector<std::string> kPrefill = {
    "face_detection", "digit_spam", "spam_filter", "rendering_3d",
    "optical_flow"};
const std::vector<std::string> kCold = {"spam_filter", "digit_recognition"};
constexpr int kSetups = 3;
/// Each block replays every prefilled key this often by name and by key.
constexpr std::size_t kRepeats = 2;
constexpr std::size_t kDigestBlocks = 8;

struct Key {
  std::string design;
  std::uint64_t seed = 0;
  std::string key;       ///< flow-cache key, from the prefill response
  std::string warmBody;  ///< prefill response body with "cached":true
  std::size_t payloadBytes = 0;
};

struct Request {
  enum class Kind { ByName, ByKey, Cold } kind = Kind::ByName;
  std::size_t keyIndex = 0;  ///< into the prefilled keys (warm requests)
  std::string design;
  std::uint64_t seed = 0;
  std::string line;
};

std::string byName(const std::string& id, const std::string& design,
                   std::uint64_t seed) {
  std::string s = "{";
  if (!id.empty()) s += "\"id\":\"" + id + "\",";
  return s + "\"op\":\"flow\",\"design\":\"" + design +
         "\",\"seed\":" + std::to_string(seed) + "}";
}

/// The request stream. A block holds every prefilled key kRepeats times by
/// name and kRepeats times by key, plus one cold request, in a seeded order,
/// so every complete block costs the same kind of work.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, const std::vector<Key>& keys)
      : rng_(seed ^ 0x666c6f77636163ULL), keys_(keys) {
    coldSeedBase_ = (std::uint64_t{1} << 40) + rng_.uniformInt(1u << 30);
  }

  std::vector<Request> nextBlock() {
    std::vector<Request> block;
    for (std::size_t k = 0; k < keys_.size(); ++k)
      for (std::size_t r = 0; r < kRepeats; ++r)
        for (const auto kind : {Request::Kind::ByName, Request::Kind::ByKey}) {
          Request q;
          q.kind = kind;
          q.keyIndex = k;
          q.design = keys_[k].design;
          q.seed = keys_[k].seed;
          block.push_back(std::move(q));
        }
    Request cold;
    cold.kind = Request::Kind::Cold;
    cold.design = kCold[blocks_ % kCold.size()];
    cold.seed = coldSeedBase_ + blocks_;
    block.push_back(std::move(cold));
    rng_.shuffle(block);
    ++blocks_;
    for (Request& q : block) {
      std::string id = "f";
      id += std::to_string(next_++);
      q.line = q.kind == Request::Kind::ByKey
                   ? "{\"id\":\"" + id + "\",\"op\":\"flow\",\"key\":\"" +
                         keys_[q.keyIndex].key + "\"}"
                   : byName(id, q.design, q.seed);
    }
    return block;
  }

 private:
  Rng rng_;
  const std::vector<Key>& keys_;
  std::uint64_t coldSeedBase_ = 0;
  std::uint64_t blocks_ = 0;
  std::uint64_t next_ = 0;
};

/// Sends one request window; returns the response text.
std::string send(serve::Server& server, const std::string& line, bool& served) {
  std::istringstream in(line + "\n\n");
  std::ostringstream out;
  served = server.serve(in, out);
  return out.str();
}

/// The `flow` response body the server writes for `result`.
std::string flowBody(const core::FlowResult& result, const std::string& key,
                     bool cached) {
  std::string b = "\"ok\":true,\"op\":\"flow\",\"design\":\"";
  b += support::json::escape(result.name);
  b += "\",\"key\":\"" + key + "\",\"cached\":";
  b += cached ? "true" : "false";
  b += ",\"wns_ns\":";
  appendDouble(b, result.wnsNs);
  b += ",\"fmax_mhz\":";
  appendDouble(b, result.maxFrequencyMhz);
  b += ",\"latency_cycles\":" + std::to_string(result.latencyCycles);
  b += ",\"max_v_congestion\":";
  appendDouble(b, result.maxVCongestion);
  b += ",\"max_h_congestion\":";
  appendDouble(b, result.maxHCongestion);
  b += ",\"congested_tiles\":" + std::to_string(result.congestedTiles) + "}";
  return b;
}

/// One flow request, one public call at a time, against `cache`.
std::string stagedRequest(const Request& q, const std::vector<Key>& keys,
                          const fc::FlowCache& cache,
                          const fpga::Device& device, LayerTimes& t) {
  const auto parse = [&](const std::string& payload) {
    std::istringstream is(payload);
    return core::readFlowResult(is);
  };
  std::string body;
  if (q.kind == Request::Kind::ByKey) {
    const std::string& key = keys[q.keyIndex].key;
    const auto payload =
        timed(t, "flowcache.load_ms", [&] { return cache.load(key); });
    if (!payload) throw Error("prefilled key " + key + " missing");
    const core::FlowResult result =
        timed(t, "core.flow_parse_ms", [&] { return parse(*payload); });
    body = timed(t, "body", [&] { return flowBody(result, key, true); });
  } else {
    core::FlowConfig config;
    config.seed = q.seed;
    apps::AppDesign app = timed(t, "apps.design_ms",
                                [&] { return apps::makeDesign(q.design); });
    const std::string key = timed(t, "core.cache_key_ms", [&] {
      return core::flowCacheKey(app, device, config);
    });
    const auto payload =
        timed(t, "flowcache.load_ms", [&] { return cache.load(key); });
    if (payload) {
      const core::FlowResult result =
          timed(t, "core.flow_parse_ms", [&] { return parse(*payload); });
      body = timed(t, "body", [&] { return flowBody(result, key, true); });
    } else {
      const core::FlowResult result =
          stagedFlow(std::move(app), device, config, t);
      const std::string bytes =
          timed(t, "core.flow_write_ms", [&] { return flowBytes(result); });
      timed(t, "flowcache.store_ms", [&] { return cache.store(key, bytes); });
      body = timed(t, "body", [&] { return flowBody(result, key, false); });
    }
  }
  return serve::responsePrefix(serve::parseRequest(q.line).request) + body + "\n";
}

}  // namespace

std::string runServeFlowcache(const Options& opts, Report& report) {
  const auto device = fpga::Device::xc7z020like();
  Rng keyRng(opts.seed ^ 0x707265666c6cULL);
  std::vector<Key> keys;
  for (const std::string& design : kPrefill) {
    Key k;
    k.design = design;
    k.seed = 1 + keyRng.uniformInt(std::uint64_t{1} << 31);
    keys.push_back(std::move(k));
  }

  // Set-up: start a server on an empty cache directory and prefill it with
  // one cold request per key. Repeated into fresh directories; every
  // repetition must answer with the same bytes.
  Samples setupMs;
  std::unique_ptr<serve::Server> server;
  std::vector<std::string> prefillResponses;
  for (int i = 0; i < kSetups; ++i) {
    const std::string dir = opts.workdir + "/cache-" + std::to_string(i);
    const auto t0 = Clock::now();
    fc::setGlobalDir(dir);
    server = std::make_unique<serve::Server>(serve::ServerConfig{});
    std::vector<std::string> responses;
    for (const Key& k : keys) {
      bool served = false;
      responses.push_back(send(*server, byName("", k.design, k.seed), served));
      report.check(served && responseOk(responses.back()) &&
                       responses.back().find("\"cached\":false") != std::string::npos,
                   "prefill of " + k.design + " answers cold: " + responses.back());
    }
    setupMs.add(msSince(t0));
    if (i == 0) prefillResponses = responses;
    report.check(responses == prefillResponses,
                 "set-up " + std::to_string(i) + " answers the same bytes");
  }
  if (report.failed() != 0) throw Error("flow-cache prefill failed");
  const fc::FlowCache tracedCache(opts.workdir + "/cache-0");
  std::string sizes = "payload_bytes";
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Key& k = keys[i];
    const std::string& r = prefillResponses[i];
    k.key = support::json::parse(r).find("key")->asString();
    k.warmBody = r.substr(1, r.size() - 2);  // drop "{" and "\n"
    const std::size_t at = k.warmBody.find("\"cached\":false");
    k.warmBody.replace(at, 14, "\"cached\":true");
    k.payloadBytes = tracedCache.load(k.key).value_or("").size();
    sizes += " " + k.design + ":" + std::to_string(k.payloadBytes);
  }
  report.note(sizes);

  std::string inputs = "serve_flowcache seed=" + std::to_string(opts.seed) + "\n";
  {
    RequestStream stream(opts.seed, keys);
    for (std::size_t b = 0; b < kDigestBlocks; ++b)
      for (const Request& q : stream.nextBlock()) inputs += q.line + "\n";
  }

  // Untraced phase: every request through the server.
  RequestStream stream(opts.seed, keys);
  std::vector<std::string> responses;
  Samples all, warm, cold;
  std::vector<std::uint64_t> firstBlockCounts;
  CounterDelta phase;
  const auto start = Clock::now();
  do {
    CounterDelta block;
    std::uint64_t parsedBytes = 0;
    for (const Request& q : stream.nextBlock()) {
      const auto t0 = Clock::now();
      bool served = false;
      std::string response = send(*server, q.line, served);
      const double ms = msSince(t0);
      all.add(ms);
      bool ok = served && responseOk(response);
      if (q.kind == Request::Kind::Cold) {
        cold.add(ms);
        ok = ok && response.find("\"cached\":false") != std::string::npos;
      } else {
        warm.add(ms);
        parsedBytes += keys[q.keyIndex].payloadBytes;
        ok = ok && response == serve::responsePrefix(
                                   serve::parseRequest(q.line).request) +
                                   keys[q.keyIndex].warmBody + "\n";
      }
      if (!ok) report.check(false, "flow response to " + q.line + ": " + response);
      else report.attempt(false);
      responses.push_back(std::move(response));
    }
    block.stop();
    const std::vector<std::uint64_t> counts = {
        block(tel::Counter::FlowCacheHit), block(tel::Counter::FlowCacheMiss),
        block(tel::Counter::FlowCacheWrite), block(tel::Counter::ServeCacheHits),
        parsedBytes};
    if (firstBlockCounts.empty()) firstBlockCounts = counts;
    report.check(counts == firstBlockCounts,
                 "flow block repeats the first block's cache counts");
  } while (!phaseDone(start, opts.seconds) || warm.size() < 100);
  const double phaseS = msSince(start) / 1000.0;
  phase.stop();

  report.endToEnd("setup_s", "s", setupMs.median() / 1000.0, setupMs.size());
  report.endToEnd("peak_rss_mb", "MB", peakRssMb(), 1);
  report.endToEnd("p50_ms", "ms", all.median(), all.size());
  report.endToEnd("p90_ms", "ms", all.quantile(0.9), all.size());
  report.endToEnd("ops_per_s", "1/s", static_cast<double>(all.size()) / phaseS,
                  all.size());
  report.summary("warm_p50_ms", "ms", warm.median(), warm.size());
  report.summary("warm_p90_ms", "ms", warm.quantile(0.9), warm.size());
  report.summary("cold_p50_ms", "ms", cold.median(), cold.size());
  report.count("block_flowcache_hit", firstBlockCounts[0]);
  report.count("block_flowcache_miss", firstBlockCounts[1]);
  report.count("block_flowcache_write", firstBlockCounts[2]);
  report.count("block_serve_cache_hits", firstBlockCounts[3]);
  report.count("block_flow_bytes_parsed", firstBlockCounts[4]);

  if (!opts.trace) return digest(inputs);

  const std::uint64_t hits = phase(tel::Counter::FlowCacheHit);
  const std::uint64_t misses = phase(tel::Counter::FlowCacheMiss);
  report.layer("flowcache.hits", "count", static_cast<double>(hits));
  report.layer("flowcache.misses", "count", static_cast<double>(misses));
  report.layer("flowcache.hit_ratio", "ratio",
               static_cast<double>(hits) / static_cast<double>(hits + misses));
  report.layer("serve.queue_wait_ms", "ms",
               phase.histMean(tel::Histogram::ServeQueueWaitMs));
  report.layer("serve.exec_ms", "ms", phase.histMean(tel::Histogram::ServeExecMs));
  report.layer("serve.serialize_ms", "ms",
               phase.histMean(tel::Histogram::ServeSerializeMs));

  // Traced phase: the same stream staged call by call against a cache in
  // the state the untraced phase started from (the first set-up's
  // directory), until the phase time is up or every request was replayed.
  // Response bytes must match the server's.
  RequestStream replay(opts.seed, keys);
  LayerTable layers;
  Samples tracedAll;
  double keyMs = 0.0, loadMs = 0.0, parseMs = 0.0, bodyMs = 0.0, warmMs = 0.0;
  double parsedBytes = 0.0, firstColdPlaceMs = 0.0;
  std::size_t parses = 0, replayed = 0;
  std::optional<CounterDelta> firstCold;  ///< spans the first cold request
  const auto tstart = Clock::now();
  while (replayed < responses.size() && !phaseDone(tstart, opts.seconds)) {
    for (const Request& q : replay.nextBlock()) {
      const bool isCold = q.kind == Request::Kind::Cold;
      const bool isFirstCold = isCold && !firstCold;
      if (isFirstCold) firstCold.emplace();
      LayerTimes t;
      const auto t0 = Clock::now();
      const std::string response = stagedRequest(q, keys, tracedCache, device, t);
      tracedAll.add(msSince(t0));
      if (isFirstCold) {
        firstCold->stop();
        firstColdPlaceMs = t["fpga.place_ms"];
      }
      layers.add(t);
      if (!isCold) {
        keyMs += t["core.cache_key_ms"];
        loadMs += t["flowcache.load_ms"];
        parseMs += t["core.flow_parse_ms"];
        bodyMs += t["body"];
        warmMs += all.values()[replayed];
        parsedBytes += static_cast<double>(keys[q.keyIndex].payloadBytes);
        ++parses;
      }
      report.check(response == responses[replayed],
                   "traced flow response equals the server's for " + q.line);
      ++replayed;
    }
  }
  for (const char* name :
       {"apps.design_ms", "core.cache_key_ms", "flowcache.load_ms",
        "core.flow_parse_ms", "core.flow_write_ms", "flowcache.store_ms",
        "hls.synth_ms", "rtl.gen_ms", "fpga.pack_ms", "fpga.place_ms",
        "fpga.route_ms", "fpga.sta_ms", "trace.backtrace_ms"})
    report.layer(name, "ms", layers.meanMs(name));
  if (firstCold) reportPhysicalCounts(report, *firstCold, firstColdPlaceMs);
  report.layer("core.flow_bytes", "bytes",
               parses == 0 ? 0.0 : parsedBytes / static_cast<double>(parses));
  report.layer("attr.warm_key_pct", "%", 100.0 * keyMs / warmMs);
  report.layer("attr.warm_load_pct", "%", 100.0 * loadMs / warmMs);
  report.layer("attr.warm_parse_pct", "%", 100.0 * parseMs / warmMs);
  report.layer("attr.warm_serialize_pct", "%", 100.0 * bodyMs / warmMs);
  const double overheadPct =
      100.0 * (tracedAll.median() - all.median()) / all.median();
  report.layer("trace_overhead_pct", "%", overheadPct);
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "traced: %zu requests; of the untraced warm request time key "
                "%.1f%%, load %.1f%%, parse %.1f%%, serialize %.1f%%, other "
                "%.1f%%; overhead %+.1f%%",
                replayed, 100.0 * keyMs / warmMs, 100.0 * loadMs / warmMs,
                100.0 * parseMs / warmMs, 100.0 * bodyMs / warmMs,
                100.0 * (warmMs - keyMs - loadMs - parseMs - bodyMs) / warmMs,
                overheadPct);
  report.note(buf);
  return digest(inputs);
}

}  // namespace perfbench
