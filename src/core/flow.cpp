#include "core/flow.hpp"

#include <iostream>
#include <optional>
#include <sstream>

#include "core/flow_serialize.hpp"
#include "support/error.hpp"
#include "support/flowcache.hpp"
#include "support/parallel.hpp"
#include "support/telemetry.hpp"

namespace hcp::core {

namespace {

namespace fc = support::flowcache;

/// Cache probe: returns a fully parsed FlowResult on a usable hit. A payload
/// that passed the envelope checks but fails to parse counts as corrupt and
/// falls through to recompute (store() then self-heals the entry).
std::optional<FlowResult> tryCachedFlow(const fc::FlowCache& cache,
                                        const std::string& key) {
  HCP_SPAN("cache_lookup");
  std::optional<std::string> payload = cache.load(key);
  if (!payload) return std::nullopt;
  try {
    FlowResult result = readFlowResult(*payload);
    support::telemetry::count(support::telemetry::Counter::FlowCacheHit);
    return result;
  } catch (const Error& e) {
    support::telemetry::count(support::telemetry::Counter::FlowCacheCorrupt);
    std::cerr << "hcp: flow cache: discarding unparsable entry "
              << cache.entryPath(key) << ": " << e.what() << '\n';
    return std::nullopt;
  }
}

}  // namespace

FlowResult runFlow(apps::AppDesign&& app, const fpga::Device& device,
                   const FlowConfig& config) {
  return runFlowCached(std::move(app), device, config).result;
}

CachedFlow runFlowCached(apps::AppDesign&& app, const fpga::Device& device,
                         const FlowConfig& config) {
  HCP_SPAN("flow");
  support::telemetry::count(support::telemetry::Counter::FlowsRun);

  fc::FlowCache* cache = fc::global();
  CachedFlow out;
  if (cache) {
    out.cacheKey = flowCacheKey(app, device, config);
    if (std::optional<FlowResult> cached = tryCachedFlow(*cache, out.cacheKey)) {
      out.result = *std::move(cached);
      out.fromCache = true;
      return out;
    }
  }

  FlowResult& result = out.result;
  result.name = app.name;

  hls::SynthesisOptions synth = config.synthesis;
  result.design =
      hls::synthesize(std::move(app.module), app.directives, synth);

  result.rtl = rtl::generateRtl(result.design);
  const auto netlistIssues = result.rtl.netlist.validate();
  HCP_CHECK_MSG(netlistIssues.empty(),
                app.name << ": " << netlistIssues.front());

  fpga::ParConfig par = config.par;
  par.placer.seed = config.seed;
  par.timing.targetClockNs = synth.schedule.clockPeriodNs;
  par.timing.clockUncertaintyNs = synth.schedule.clockUncertaintyNs;
  result.impl = fpga::implement(result.rtl.netlist, device, par);

  result.traced =
      trace::backTrace(result.rtl, result.impl, device, *result.design.module);

  result.wnsNs = result.impl.timing.wnsNs;
  result.maxFrequencyMhz = result.impl.timing.maxFrequencyMhz;
  result.latencyCycles = result.design.top().report.latency;
  result.maxVCongestion = result.impl.routing.map.maxVUtil();
  result.maxHCongestion = result.impl.routing.map.maxHUtil();
  result.congestedTiles = result.impl.routing.map.tilesOver(100.0);

  if (cache) {
    HCP_SPAN("cache_store");
    std::ostringstream os;
    writeFlowResult(os, result);
    cache->store(out.cacheKey, os.str());
  }
  return out;
}

std::vector<FlowResult> runFlows(std::span<apps::AppDesign> apps,
                                 const fpga::Device& device,
                                 const FlowConfig& config) {
  // Flows share only the immutable device model; every stochastic stage
  // derives its stream from config.seed inside its own flow, so concurrent
  // execution cannot perturb the per-design results.
  return support::parallelMapIndex(apps.size(), [&](std::size_t i) {
    return runFlow(std::move(apps[i]), device, config);
  });
}

}  // namespace hcp::core
