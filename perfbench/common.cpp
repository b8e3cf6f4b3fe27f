#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "bench.hpp"
#include "core/flow_serialize.hpp"
#include "fpga/par.hpp"
#include "hls/design.hpp"
#include "rtl/generator.hpp"
#include "support/error.hpp"
#include "support/flowcache.hpp"
#include "support/json.hpp"
#include "trace/backtrace.hpp"

namespace perfbench {

namespace tel = hcp::support::telemetry;

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> s = values_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

double Samples::sum() const {
  double total = 0.0;
  for (const double v : values_) total += v;
  return total;
}

double LayerTable::meanMs(const std::string& name) const {
  const auto it = perOp_.find(name);
  return it == perOp_.end() ? 0.0 : it->second.mean();
}

double CounterDelta::histMean(tel::Histogram h) const {
  const tel::HistStat& a = after_.histogram(h);
  const tel::HistStat& b = before_.histogram(h);
  const std::uint64_t n = a.count - b.count;
  return n == 0 ? 0.0 : (a.sum - b.sum) / static_cast<double>(n);
}

bool Report::check(bool ok, const std::string& what) {
  attempt(!ok);
  if (!ok) std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", what.c_str());
  return ok;
}

void Report::endToEnd(const std::string& name, const std::string& unit,
                      double value, std::size_t samples) {
  endToEnd_.push_back({name, unit, value, samples});
}

void Report::summary(const std::string& name, const std::string& unit,
                     double value, std::size_t samples) {
  summary_.push_back({name, unit, value, samples});
}

void Report::layer(const std::string& name, const std::string& unit,
                   double value) {
  layers_.push_back({name, unit, value, 0});
}

void Report::count(const std::string& name, std::uint64_t value) {
  counts_.emplace_back(name, value);
}

void Report::note(const std::string& text) { notes_.push_back(text); }

std::vector<std::string> Report::conform(
    const std::vector<std::pair<std::string, std::string>>& endToEnd,
    const std::vector<std::pair<std::string, std::string>>& layers) {
  std::vector<std::string> problems;
  const auto order = [&](std::vector<Metric>& metrics,
                         const std::vector<std::pair<std::string, std::string>>&
                             wanted,
                         bool fillMissing) {
    std::vector<Metric> out;
    for (const auto& [name, unit] : wanted) {
      const auto it = std::find_if(metrics.begin(), metrics.end(),
                                   [&](const Metric& m) { return m.name == name; });
      if (it == metrics.end()) {
        if (fillMissing)
          out.push_back({name, unit, 0.0, 0});
        else
          problems.push_back("metric " + name + " was not measured");
        continue;
      }
      if (it->unit != unit)
        problems.push_back("metric " + name + " has unit " + it->unit +
                           ", manifest says " + unit);
      out.push_back(*it);
      metrics.erase(it);
    }
    for (const Metric& m : metrics)
      problems.push_back("metric " + m.name + " is not in the manifest");
    metrics = std::move(out);
  };
  order(endToEnd_, endToEnd, false);
  order(layers_, layers, true);
  return problems;
}

namespace {

void appendNumber(std::string& s, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  s += buf;
}

}  // namespace

void Report::print(const Options& opts, const std::string& inputsDigest) const {
  std::FILE* e = stderr;
  std::fprintf(e,
               "[perfbench] workload=%s seed=%llu seconds=%g trace=%d "
               "threads=%zu clients=1 (closed loop)\n",
               opts.workload.c_str(),
               static_cast<unsigned long long>(opts.seed), opts.seconds,
               opts.trace ? 1 : 0, kThreads);
  std::fprintf(e, "[perfbench] inputs_digest %s\n", inputsDigest.c_str());
  for (const std::string& n : notes_) std::fprintf(e, "[perfbench] %s\n", n.c_str());
  for (const Metric& m : endToEnd_)
    std::fprintf(e, "[perfbench] end_to_end %-16s %14.4f %-6s n=%zu\n",
                 m.name.c_str(), m.value, m.unit.c_str(), m.samples);
  for (const Metric& m : summary_)
    std::fprintf(e, "[perfbench] metric     %-16s %14.4f %-6s n=%zu\n",
                 m.name.c_str(), m.value, m.unit.c_str(), m.samples);
  for (const Metric& m : layers_)
    std::fprintf(e, "[perfbench] layer      %-26s %14.4f %s\n", m.name.c_str(),
                 m.value, m.unit.c_str());
  std::string countText;
  for (const auto& [name, v] : counts_) {
    std::fprintf(e, "[perfbench] count      %-30s %llu\n", name.c_str(),
                 static_cast<unsigned long long>(v));
    countText += name + "=" + std::to_string(v) + "\n";
  }
  std::fprintf(e, "[perfbench] counts_digest %s\n", digest(countText).c_str());
  const double failRatio =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::fprintf(e,
               "[perfbench] metric     %-16s %14.4f %-6s n=%llu\n",
               "fail_ratio", failRatio, "ratio",
               static_cast<unsigned long long>(attempted_));

  std::string line = "{\"correct\": ";
  line += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  const std::vector<Metric>& metrics = opts.trace ? layers_ : endToEnd_;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": ";
    appendNumber(line, metrics[i].value);
    line += ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

std::string digest(const std::string& text) {
  return hcp::support::flowcache::Fnv1a().bytes(text).hex();
}

hcp::core::FlowResult stagedFlow(hcp::apps::AppDesign&& app,
                                 const hcp::fpga::Device& device,
                                 const hcp::core::FlowConfig& config,
                                 LayerTimes& times) {
  using namespace hcp;
  core::FlowResult result;
  result.name = app.name;
  const hls::SynthesisOptions& synth = config.synthesis;
  result.design = timed(times, "hls.synth_ms", [&] {
    return hls::synthesize(std::move(app.module), app.directives, synth);
  });
  result.rtl = timed(times, "rtl.gen_ms",
                     [&] { return rtl::generateRtl(result.design); });
  HCP_CHECK_MSG(result.rtl.netlist.validate().empty(),
                app.name << ": invalid netlist");

  fpga::ParConfig par = config.par;
  par.placer.seed = config.seed;
  par.timing.targetClockNs = synth.schedule.clockPeriodNs;
  par.timing.clockUncertaintyNs = synth.schedule.clockUncertaintyNs;
  fpga::Implementation& impl = result.impl;
  const rtl::Netlist& netlist = result.rtl.netlist;
  impl.packing = timed(times, "fpga.pack_ms",
                       [&] { return fpga::pack(netlist, device); });
  impl.placement = timed(times, "fpga.place_ms", [&] {
    return fpga::place(impl.packing, device, par.placer);
  });
  impl.routing = timed(times, "fpga.route_ms", [&] {
    return fpga::route(impl.packing, impl.placement, device, par.router);
  });
  impl.timing = timed(times, "fpga.sta_ms", [&] {
    return fpga::analyzeTiming(netlist, impl.packing, impl.placement,
                               impl.routing, par.timing);
  });
  result.traced = timed(times, "trace.backtrace_ms", [&] {
    return trace::backTrace(result.rtl, impl, device, *result.design.module);
  });

  result.wnsNs = impl.timing.wnsNs;
  result.maxFrequencyMhz = impl.timing.maxFrequencyMhz;
  result.latencyCycles = result.design.top().report.latency;
  result.maxVCongestion = impl.routing.map.maxVUtil();
  result.maxHCongestion = impl.routing.map.maxHUtil();
  result.congestedTiles = impl.routing.map.tilesOver(100.0);
  return result;
}

void appendDouble(std::string& s, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  s += buf;
}

std::string flowBytes(const hcp::core::FlowResult& result) {
  std::ostringstream os;
  hcp::core::writeFlowResult(os, result);
  return os.str();
}

void reportPhysicalCounts(Report& report, const CounterDelta& delta,
                          double placeMs) {
  const std::uint64_t proposed = delta(tel::Counter::PlacerMovesProposed);
  const std::uint64_t accepted = delta(tel::Counter::PlacerMovesAccepted);
  report.layer("fpga.place_moves", "count", static_cast<double>(proposed));
  report.layer("fpga.place_accept_ratio", "ratio",
               proposed == 0 ? 0.0
                             : static_cast<double>(accepted) /
                                   static_cast<double>(proposed));
  report.layer("fpga.place_ns_per_move", "ns",
               proposed == 0 ? 0.0
                             : placeMs * 1e6 / static_cast<double>(proposed));
  report.layer("fpga.route_iterations", "count",
               static_cast<double>(delta(tel::Counter::RouterIterations)));
  report.layer("fpga.route_ripups", "count",
               static_cast<double>(delta(tel::Counter::RouterRipUps)));
  report.layer("fpga.route_overflow_tiles", "count",
               static_cast<double>(delta(tel::Counter::RouterOverflowTiles)));
  report.layer("trace.cells", "count",
               static_cast<double>(delta(tel::Counter::TraceCellsTraced)));
}

namespace {

bool allFinite(const hcp::support::json::Value& v) {
  using Kind = hcp::support::json::Value::Kind;
  switch (v.kind) {
    case Kind::Number: return std::isfinite(v.number);
    case Kind::Array:
      return std::all_of(v.array.begin(), v.array.end(), allFinite);
    case Kind::Object:
      return std::all_of(v.object.begin(), v.object.end(),
                         [](const auto& kv) { return allFinite(kv.second); });
    default: return true;
  }
}

}  // namespace

bool responseOk(const std::string& line) {
  try {
    const auto v = hcp::support::json::parse(line);
    const auto* ok = v.find("ok");
    return v.isObject() && ok != nullptr && ok->isBool() && ok->boolean &&
           allFinite(v);
  } catch (const hcp::Error&) {
    return false;  // inf/nan print as bare words: not JSON
  }
}

}  // namespace perfbench
