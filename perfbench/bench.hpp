// Shared plumbing of the repository benchmark: options, clocks, sample
// statistics, the per-operation layer timer, the run report and the staged
// (per-stage timed) flow used by the traced runs.
//
// The benchmark drives the library only through public functions. Layer
// times come from timers the benchmark wraps around its own calls into each
// module; nothing inside the program is instrumented for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/app_design.hpp"
#include "core/flow.hpp"
#include "fpga/device.hpp"
#include "support/telemetry.hpp"

namespace perfbench {

/// Thread-pool cap of the benchmark process.
inline constexpr std::size_t kThreads = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch space for models and cache directories
  std::string golden;   ///< checked-in routed map of spam_filter at seed 42
};

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Sample statistics. Quantiles interpolate linearly between order
/// statistics (the "inclusive" definition, as numpy's default).
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double sum() const;
  double mean() const { return empty() ? 0.0 : sum() / size(); }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Milliseconds spent in each named library call during one operation.
using LayerTimes = std::map<std::string, double>;

/// Runs `f`, adding its wall time to `times[name]`.
template <typename F>
decltype(auto) timed(LayerTimes& times, const char* name, F&& f) {
  struct Stop {
    double& acc;
    Clock::time_point t0 = Clock::now();
    ~Stop() { acc += msSince(t0); }
  } stop{times[name]};
  return f();
}

/// Per-layer times over many operations: each layer's value is its mean time
/// per operation, over the operations that call it. Means (not medians) so
/// the layers of one operation add up to its mean wall time.
class LayerTable {
 public:
  void add(const LayerTimes& op) {
    for (const auto& [name, ms] : op) perOp_[name].add(ms);
  }
  double meanMs(const std::string& name) const;

 private:
  std::map<std::string, Samples> perOp_;
};

/// Telemetry counter deltas between two snapshots.
class CounterDelta {
 public:
  CounterDelta() : before_(hcp::support::telemetry::snapshot()) {}
  std::uint64_t operator()(hcp::support::telemetry::Counter c) const {
    return after_.counter(c) - before_.counter(c);
  }
  /// Mean of a histogram's observations made between the two snapshots.
  double histMean(hcp::support::telemetry::Histogram h) const;
  void stop() { after_ = hcp::support::telemetry::snapshot(); }

 private:
  hcp::support::telemetry::Snapshot before_;
  hcp::support::telemetry::Snapshot after_;
};

/// What one run measured and checked.
class Report {
 public:
  /// Records one output check; a failed one is logged and counted.
  bool check(bool ok, const std::string& what);
  /// Records one attempted operation and whether it failed.
  void attempt(bool failed) {
    ++attempted_;
    if (failed) ++failed_;
  }

  /// A metric of BENCHMARK.json's end_to_end list.
  void endToEnd(const std::string& name, const std::string& unit,
                double value, std::size_t samples);
  /// One of the workload-specific figures printed in the summary.
  void summary(const std::string& name, const std::string& unit,
               double value, std::size_t samples);
  /// A metric of BENCHMARK.json's per_layer list.
  void layer(const std::string& name, const std::string& unit, double value);
  /// A deterministic work count: must repeat exactly at the same seed.
  void count(const std::string& name, std::uint64_t value);
  /// A free-form line in the stderr summary.
  void note(const std::string& text);

  /// Orders the metrics as `manifest` lists them (pairs of name, unit) and
  /// gives every per-layer metric this workload bypasses the value 0.
  /// Returns what does not match the manifest.
  std::vector<std::string> conform(
      const std::vector<std::pair<std::string, std::string>>& endToEnd,
      const std::vector<std::pair<std::string, std::string>>& layers);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Prints the human summary to stderr and the result line to stdout.
  void print(const Options& opts, const std::string& inputsDigest) const;

 private:
  struct Metric {
    std::string name, unit;
    double value = 0.0;
    std::size_t samples = 0;
  };
  std::vector<Metric> endToEnd_, summary_, layers_;
  std::vector<std::pair<std::string, std::uint64_t>> counts_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process so far, in MB.
double peakRssMb();

/// 16-hex FNV-1a digest of `text`.
std::string digest(const std::string& text);

/// The flow of core::runFlow (cache off), one public stage call at a time,
/// each timed into `times` under its layer name.
hcp::core::FlowResult stagedFlow(hcp::apps::AppDesign&& app,
                                 const hcp::fpga::Device& device,
                                 const hcp::core::FlowConfig& config,
                                 LayerTimes& times);

/// writeFlowResult bytes of `result`.
std::string flowBytes(const hcp::core::FlowResult& result);

/// Placer/router work counts of the operations between the delta's
/// snapshots, as per-layer metrics.
void reportPhysicalCounts(Report& report, const CounterDelta& delta,
                          double placeMs);

/// Appends `v` the way the server prints doubles (%.17g, round-trip exact).
void appendDouble(std::string& s, double v);

/// Checks a response line: strict JSON object, "ok":true, every number
/// finite.
bool responseOk(const std::string& line);

// The workloads. Each records setup_s and the end-to-end metrics (untraced
// phase) and, when opts.trace, the per-layer metrics of a traced phase.
// Returns the digest of the inputs it generated from opts.seed.
std::string runTrainCold(const Options& opts, Report& report);
std::string runPredictStream(const Options& opts, Report& report);
std::string runServeFlowcache(const Options& opts, Report& report);

/// True once a timed phase that began at `start` has run for `seconds`.
inline bool phaseDone(Clock::time_point start, double seconds) {
  return msSince(start) >= seconds * 1000.0;
}

}  // namespace perfbench
