// Out-of-core dataset benchmark — the BENCH_dataset.json memory gate.
//
// Proves the two contracts the shard layer (DESIGN.md §19) makes:
//
//   1. Bounded memory. The table-3 corpus (face detection, digit+spam,
//      vision combined) is sharded once, then replicated to 10x under
//      salted content keys. A forked child process trains a Lasso model
//      per (corpus size x training path) cell and the parent reads its
//      peak RSS from wait4(); the in-memory path must grow roughly
//      linearly from 1x to 10x while the streamed path must stay bounded
//      (sub-linear). Child processes make the numbers honest: each cell
//      starts from the same cold baseline, measured by a no-op child.
//   2. Byte identity. For Lasso and GBRT, the streamed fit at --threads
//      1/2/4 must produce exactly the bytes of the in-memory fit on the
//      materialized corpus. Any mismatch is a hard bench failure.
//
// Every number lands in BENCH_dataset.json (fail-safe CheckedFileWriter,
// like every artifact sink). CI runs this binary and asserts the gates.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/shard_builder.hpp"
#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/serialize.hpp"
#include "ml/shards.hpp"
#include "support/textio.hpp"

namespace {

using namespace hcp;

constexpr const char* kBaseDir = "bench_dataset_shards/x1";
constexpr const char* kBigDir = "bench_dataset_shards/x10";
constexpr std::size_t kReplicas = 10;

// --- child phases --------------------------------------------------------
//
// The parent re-execs /proc/self/exe with --phase=... so each measurement
// runs in a fresh address space. A phase does its work and exits; the
// parent owns all reporting.

void runPhase(const std::string& phase, const std::string& dir) {
  if (phase == "noop") return;  // process baseline: startup + libraries
  const ml::shards::ShardSet set(dir);
  const ml::shards::ShardRowSource source(set,
                                          ml::shards::Label::Vertical);
  ml::LassoRegression model;
  if (phase == "stream-lasso") {
    model.fit(source);
  } else if (phase == "mem-lasso") {
    model.fit(ml::DatasetSource(ml::materialize(source)));
  } else {
    throw Error("unknown bench phase: " + phase);
  }
  // Keep the model observable so the fit cannot be optimized away.
  std::fprintf(stderr, "[dataset] phase %s done (%zu samples)\n",
               phase.c_str(), source.size());
}

struct PhaseCost {
  double peakRssMb = 0.0;
  double wallMs = 0.0;
};

/// Forks + execs this binary in `--phase=...` mode and returns the child's
/// peak RSS (wait4 rusage) and wall clock.
PhaseCost measurePhase(const std::string& phase, const std::string& dir) {
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  HCP_CHECK_MSG(pid >= 0, "fork failed: " << std::strerror(errno));
  if (pid == 0) {
    const std::string phaseArg = "--phase=" + phase;
    const std::string dirArg = "--phase-dir=" + dir;
    const char* argv[] = {"dataset_streaming", phaseArg.c_str(),
                          dirArg.c_str(), nullptr};
    execv("/proc/self/exe", const_cast<char* const*>(argv));
    std::fprintf(stderr, "execv failed: %s\n", std::strerror(errno));
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  HCP_CHECK_MSG(wait4(pid, &status, 0, &ru) == pid,
                "wait4 failed: " << std::strerror(errno));
  HCP_CHECK_MSG(WIFEXITED(status) && WEXITSTATUS(status) == 0,
                "phase '" << phase << "' child failed (status " << status
                          << ")");
  const auto t1 = std::chrono::steady_clock::now();
  PhaseCost cost;
  cost.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB -> MB
  cost.wallMs = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return cost;
}

// --- corpus construction -------------------------------------------------

/// Shards the three table-3 designs one at a time (the buildShard memory
/// contract) into kBaseDir, then replicates every shard kReplicas times
/// into kBigDir under salted keys — same samples, distinct content
/// addresses, so the 10x set is a faithful "more designs" stand-in.
std::size_t buildCorpora(const fpga::Device& device) {
  std::filesystem::remove_all("bench_dataset_shards");
  core::FlowConfig cfg;
  cfg.seed = bench::kSeed;
  std::vector<std::function<apps::AppDesign()>> designs = {
      [] { return apps::faceDetection({}); },
      [] { return apps::digitSpamCombined(); },
      [] { return apps::visionCombined(); }};
  std::size_t baseSamples = 0;
  for (auto& make : designs) {
    const ml::shards::ShardInfo info =
        core::buildShard(make(), device, cfg, {}, kBaseDir);
    std::fprintf(stderr, "[dataset] shard %s: %zu samples\n",
                 info.key.c_str(), info.numSamples);
    baseSamples += info.numSamples;
  }

  const ml::shards::ShardSet base(kBaseDir);
  for (std::size_t i = 0; i < base.numShards(); ++i) {
    const ml::shards::ShardData shard = base.load(i);
    for (std::size_t r = 0; r < kReplicas; ++r) {
      const std::string key = ml::shards::shardKey(
          shard.meta.design, shard.meta.device, shard.meta.seed,
          shard.info.numFeatures,
          shard.info.key + "/replica-" + std::to_string(r));
      ml::shards::writeShard(kBigDir, key, shard.meta, shard.samples);
    }
  }
  return baseSamples;
}

// --- byte-identity sweep -------------------------------------------------

std::string modelBytes(const ml::Regressor& model) {
  std::ostringstream os;
  ml::saveModel(model, os);
  return os.str();
}

struct CmpRow {
  std::string model;
  std::size_t threads = 0;
  bool identical = false;
};

std::vector<CmpRow> byteIdentitySweep(const ml::shards::ShardSet& set) {
  std::vector<CmpRow> rows;
  const ml::shards::ShardRowSource source(set, ml::shards::Label::Average);
  const auto sweep = [&](const std::string& name,
                         const std::function<std::unique_ptr<ml::Regressor>()>&
                             factory) {
    auto reference = factory();
    reference->fit(ml::DatasetSource(ml::materialize(source)));
    const std::string want = modelBytes(*reference);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      support::ScopedThreadLimit limit(threads);
      auto streamed = factory();
      streamed->fit(source);
      rows.push_back({name, threads, modelBytes(*streamed) == want});
    }
  };
  sweep("lasso", [] { return std::make_unique<ml::LassoRegression>(); });
  sweep("gbrt", [] {
    return std::make_unique<ml::Gbrt>(
        ml::GbrtConfig{.numEstimators = 16, .maxDepth = 3});
  });
  return rows;
}

int runBench(int argc, char** argv) {
  return bench::runBenchMain("dataset_streaming", argc, argv, [&](auto&) {
    const auto device = fpga::Device::xc7z020like();

    std::fprintf(stderr, "[dataset] building 1x and %zux shard corpora...\n",
                 kReplicas);
    const std::size_t baseSamples = buildCorpora(device);
    const ml::shards::ShardSet small(kBaseDir);
    const ml::shards::ShardSet big(kBigDir);
    std::fprintf(stderr, "[dataset] corpus: 1x = %zu samples, %zux = %zu\n",
                 small.totalSamples(), kReplicas, big.totalSamples());
    HCP_CHECK(small.totalSamples() == baseSamples);
    HCP_CHECK(big.totalSamples() == kReplicas * baseSamples);

    // Byte identity first: a memory win over a *different* model would be
    // meaningless.
    const std::vector<CmpRow> cmp = byteIdentitySweep(small);
    bool allIdentical = true;
    for (const CmpRow& row : cmp) {
      allIdentical = allIdentical && row.identical;
      if (!row.identical)
        std::fprintf(stderr,
                     "[dataset] FAIL %s streamed != in-memory at %zu "
                     "threads\n",
                     row.model.c_str(), row.threads);
    }
    HCP_CHECK_MSG(allIdentical,
                  "streamed training is not byte-identical to in-memory");
    std::fprintf(stderr,
                 "[dataset] streamed == in-memory for lasso+gbrt at "
                 "threads {1,2,4}\n");

    // Peak-RSS cells, each in a fresh child process.
    const PhaseCost noop = measurePhase("noop", kBaseDir);
    const PhaseCost stream1 = measurePhase("stream-lasso", kBaseDir);
    const PhaseCost stream10 = measurePhase("stream-lasso", kBigDir);
    const PhaseCost mem1 = measurePhase("mem-lasso", kBaseDir);
    const PhaseCost mem10 = measurePhase("mem-lasso", kBigDir);

    // Deltas over the no-op baseline isolate the training working set from
    // process fixed costs; the 1 MB floor keeps ratios meaningful when a
    // delta lands in measurement noise.
    const auto delta = [&](const PhaseCost& c) {
      return std::max(c.peakRssMb - noop.peakRssMb, 1.0);
    };
    const double streamGrowth = delta(stream10) / delta(stream1);
    const double memGrowth = delta(mem10) / delta(mem1);
    std::fprintf(stderr,
                 "[dataset] peak RSS MB: noop %.1f | stream 1x %.1f -> "
                 "10x %.1f (%.2fx) | mem 1x %.1f -> 10x %.1f (%.2fx)\n",
                 noop.peakRssMb, stream1.peakRssMb, stream10.peakRssMb,
                 streamGrowth, mem1.peakRssMb, mem10.peakRssMb, memGrowth);

    // The gates: the in-memory working set must scale with the corpus
    // (anything clearly super-constant; 10x data, require >= 4x memory to
    // stay robust against allocator slack), while the streamed set must
    // stay bounded — strictly sub-linear, under half the in-memory growth
    // and under half the in-memory 10x working set.
    const bool memGrows = memGrowth >= 4.0;
    const bool streamBounded =
        streamGrowth <= 2.5 && streamGrowth <= memGrowth / 2.0 &&
        delta(stream10) <= delta(mem10) / 2.0;
    HCP_CHECK_MSG(memGrows, "in-memory RSS did not grow with the corpus ("
                                << memGrowth
                                << "x) — the measurement is broken");
    HCP_CHECK_MSG(streamBounded,
                  "streamed RSS is not bounded: " << streamGrowth
                                                  << "x growth at 10x data");
    std::fprintf(stderr, "[dataset] gates passed: mem %.2fx, stream %.2fx\n",
                 memGrowth, streamGrowth);

    support::txt::CheckedFileWriter writer("BENCH_dataset.json", "benchout");
    auto& json = writer.stream();
    support::txt::preparePrecision(json);
    json << "{\n  \"replicas\": " << kReplicas
         << ",\n  \"base_samples\": " << small.totalSamples()
         << ",\n  \"big_samples\": " << big.totalSamples()
         << ",\n  \"num_features\": " << small.numFeatures()
         << ",\n  \"noop_rss_mb\": " << noop.peakRssMb
         << ",\n  \"stream_1x_rss_mb\": " << stream1.peakRssMb
         << ",\n  \"stream_10x_rss_mb\": " << stream10.peakRssMb
         << ",\n  \"mem_1x_rss_mb\": " << mem1.peakRssMb
         << ",\n  \"mem_10x_rss_mb\": " << mem10.peakRssMb
         << ",\n  \"stream_growth\": " << streamGrowth
         << ",\n  \"mem_growth\": " << memGrowth
         << ",\n  \"stream_1x_wall_ms\": " << stream1.wallMs
         << ",\n  \"stream_10x_wall_ms\": " << stream10.wallMs
         << ",\n  \"mem_1x_wall_ms\": " << mem1.wallMs
         << ",\n  \"mem_10x_wall_ms\": " << mem10.wallMs
         << ",\n  \"byte_identity\": [\n";
    for (std::size_t i = 0; i < cmp.size(); ++i)
      json << "    {\"model\": \"" << cmp[i].model
           << "\", \"threads\": " << cmp[i].threads
           << ", \"identical\": " << (cmp[i].identical ? "true" : "false")
           << "}" << (i + 1 < cmp.size() ? "," : "") << "\n";
    json << "  ],\n  \"gates\": {\"mem_grows\": "
         << (memGrows ? "true" : "false")
         << ", \"stream_bounded\": " << (streamBounded ? "true" : "false")
         << ", \"byte_identical\": " << (allIdentical ? "true" : "false")
         << "}\n}\n";
    writer.commit();
    std::fprintf(stderr, "[dataset] report written to BENCH_dataset.json\n");
  });
}

}  // namespace

int main(int argc, char** argv) {
  // Child phase mode: do the work, exit. No session, no artifacts — the
  // parent owns all reporting and the exit-code mapping below mirrors it.
  std::string phase, phaseDir;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--phase=", 8) == 0) phase = argv[i] + 8;
    if (std::strncmp(argv[i], "--phase-dir=", 12) == 0)
      phaseDir = argv[i] + 12;
  }
  if (!phase.empty()) {
    try {
      runPhase(phase, phaseDir);
      return 0;
    } catch (const hcp::Error& e) {
      std::fprintf(stderr, "dataset_streaming phase: %s\n", e.what());
      return 1;
    }
  }
  return runBench(argc, argv);
}
