// Performance and ablation benchmarks (google-benchmark):
//  - throughput of each pipeline stage (synthesis, RTL gen, pack, place,
//    route, STA, feature extraction, model training)
//  - design-choice ablations called out in DESIGN.md: negotiated router vs
//    RUDY estimate, placer density spreading on/off, GBRT depth/forest size
//  - a serial-vs-parallel speedup report per parallelized stage (grid
//    search, GBRT fit, multi-design flow, dataset build), written to
//    BENCH_parallel.json so the perf trajectory is machine-readable.
//
// Flags: --threads N caps the thread pool; --parallel-only skips the
// google-benchmark suite and emits just the parallel report.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "apps/digit_spam.hpp"
#include "apps/face_detection.hpp"
#include "bench_common.hpp"
#include "core/dataset_builder.hpp"
#include "core/flow.hpp"
#include "features/extractor.hpp"
#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/validation.hpp"
#include "rtl/generator.hpp"
#include "support/parallel.hpp"

namespace {

using namespace hcp;

apps::FaceDetectionConfig benchConfig() {
  apps::FaceDetectionConfig cfg;
  cfg.stages = 6;  // mid-size: keeps iterations fast but representative
  return cfg;
}

const fpga::Device& device() {
  static const fpga::Device dev = fpga::Device::xc7z020like();
  return dev;
}

// --- pipeline stage throughput --------------------------------------------

void BM_HlsSynthesis(benchmark::State& state) {
  for (auto _ : state) {
    auto app = apps::faceDetection(benchConfig());
    auto design = hls::synthesize(std::move(app.module), app.directives, {});
    benchmark::DoNotOptimize(design.top().report.latency);
  }
}
BENCHMARK(BM_HlsSynthesis)->Unit(benchmark::kMillisecond);

void BM_RtlGeneration(benchmark::State& state) {
  auto app = apps::faceDetection(benchConfig());
  const auto design =
      hls::synthesize(std::move(app.module), app.directives, {});
  for (auto _ : state) {
    auto rtl = rtl::generateRtl(design);
    benchmark::DoNotOptimize(rtl.netlist.numCells());
  }
}
BENCHMARK(BM_RtlGeneration)->Unit(benchmark::kMillisecond);

struct PhysicalFixture {
  hls::SynthesizedDesign design;
  rtl::GeneratedRtl rtl;
  fpga::Packing packing;
  fpga::Placement placement;

  PhysicalFixture() {
    auto app = apps::faceDetection(benchConfig());
    design = hls::synthesize(std::move(app.module), app.directives, {});
    rtl = rtl::generateRtl(design);
    packing = fpga::pack(rtl.netlist, device());
    placement = fpga::place(packing, device(), {});
  }
  static const PhysicalFixture& get() {
    static const PhysicalFixture f;
    return f;
  }
};

void BM_Packing(benchmark::State& state) {
  const auto& f = PhysicalFixture::get();
  for (auto _ : state) {
    auto packing = fpga::pack(f.rtl.netlist, device());
    benchmark::DoNotOptimize(packing.clusters.size());
  }
}
BENCHMARK(BM_Packing)->Unit(benchmark::kMillisecond);

void BM_Placement(benchmark::State& state) {
  const auto& f = PhysicalFixture::get();
  fpga::PlacerConfig cfg;
  cfg.effort = static_cast<double>(state.range(0));
  for (auto _ : state) {
    auto placement = fpga::place(f.packing, device(), cfg);
    benchmark::DoNotOptimize(placement.cost);
  }
  state.counters["hpwl"] =
      fpga::totalWirelength(f.packing, fpga::place(f.packing, device(), cfg));
}
BENCHMARK(BM_Placement)->Arg(5)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_RoutingNegotiated(benchmark::State& state) {
  const auto& f = PhysicalFixture::get();
  fpga::RouterConfig cfg;
  cfg.maxIterations = static_cast<int>(state.range(0));
  std::size_t overflow = 0;
  for (auto _ : state) {
    auto result = fpga::route(f.packing, f.placement, device(), cfg);
    overflow = result.overflowTiles;
    benchmark::DoNotOptimize(result.totalWirelength);
  }
  state.counters["overflow_tiles"] = static_cast<double>(overflow);
}
BENCHMARK(BM_RoutingNegotiated)->Arg(1)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_RoutingRudyEstimate(benchmark::State& state) {
  const auto& f = PhysicalFixture::get();
  for (auto _ : state) {
    auto map = fpga::estimateRudy(f.packing, f.placement, device());
    benchmark::DoNotOptimize(map.maxHUtil());
  }
}
BENCHMARK(BM_RoutingRudyEstimate)->Unit(benchmark::kMillisecond);

void BM_FeatureExtraction(benchmark::State& state) {
  const auto& f = PhysicalFixture::get();
  const auto top = f.design.module->topIndex();
  const auto& fn = f.design.module->function(top);
  for (auto _ : state) {
    features::FeatureExtractor ex(f.design, {});
    double sum = 0;
    for (ir::OpId op = 0; op < fn.numOps(); ++op)
      sum += ex.extract(top, op)[0];
    benchmark::DoNotOptimize(sum);
  }
  state.counters["ops"] = static_cast<double>(fn.numOps());
}
BENCHMARK(BM_FeatureExtraction)->Unit(benchmark::kMillisecond);

// --- ML training ablations -------------------------------------------------

const core::LabeledDataset& dataset() {
  static const core::LabeledDataset data = [] {
    core::FlowConfig cfg;
    auto flow = core::runFlow(apps::faceDetection(benchConfig()), device(),
                              cfg);
    return core::buildDataset(flow, {});
  }();
  return data;
}

void BM_TrainLasso(benchmark::State& state) {
  const auto& data = dataset();
  for (auto _ : state) {
    ml::LassoRegression model;
    model.fit(ml::DatasetSource(data.vertical));
    benchmark::DoNotOptimize(model.nonZeroWeights());
  }
}
BENCHMARK(BM_TrainLasso)->Unit(benchmark::kMillisecond);

void BM_TrainGbrt(benchmark::State& state) {
  const auto& data = dataset();
  ml::GbrtConfig cfg;
  cfg.numEstimators = static_cast<std::size_t>(state.range(0));
  cfg.maxDepth = static_cast<int>(state.range(1));
  for (auto _ : state) {
    ml::Gbrt model(cfg);
    model.fit(ml::DatasetSource(data.vertical));
    benchmark::DoNotOptimize(model.trainLoss());
  }
}
BENCHMARK(BM_TrainGbrt)
    ->Args({100, 4})
    ->Args({300, 4})
    ->Args({300, 6})
    ->Unit(benchmark::kMillisecond);

// --- end-to-end -----------------------------------------------------------

void BM_FullFlowDigitSpam(benchmark::State& state) {
  for (auto _ : state) {
    auto flow =
        core::runFlow(apps::digitSpamCombined(), device(), {});
    benchmark::DoNotOptimize(flow.maxHCongestion);
  }
}
BENCHMARK(BM_FullFlowDigitSpam)->Unit(benchmark::kMillisecond);

// --- serial vs parallel speedup report --------------------------------------

double timeMs(const std::function<void()>& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct StageTiming {
  std::string stage;
  double serialMs = 0.0;
  double parallelMs = 0.0;
  double speedup() const {
    return parallelMs > 0.0 ? serialMs / parallelMs : 0.0;
  }
};

/// Runs each parallelized stage twice — once pinned to one thread, once at
/// the configured limit — and writes BENCH_parallel.json. The parallel
/// layer guarantees both runs produce bit-identical results; this report
/// only measures the wall-clock difference (and spot-checks the guarantee
/// on the trained GBRT).
void runParallelReport(std::size_t threads) {
  std::vector<StageTiming> rows;
  const auto measure = [&](const char* stage,
                           const std::function<void()>& body) {
    StageTiming t;
    t.stage = stage;
    {
      support::ScopedThreadLimit serial(1);
      t.serialMs = timeMs(body);
    }
    t.parallelMs = timeMs(body);
    std::fprintf(stderr,
                 "[parallel] %-18s serial %9.1f ms   %zu threads %9.1f ms   "
                 "speedup %.2fx\n",
                 stage, t.serialMs, threads, t.parallelMs, t.speedup());
    rows.push_back(t);
  };

  measure("multi_design_flow", [&] {
    std::vector<apps::AppDesign> designs;
    designs.push_back(apps::digitSpamCombined());
    designs.push_back(apps::faceDetection(benchConfig()));
    const auto flows = core::runFlows(designs, device(), {});
    benchmark::DoNotOptimize(flows.front().maxHCongestion);
  });

  const auto flow =
      core::runFlow(apps::faceDetection(benchConfig()), device(), {});
  measure("dataset_build", [&] {
    const auto data = core::buildDataset(flow, {});
    benchmark::DoNotOptimize(data.vertical.size());
  });

  const auto data = core::buildDataset(flow, {});
  measure("gbrt_fit", [&] {
    ml::GbrtConfig cfg;
    cfg.numEstimators = 150;
    ml::Gbrt model(cfg);
    model.fit(ml::DatasetSource(data.vertical));
    benchmark::DoNotOptimize(model.trainLoss());
  });

  measure("grid_search", [&] {
    std::vector<ml::GbrtConfig> grid;
    ml::GbrtConfig a;
    a.numEstimators = 60;
    grid.push_back(a);
    ml::GbrtConfig b;
    b.numEstimators = 60;
    b.maxDepth = 5;
    grid.push_back(b);
    const auto search = ml::gridSearch<ml::GbrtConfig>(
        grid,
        [](const ml::GbrtConfig& c) { return std::make_unique<ml::Gbrt>(c); },
        data.vertical, 4, hcp::bench::kSeed);
    benchmark::DoNotOptimize(search.bestCv.meanMae);
  });

  // Determinism spot-check: the 1-thread and N-thread GBRT must serialize
  // to the same bytes.
  const auto fitAndSerialize = [&] {
    ml::Gbrt model;
    model.fit(ml::DatasetSource(data.vertical));
    std::ostringstream os;
    model.write(os);
    return os.str();
  };
  std::string serialModel;
  {
    support::ScopedThreadLimit serial(1);
    serialModel = fitAndSerialize();
  }
  const bool bitIdentical = serialModel == fitAndSerialize();
  std::fprintf(stderr, "[parallel] 1-thread vs %zu-thread GBRT: %s\n",
               threads, bitIdentical ? "bit-identical" : "MISMATCH");

  std::ofstream json("BENCH_parallel.json");
  json << "{\n  \"threads\": " << threads
       << ",\n  \"bit_identical\": " << (bitIdentical ? "true" : "false")
       << ",\n  \"stages\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const StageTiming& t = rows[i];
    json << "    {\"stage\": \"" << t.stage << "\", \"threads\": " << threads
         << ", \"serial_ms\": " << t.serialMs
         << ", \"parallel_ms\": " << t.parallelMs
         << ", \"speedup\": " << t.speedup() << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::fprintf(stderr, "[parallel] report written to BENCH_parallel.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  return hcp::bench::runBenchMain(
      "perf_ablation", argc, argv, [&](hcp::bench::BenchSession& session) {
        const std::size_t threads = session.threads();
        bool runGoogleBench = true;
        for (int i = 1; i < argc; ++i)
          if (std::strcmp(argv[i], "--parallel-only") == 0)
            runGoogleBench = false;
        benchmark::Initialize(&argc, argv);
        if (runGoogleBench) benchmark::RunSpecifiedBenchmarks();
        runParallelReport(threads);
      });
}
