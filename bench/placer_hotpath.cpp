// Placer/router hot-path benchmark — the BENCH_placer.json trajectory.
//
// Measures the incremental cost kernels against the retained pre-PR
// reference paths, on the paper's table-3 benchmark suite (face detection,
// digit+spam, vision combined):
//
//   - placer: CostUpdate::kReference (per-move O(fanout) box recompute, the
//     pre-incremental algorithm) vs CostUpdate::kIncremental (O(1)
//     edge-count updates) — moves/sec, ns/move and the speedup. Both runs
//     must produce bit-identical placements (checked here, hard failure).
//   - router: best-of-N route time and iterations/sec on the incremental
//     placement.
//   - suite: wall clock of the whole pack+place+route suite pinned to one
//     thread vs the configured --threads N limit (designs run concurrently
//     on the deterministic pool).
//
// Every number lands in BENCH_placer.json (written fail-safe through
// CheckedFileWriter, like every other artifact sink). CI runs this binary
// at 1 and N threads, gates the two telemetry reports on counter equality
// through `hcp_cli compare-reports`, and asserts the placer speedup floor.
#include <ctime>

#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "fpga/placer.hpp"
#include "fpga/router.hpp"
#include "rtl/generator.hpp"
#include "support/textio.hpp"

namespace {

using namespace hcp;

/// Wall clock, for the whole-suite timings where elapsed time is the
/// quantity of interest.
double wallMs(const std::function<void()>& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Process CPU time, for the single-threaded kernel timings: virtualized
/// hosts steal wall time in unpredictable bursts (this shows up as tens of
/// percent run-to-run swing), while CPU time counts only cycles the process
/// actually executed.
double timeMs(const std::function<void()>& body) {
  timespec a{}, b{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &a);
  body();
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &b);
  return (static_cast<double>(b.tv_sec - a.tv_sec)) * 1e3 +
         (static_cast<double>(b.tv_nsec - a.tv_nsec)) * 1e-6;
}

/// Best-of-N for a pair of bodies, interleaved A,B,A,B,... so slow drift in
/// the host hits both sides equally instead of biasing whichever ran
/// second.
std::pair<double, double> bestMsInterleaved(
    int reps, const std::function<void()>& a,
    const std::function<void()>& b) {
  double bestA = std::numeric_limits<double>::infinity();
  double bestB = bestA;
  for (int i = 0; i < reps; ++i) {
    bestA = std::min(bestA, timeMs(a));
    bestB = std::min(bestB, timeMs(b));
  }
  return {bestA, bestB};
}

struct DesignRow {
  std::string name;
  std::size_t clusters = 0;
  std::size_t nets = 0;
  std::uint64_t movesTried = 0;
  double placerRefMs = 0.0;
  double placerIncMs = 0.0;
  double routerMs = 0.0;
  int routerIters = 0;

  double refMovesPerSec() const { return movesTried / (placerRefMs / 1e3); }
  double incMovesPerSec() const { return movesTried / (placerIncMs / 1e3); }
  double incNsPerMove() const {
    return placerIncMs * 1e6 / static_cast<double>(movesTried);
  }
  double placerSpeedup() const { return placerRefMs / placerIncMs; }
  double routerItersPerSec() const {
    return routerIters / (routerMs / 1e3);
  }
};

void checkIdentical(const std::string& name, const fpga::Placement& a,
                    const fpga::Placement& b) {
  HCP_CHECK_MSG(a.movesTried == b.movesTried &&
                    a.movesAccepted == b.movesAccepted,
                name << ": reference and incremental placer diverged in "
                        "move counts — the kernels are not equivalent");
  HCP_CHECK_MSG(a.cost == b.cost,
                name << ": placer cost differs between kernels ("
                     << a.cost << " vs " << b.cost << ")");
  for (std::size_t c = 0; c < a.tileOfCluster.size(); ++c)
    HCP_CHECK_MSG(a.tileOfCluster[c].x == b.tileOfCluster[c].x &&
                      a.tileOfCluster[c].y == b.tileOfCluster[c].y,
                  name << ": cluster " << c
                       << " placed differently by the two kernels");
}

int runBody(hcp::bench::BenchSession& session) {
  const auto device = fpga::Device::xc7z020like();
  const std::size_t threads = session.threads();
  constexpr int kReps = 3;

  // The table-3 suite, packed once (synthesis/RTL/packing are untimed
  // fixtures here; placer_hotpath times only the kernels under test).
  struct Fixture {
    std::string name;
    fpga::Packing packing;
  };
  std::vector<Fixture> fixtures;
  {
    std::vector<apps::AppDesign> designs;
    designs.push_back(apps::faceDetection({}));
    designs.push_back(apps::digitSpamCombined());
    designs.push_back(apps::visionCombined());
    for (auto& app : designs) {
      Fixture f;
      f.name = app.name;
      const auto design =
          hls::synthesize(std::move(app.module), app.directives, {});
      const auto rtl = rtl::generateRtl(design);
      f.packing = fpga::pack(rtl.netlist, device);
      fixtures.push_back(std::move(f));
    }
  }

  std::vector<DesignRow> rows;
  std::vector<fpga::Placement> placements;  // incremental, reused for router
  for (const Fixture& f : fixtures) {
    DesignRow row;
    row.name = f.name;
    row.clusters = f.packing.clusters.size();
    row.nets = f.packing.nets.size();

    fpga::PlacerConfig ref;
    ref.seed = hcp::bench::kSeed;
    ref.costUpdate = fpga::PlacerConfig::CostUpdate::kReference;
    fpga::PlacerConfig inc = ref;
    inc.costUpdate = fpga::PlacerConfig::CostUpdate::kIncremental;

    fpga::Placement refPlacement, incPlacement;
    std::tie(row.placerRefMs, row.placerIncMs) = bestMsInterleaved(
        kReps, [&] { refPlacement = fpga::place(f.packing, device, ref); },
        [&] { incPlacement = fpga::place(f.packing, device, inc); });
    checkIdentical(f.name, refPlacement, incPlacement);
    row.movesTried = incPlacement.movesTried;

    fpga::RoutingResult routing;
    row.routerMs = std::numeric_limits<double>::infinity();
    for (int i = 0; i < kReps; ++i)
      row.routerMs = std::min(row.routerMs, timeMs([&] {
        routing = fpga::route(f.packing, incPlacement, device, {});
      }));
    row.routerIters = routing.iterationsRun;

    std::fprintf(stderr,
                 "[placer] %-16s %7llu moves  ref %8.1f ms  inc %8.1f ms  "
                 "(%5.2fx, %.0f ns/move)  router %6.1f ms (%d iters)\n",
                 f.name.c_str(),
                 static_cast<unsigned long long>(row.movesTried),
                 row.placerRefMs, row.placerIncMs, row.placerSpeedup(),
                 row.incNsPerMove(), row.routerMs, row.routerIters);
    rows.push_back(row);
    placements.push_back(std::move(incPlacement));
  }

  // Whole-suite place+route wall clock, serial vs the configured limit:
  // designs run concurrently on the deterministic pool, so this is the
  // flow-level view of the same hot path.
  const auto suite = [&] {
    const auto results = support::parallelMapIndex(
        fixtures.size(), [&](std::size_t i) {
          fpga::PlacerConfig cfg;
          cfg.seed = hcp::bench::kSeed;
          const auto placement =
              fpga::place(fixtures[i].packing, device, cfg);
          const auto routing =
              fpga::route(fixtures[i].packing, placement, device, {});
          return routing.totalWirelength;
        });
    double sum = 0.0;
    for (double r : results) sum += r;
    return sum;
  };
  double suiteSerialMs, suiteParallelMs;
  {
    support::ScopedThreadLimit serial(1);
    suiteSerialMs = wallMs([&] { suite(); });
  }
  suiteParallelMs = wallMs([&] { suite(); });

  double totalRefMs = 0.0, totalIncMs = 0.0;
  for (const DesignRow& r : rows) {
    totalRefMs += r.placerRefMs;
    totalIncMs += r.placerIncMs;
  }
  const double overallSpeedup = totalRefMs / totalIncMs;
  std::fprintf(stderr,
               "[placer] suite placer speedup %.2fx   suite place+route "
               "serial %.1f ms  %zu threads %.1f ms\n",
               overallSpeedup, suiteSerialMs, threads, suiteParallelMs);

  support::txt::CheckedFileWriter writer("BENCH_placer.json", "benchout");
  auto& json = writer.stream();
  json << "{\n  \"threads\": " << threads
       << ",\n  \"placer_speedup_overall\": " << overallSpeedup
       << ",\n  \"suite_serial_ms\": " << suiteSerialMs
       << ",\n  \"suite_parallel_ms\": " << suiteParallelMs
       << ",\n  \"suite_parallel_speedup\": "
       << (suiteParallelMs > 0 ? suiteSerialMs / suiteParallelMs : 0.0)
       << ",\n  \"designs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const DesignRow& r = rows[i];
    json << "    {\"design\": \"" << r.name << "\""
         << ", \"clusters\": " << r.clusters << ", \"nets\": " << r.nets
         << ", \"moves_tried\": " << r.movesTried
         << ", \"placer_ref_ms\": " << r.placerRefMs
         << ", \"placer_inc_ms\": " << r.placerIncMs
         << ", \"placer_ref_moves_per_sec\": " << r.refMovesPerSec()
         << ", \"placer_inc_moves_per_sec\": " << r.incMovesPerSec()
         << ", \"placer_inc_ns_per_move\": " << r.incNsPerMove()
         << ", \"placer_speedup\": " << r.placerSpeedup()
         << ", \"router_ms\": " << r.routerMs
         << ", \"router_iters\": " << r.routerIters
         << ", \"router_iters_per_sec\": " << r.routerItersPerSec() << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  writer.commit();
  std::fprintf(stderr, "[placer] report written to BENCH_placer.json\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return hcp::bench::runBenchMain(
      "placer_hotpath", argc, argv,
      [&](hcp::bench::BenchSession& session) { runBody(session); });
}
