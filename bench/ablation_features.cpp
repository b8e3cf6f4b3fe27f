// Ablation: which feature groups earn their keep?
//
//  1. Two-hop neighbourhood features on/off — the paper (§IV-B) observes
//     that the two-hop resource/FF/LUT variants "exert greater influence";
//     dropping them should cost accuracy.
//  2. Marginal-filter threshold sweep around the paper's 3.4% outlier share
//     (DESIGN.md §5): how the filtered fraction and test error move with the
//     label-fraction cutoff.
#include "bench_common.hpp"
#include "features/feature_registry.hpp"
#include "ml/gbrt.hpp"
#include "ml/metrics.hpp"

using namespace hcp;

namespace {

/// Test MAE of a GBRT trained on `data` with an optional feature mask.
double gbrtMae(const ml::Dataset& data,
               const std::vector<bool>* keepFeature) {
  ml::Dataset masked(0);
  const ml::Dataset* used = &data;
  if (keepFeature) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      std::vector<double> row;
      row.reserve(data.numFeatures());
      for (std::size_t f = 0; f < data.numFeatures(); ++f)
        if ((*keepFeature)[f]) row.push_back(data.row(i)[f]);
      masked.add(std::move(row), data.target(i));
    }
    used = &masked;
  }
  const auto split = ml::trainTestSplit(used->size(), 0.2, bench::kSeed);
  const auto train = used->subset(split.train);
  const auto test = used->subset(split.test);
  ml::Gbrt model{ml::GbrtConfig{}};
  model.fit(ml::DatasetSource(train));
  return ml::meanAbsoluteError(test.targets(), model.predictAll(test));
}

}  // namespace

namespace {

/// The bench body; session plumbing lives in runBenchMain.
void runBench(hcp::bench::BenchSession&) {
  const auto device = fpga::Device::xc7z020like();
  const auto flows = bench::runBenchmarkSuite(device);
  const auto data = core::buildDataset(flows, {});
  const auto& reg = features::FeatureRegistry::instance();

  // --- 1. two-hop ablation -------------------------------------------------
  std::vector<bool> noTwoHop(reg.size(), true);
  std::size_t dropped = 0;
  for (std::size_t f = 0; f < reg.size(); ++f) {
    if (reg.info(f).name.find("2hop") != std::string::npos) {
      noTwoHop[f] = false;
      ++dropped;
    }
  }
  std::fprintf(stderr, "[ablation] training with/without %zu 2-hop "
                       "features...\n", dropped);
  Table twoHop("Ablation: two-hop neighbourhood features "
               "(paper §IV-B: two-hop variants are the strongest)");
  twoHop.setHeader({"Feature set", "#Features", "V MAE", "H MAE"});
  twoHop.addRow({"all 302", std::to_string(reg.size()),
                 fmt(gbrtMae(data.vertical, nullptr)),
                 fmt(gbrtMae(data.horizontal, nullptr))});
  twoHop.addRow({"without 2-hop", std::to_string(reg.size() - dropped),
                 fmt(gbrtMae(data.vertical, &noTwoHop)),
                 fmt(gbrtMae(data.horizontal, &noTwoHop))});
  bench::emit(twoHop, "ablation_twohop.csv");

  // --- 2. marginal-filter threshold sweep -----------------------------------
  Table filter("Ablation: marginal-filter threshold sweep "
               "(paper filters ~3.4% of ops)");
  filter.setHeader({"labelFraction", "minRadius", "Filtered(%)", "Samples",
                    "V MAE"});
  struct Point {
    double fraction, radius;
  };
  for (const Point p : {Point{0.0, 1.1}, Point{0.45, 0.65},
                        Point{0.65, 0.55}, Point{0.85, 0.45}}) {
    core::DatasetOptions opts;
    opts.applyMarginalFilter = p.fraction > 0.0;
    opts.filter.labelFraction = p.fraction;
    opts.filter.minRadius = p.radius;
    const auto filtered = core::buildDataset(flows, opts);
    std::fprintf(stderr, "[ablation] filter f=%.2f r=%.2f -> %zu samples\n",
                 p.fraction, p.radius, filtered.vertical.size());
    filter.addRow({fmt(p.fraction), fmt(p.radius),
                   fmt(100.0 * filtered.filterStats.fraction(), 1),
                   std::to_string(filtered.vertical.size()),
                   fmt(gbrtMae(filtered.vertical, nullptr))});
  }
  bench::emit(filter, "ablation_filter.csv");

  // --- 3. label source: negotiated router vs RUDY estimate ------------------
  // Rebuild one design's labels from the probabilistic estimator and compare
  // congestion statistics (the router is the label source of record).
  {
    const auto& flow = flows.front();
    const auto rudy = fpga::estimateRudy(flow.impl.packing,
                                         flow.impl.placement, device);
    Table router("Ablation: negotiated router vs RUDY estimate "
                 "(label source)");
    router.setHeader({"Label source", "max V(%)", "max H(%)", "mean H(%)",
                      "tiles>100%"});
    const auto& real = flow.impl.routing.map;
    router.addRow({"PathFinder router", fmt(real.maxVUtil()),
                   fmt(real.maxHUtil()), fmt(real.meanHUtil()),
                   std::to_string(real.tilesOver(100.0))});
    router.addRow({"RUDY estimate", fmt(rudy.maxVUtil()),
                   fmt(rudy.maxHUtil()), fmt(rudy.meanHUtil()),
                   std::to_string(rudy.tilesOver(100.0))});
    bench::emit(router, "ablation_router.csv");
  }
}

}  // namespace

int main(int argc, char** argv) {
  return hcp::bench::runBenchMain("ablation_features", argc, argv, runBench);
}
