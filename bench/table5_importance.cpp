// Table V — important feature categories per congestion metric (paper
// §IV-B): GBRT split-count importance aggregated over the registry's
// categories, ranked per target. The paper finds #Resource/dTcs and
// Resource on top, Interconnection next, then Global (mux/memory).
#include <algorithm>

#include "bench_common.hpp"
#include "features/feature_registry.hpp"
#include "ml/gbrt.hpp"

using namespace hcp;
using features::Category;
using features::FeatureRegistry;

namespace {

/// Importance per category for one trained GBRT. `perFeatureAverage`
/// divides each category's split share by its feature count (the paper
/// describes "averaging the number of times a feature is used as a split
/// point"); false sums shares, which favours large categories.
std::vector<std::pair<double, Category>> categoryImportance(
    const ml::Dataset& data, bool perFeatureAverage) {
  ml::GbrtConfig cfg;
  cfg.numEstimators = 400;
  cfg.featureFraction = 0.6;
  ml::Gbrt model(cfg);
  model.fit(ml::DatasetSource(data));
  const auto perFeature = model.featureImportance();
  const auto& reg = FeatureRegistry::instance();
  const auto counts = reg.categoryCounts();
  std::array<double, features::kNumCategories> byCat{};
  for (std::size_t f = 0; f < perFeature.size(); ++f)
    byCat[static_cast<std::size_t>(reg.info(f).category)] += perFeature[f];
  std::vector<std::pair<double, Category>> ranked;
  for (std::size_t c = 0; c < features::kNumCategories; ++c) {
    const double v = perFeatureAverage
                         ? byCat[c] / static_cast<double>(counts[c])
                         : byCat[c];
    ranked.emplace_back(v, static_cast<Category>(c));
  }
  std::sort(ranked.rbegin(), ranked.rend());
  return ranked;
}

}  // namespace

namespace {

/// The bench body; session plumbing lives in runBenchMain.
void runBench(hcp::bench::BenchSession&) {
  const auto device = fpga::Device::xc7z020like();
  const auto flows = bench::runBenchmarkSuite(device);
  const auto data = core::buildDataset(flows, {});

  std::fprintf(stderr, "[table5] training GBRT per target...\n");
  for (const bool perFeature : {false, true}) {
    const auto v = categoryImportance(data.vertical, perFeature);
    const auto h = categoryImportance(data.horizontal, perFeature);
    const auto a = categoryImportance(data.average, perFeature);

    Table table(
        std::string("Table V: important feature categories (") +
        (perFeature ? "split share per feature — the paper's 'averaging'"
                    : "total split share") +
        ")\npaper top-4: V = dTcs, Resource, Interconnection, Global(Mux); "
        "H = dTcs, Resource, Interconnection, Global(Memory)");
    table.setHeader({"Rank", "Vertical Congestion", "Horizontal Congestion",
                     "Avg (V,H) Congestion"});
    for (std::size_t rank = 0; rank < features::kNumCategories; ++rank) {
      auto cell = [&](const std::vector<std::pair<double, Category>>& r) {
        return std::string(categoryName(r[rank].second)) + " (" +
               fmt(100.0 * r[rank].first, perFeature ? 2 : 1) + "%)";
      };
      table.addRow({std::to_string(rank + 1), cell(v), cell(h), cell(a)});
    }
    bench::emit(table, perFeature ? "table5_importance_per_feature.csv"
                                  : "table5_importance.csv");
  }

  // Top individual features for the vertical model (diagnostic detail).
  {
    ml::Gbrt model{ml::GbrtConfig{}};
    model.fit(ml::DatasetSource(data.vertical));
    const auto imp = model.featureImportance();
    std::vector<std::pair<double, std::size_t>> ranked;
    for (std::size_t f = 0; f < imp.size(); ++f) ranked.emplace_back(imp[f], f);
    std::sort(ranked.rbegin(), ranked.rend());
    Table top("Top-10 individual features (vertical model)");
    top.setHeader({"Feature", "Share(%)"});
    for (int i = 0; i < 10; ++i)
      top.addRow({FeatureRegistry::instance().info(ranked[i].second).name,
                  fmt(100.0 * ranked[i].first, 2)});
    bench::emit(top, "table5_top_features.csv");
  }
}

}  // namespace

int main(int argc, char** argv) {
  return hcp::bench::runBenchMain("table5_importance", argc, argv, runBench);
}
