// Table IV — congestion estimation accuracy (paper §IV-A): MAE and MedAE of
// Linear (Lasso), ANN and GBRT on vertical / horizontal / average congestion,
// with and without the marginal-sample filter.
//
// Protocol mirrors the paper: 80/20 train/test split, k-fold cross-validation
// with grid search on the training set (paper: 10-fold; default here 5 for
// runtime — set HCP_CV_FOLDS=10 to match exactly), the untouched test set
// scored once with the best configuration.
#include <cstdlib>

#include "bench_common.hpp"
#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "ml/validation.hpp"

using namespace hcp;

namespace {

struct Scores {
  double mae = 0.0;
  double medae = 0.0;
};

std::size_t cvFolds() {
  // Strict parse: HCP_CV_FOLDS=10x used to atoi-truncate to 10 folds and
  // HCP_CV_FOLDS=ten silently clamped to 2 — both exit 2 now.
  return static_cast<std::size_t>(
      hcp::support::env::u64OrDie("HCP_CV_FOLDS", 2, 1000, 5));
}

/// Grid-search + final evaluation for one model family on one target.
template <typename Config>
Scores evaluate(const ml::Dataset& data, const std::vector<Config>& grid,
                const std::function<std::unique_ptr<ml::Regressor>(
                    const Config&)>& factory) {
  const auto split = ml::trainTestSplit(data.size(), 0.2, bench::kSeed);
  const auto train = data.subset(split.train);
  const auto test = data.subset(split.test);
  const auto search =
      ml::gridSearch<Config>(grid, factory, train, cvFolds(), bench::kSeed);
  auto model = factory(search.bestConfig);
  model->fit(ml::DatasetSource(train));
  const auto pred = model->predictAll(test);
  return {ml::meanAbsoluteError(test.targets(), pred),
          ml::medianAbsoluteError(test.targets(), pred)};
}

Scores evalLinear(const ml::Dataset& data) {
  const std::vector<ml::LassoConfig> grid{
      {.alpha = 0.01}, {.alpha = 0.1}, {.alpha = 1.0}};
  return evaluate<ml::LassoConfig>(data, grid, [](const auto& c) {
    return std::make_unique<ml::LassoRegression>(c);
  });
}

Scores evalAnn(const ml::Dataset& data) {
  std::vector<ml::MlpConfig> grid;
  {
    ml::MlpConfig a;
    a.hiddenLayers = {64, 32};
    a.maxEpochs = 60;
    grid.push_back(a);
    ml::MlpConfig b;
    b.hiddenLayers = {32};
    b.learningRate = 3e-3;
    b.maxEpochs = 60;
    grid.push_back(b);
  }
  return evaluate<ml::MlpConfig>(data, grid, [](const auto& c) {
    return std::make_unique<ml::MlpRegressor>(c);
  });
}

Scores evalGbrt(const ml::Dataset& data) {
  std::vector<ml::GbrtConfig> grid;
  {
    ml::GbrtConfig a;  // defaults: 300 trees, depth 4
    grid.push_back(a);
    ml::GbrtConfig b;
    b.numEstimators = 500;
    b.maxDepth = 5;
    b.learningRate = 0.06;
    grid.push_back(b);
  }
  return evaluate<ml::GbrtConfig>(data, grid, [](const auto& c) {
    return std::make_unique<ml::Gbrt>(c);
  });
}

}  // namespace

namespace {

/// The bench body; session plumbing lives in runBenchMain.
void runBench(hcp::bench::BenchSession&) {
  const auto device = fpga::Device::xc7z020like();
  const auto flows = bench::runBenchmarkSuite(device);

  Table table(
      "Table IV: congestion estimation results (MAE / MedAE, %)\n"
      "paper filtered GBRT: V 9.59/6.71, H 14.54/10.05, avg 9.70/6.81; "
      "ordering GBRT < ANN < Linear; filtering improves every model");
  table.setHeader({"Filtering", "Model", "V MAE", "V MedAE", "H MAE",
                   "H MedAE", "Avg MAE", "Avg MedAE"});

  for (const bool filtered : {false, true}) {
    core::DatasetOptions opts;
    opts.applyMarginalFilter = filtered;
    const auto data = core::buildDataset(flows, opts);
    std::fprintf(stderr,
                 "[table4] %s: %zu samples (%zu marginal, %.1f%%)\n",
                 filtered ? "filtered" : "unfiltered", data.vertical.size(),
                 data.filterStats.marginal,
                 100.0 * data.filterStats.fraction());

    struct ModelRow {
      const char* name;
      Scores (*eval)(const ml::Dataset&);
    };
    const ModelRow models[] = {
        {"Linear", evalLinear}, {"ANN", evalAnn}, {"GBRT", evalGbrt}};
    for (const auto& m : models) {
      std::fprintf(stderr, "[table4]   %s...\n", m.name);
      const Scores v = m.eval(data.vertical);
      const Scores h = m.eval(data.horizontal);
      const Scores a = m.eval(data.average);
      table.addRow({filtered ? "Filtering" : "Not Filtering", m.name,
                    fmt(v.mae), fmt(v.medae), fmt(h.mae), fmt(h.medae),
                    fmt(a.mae), fmt(a.medae)});
    }
  }
  bench::emit(table, "table4_accuracy.csv");
}

}  // namespace

int main(int argc, char** argv) {
  return hcp::bench::runBenchMain("table4_accuracy", argc, argv, runBench);
}
