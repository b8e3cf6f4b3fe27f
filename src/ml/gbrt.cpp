#include "ml/gbrt.hpp"

#include <algorithm>
#include <cmath>

#include "support/parallel.hpp"
#include "support/telemetry.hpp"

namespace hcp::ml {

void Gbrt::fit(const RowSource& source) {
  HCP_SPAN("gbrt_fit");
  const std::size_t n = source.size();
  HCP_CHECK(n >= 4);
  numFeatures_ = source.numFeatures();
  Rng rng(config_.seed);

  // Quantile edges stream through feature blocks; the raw doubles of a
  // block are dropped before the next is gathered. One more parallel pass
  // bins every row (a pure per-row transform — safe to run concurrently)
  // and captures the targets, after which the source is not touched again:
  // the boosting stages below run on the resident uint8 matrix.
  binner_.fit(source, config_.numBins);
  std::vector<std::vector<std::uint8_t>> binned(n);
  std::vector<double> targets(n, 0.0);
  source.visitParallel(
      [&](std::size_t i, const std::vector<double>& row, double y) {
        binned[i] = binner_.binRow(row);
        targets[i] = y;
      });

  // F0 = mean target.
  baseline_ = 0.0;
  for (double y : targets) baseline_ += y;
  baseline_ /= static_cast<double>(n);

  std::vector<double> prediction(n, baseline_);
  std::vector<double> residual(n);
  trees_.clear();
  trees_.reserve(config_.numEstimators);

  const auto rowsPerStage = static_cast<std::size_t>(
      std::max(2.0, config_.subsample * static_cast<double>(n)));
  const auto featsPerStage = static_cast<std::size_t>(std::max(
      1.0, config_.featureFraction * static_cast<double>(numFeatures_)));

  TreeConfig treeConfig;
  treeConfig.maxDepth = config_.maxDepth;
  treeConfig.minSamplesLeaf = config_.minSamplesLeaf;

  std::vector<std::size_t> allRows(n);
  for (std::size_t i = 0; i < allRows.size(); ++i) allRows[i] = i;
  std::vector<std::size_t> allFeatures(numFeatures_);
  for (std::size_t f = 0; f < numFeatures_; ++f) allFeatures[f] = f;

  for (std::size_t stage = 0; stage < config_.numEstimators; ++stage) {
    for (std::size_t i = 0; i < n; ++i)
      residual[i] = targets[i] - prediction[i];

    // Row / feature subsampling for this stage.
    rng.shuffle(allRows);
    std::vector<std::size_t> rows(allRows.begin(),
                                  allRows.begin() +
                                      static_cast<std::ptrdiff_t>(
                                          rowsPerStage));
    rng.shuffle(allFeatures);
    std::vector<std::size_t> features(
        allFeatures.begin(),
        allFeatures.begin() + static_cast<std::ptrdiff_t>(featsPerStage));

    RegressionTree tree;
    tree.fitBinned(binned, residual, std::move(rows), features, binner_,
                   treeConfig);

    // Per-row updates are independent and write disjoint slots.
    support::parallelFor(0, n, 256, [&](std::size_t i) {
      prediction[i] += config_.learningRate * tree.predictBinned(binned[i]);
    });
    trees_.push_back(std::move(tree));
  }
  flatten();
  support::telemetry::count(support::telemetry::Counter::GbrtBoostingRounds,
                            config_.numEstimators);

  trainLoss_ = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = targets[i] - prediction[i];
    trainLoss_ += d * d;
  }
  trainLoss_ /= static_cast<double>(n);
}

void Gbrt::flatten() {
  flat_.clear();
  roots_.clear();
  roots_.reserve(trees_.size());
  for (const RegressionTree& t : trees_) {
    roots_.push_back(static_cast<std::uint32_t>(flat_.size()));
    t.appendFlat(flat_, config_.learningRate);
  }
}

void Gbrt::checkRow(const std::vector<double>& row) const {
  HCP_CHECK_MSG(row.size() == numFeatures_,
                "GBRT row has " << row.size() << " features, model expects "
                                << numFeatures_);
}

namespace {

/// Walks one flat tree from its root `i` for row `x`; returns the scaled leaf.
/// NaN fails `<=` and goes right, as in RegressionTree::predict.
inline double leafOf(const FlatTreeNode* nodes, std::uint32_t i,
                     const double* x) {
  while (nodes[i].feature >= 0) {
    const FlatTreeNode& n = nodes[i];
    i = x[n.feature] <= n.value ? i + 1 : n.right;
  }
  return nodes[i].value;
}

}  // namespace

double Gbrt::predict(const std::vector<double>& row) const {
  checkRow(row);
  double y = baseline_;
  for (const std::uint32_t root : roots_)
    y += leafOf(flat_.data(), root, row.data());
  return y;
}

void Gbrt::predictBatch(std::span<const std::vector<double>* const> rows,
                        std::span<double> out) const {
  HCP_CHECK(rows.size() == out.size());
  for (const std::vector<double>* row : rows) checkRow(*row);
  std::fill(out.begin(), out.end(), baseline_);
  for (const std::uint32_t root : roots_)
    for (std::size_t r = 0; r < rows.size(); ++r)
      out[r] += leafOf(flat_.data(), root, rows[r]->data());
}

std::vector<double> Gbrt::featureImportance() const {
  std::vector<double> imp(numFeatures_, 0.0);
  double total = 0.0;
  for (const RegressionTree& t : trees_) {
    const auto& counts = t.splitCounts();
    for (std::size_t f = 0; f < counts.size(); ++f) {
      imp[f] += counts[f];
      total += counts[f];
    }
  }
  if (total > 0)
    for (double& v : imp) v /= total;
  return imp;
}

std::vector<double> Gbrt::featureImportanceByGain() const {
  std::vector<double> imp(numFeatures_, 0.0);
  double total = 0.0;
  for (const RegressionTree& t : trees_) {
    const auto& gains = t.splitGains();
    for (std::size_t f = 0; f < gains.size(); ++f) {
      imp[f] += gains[f];
      total += gains[f];
    }
  }
  if (total > 0)
    for (double& v : imp) v /= total;
  return imp;
}

}  // namespace hcp::ml
