#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/metrics.hpp"
#include "ml/mlp.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace hcp::ml {
namespace {

/// y = 2*x0 - 3*x1 + 1 + noise over d features (rest irrelevant).
Dataset linearData(std::size_t n, std::size_t d, double noise,
                   std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(d);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(d);
    for (auto& v : x) v = rng.uniformReal(-1, 1);
    data.add(x, 2 * x[0] - 3 * x[1] + 1 + rng.normal(0, noise));
  }
  return data;
}

/// y = 4*x0*x1 + x2^2 + noise — needs a nonlinear model.
Dataset nonlinearData(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(d);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(d);
    for (auto& v : x) v = rng.uniformReal(-2, 2);
    data.add(x, 4 * x[0] * x[1] + x[2] * x[2] + rng.normal(0, 0.2));
  }
  return data;
}

// --- Lasso -----------------------------------------------------------------

TEST(Lasso, RecoversLinearTarget) {
  const auto data = linearData(500, 6, 0.05, 1);
  LassoRegression model({.alpha = 0.01});
  model.fit(DatasetSource(data));
  const auto pred = model.predictAll(data);
  EXPECT_LT(meanAbsoluteError(data.targets(), pred), 0.15);
}

TEST(Lasso, AlphaControlsSparsity) {
  const auto data = linearData(400, 20, 0.1, 2);
  LassoRegression loose({.alpha = 0.001});
  LassoRegression tight({.alpha = 0.8});
  loose.fit(DatasetSource(data));
  tight.fit(DatasetSource(data));
  EXPECT_LT(tight.nonZeroWeights(), loose.nonZeroWeights());
  // Strong regularization still keeps the two real predictors.
  EXPECT_GE(tight.nonZeroWeights(), 1u);
}

TEST(Lasso, ConvergesBeforeIterationCap) {
  const auto data = linearData(200, 4, 0.05, 3);
  LassoRegression model({.alpha = 0.05, .maxIterations = 400});
  model.fit(DatasetSource(data));
  EXPECT_LT(model.iterationsRun(), 400);
}

TEST(Lasso, PredictBeforeFitThrows) {
  LassoRegression model;
  EXPECT_THROW(model.predict({1.0}), hcp::Error);
}

// --- MLP ---------------------------------------------------------------

TEST(Mlp, LearnsNonlinearTarget) {
  const auto data = nonlinearData(1500, 8, 4);
  MlpRegressor model({.hiddenLayers = {32, 16}, .maxEpochs = 80});
  model.fit(DatasetSource(data));
  const auto pred = model.predictAll(data);
  // Std of the target is ~5; a linear model can't get below ~3 MAE.
  EXPECT_LT(meanAbsoluteError(data.targets(), pred), 1.5);
}

TEST(Mlp, BeatsLinearOnNonlinearData) {
  const auto data = nonlinearData(1500, 8, 5);
  const Split split = trainTestSplit(data.size(), 0.25, 9);
  const auto train = data.subset(split.train);
  const auto test = data.subset(split.test);
  LassoRegression linear({.alpha = 0.01});
  MlpRegressor mlp({.hiddenLayers = {32, 16}, .maxEpochs = 80});
  linear.fit(DatasetSource(train));
  mlp.fit(DatasetSource(train));
  const double maeLinear =
      meanAbsoluteError(test.targets(), linear.predictAll(test));
  const double maeMlp = meanAbsoluteError(test.targets(), mlp.predictAll(test));
  EXPECT_LT(maeMlp, maeLinear * 0.6);
}

TEST(Mlp, EarlyStoppingBoundsEpochs) {
  const auto data = linearData(300, 4, 0.01, 6);
  MlpRegressor model({.hiddenLayers = {16}, .maxEpochs = 200, .patience = 3});
  model.fit(DatasetSource(data));
  EXPECT_LE(model.epochsRun(), 200u);
  EXPECT_TRUE(std::isfinite(model.bestValidationLoss()));
}

TEST(Mlp, DeterministicForSeed) {
  const auto data = linearData(200, 4, 0.1, 7);
  MlpRegressor a({.maxEpochs = 10, .seed = 5});
  MlpRegressor b({.maxEpochs = 10, .seed = 5});
  a.fit(DatasetSource(data));
  b.fit(DatasetSource(data));
  EXPECT_DOUBLE_EQ(a.predict(data.row(0)), b.predict(data.row(0)));
}

// --- trees -------------------------------------------------------------

TEST(Binner, QuantileBinsMonotone) {
  Dataset data(1);
  for (int i = 0; i < 100; ++i) data.add({static_cast<double>(i)}, 0.0);
  Binner binner;
  binner.fit(DatasetSource(data), 16);
  std::uint8_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const auto bin = binner.binOf(0, static_cast<double>(i));
    EXPECT_GE(bin, prev);
    prev = bin;
  }
  EXPECT_GT(prev, 10);  // uses most of the 16 bins on uniform data
}

TEST(Binner, ConstantFeatureSingleBin) {
  Dataset data(1);
  for (int i = 0; i < 50; ++i) data.add({3.0}, 0.0);
  Binner binner;
  binner.fit(DatasetSource(data), 16);
  EXPECT_LE(binner.binOf(0, 3.0), 1);
}

TEST(Binner, ColumnBlocksMatchOneBlockFit) {
  // A budget of two columns splits 7 features into 4 source passes; each
  // feature's edges depend only on its own values, so they must equal the
  // one-pass fit's at every thread count. threshold(f, b) for every bin
  // spells out feature f's ascending edge list.
  const auto data = nonlinearData(300, 7, 12);
  const DatasetSource source(data);
  const auto edgesOf = [&](const Binner& binner) {
    std::vector<double> out;
    for (std::size_t f = 0; f < data.numFeatures(); ++f)
      for (int b = 0; b < 256; ++b)
        out.push_back(binner.threshold(f, static_cast<std::uint8_t>(b)));
    return out;
  };
  Binner whole;
  whole.fit(source, 32);
  const auto want = edgesOf(whole);
  const std::size_t twoColumns = 2 * data.size() * sizeof(double);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    support::ScopedThreadLimit limit(threads);
    Binner blocked;
    blocked.fit(source, 32, twoColumns);
    EXPECT_EQ(edgesOf(blocked), want) << threads << " threads";
  }
}

TEST(RegressionTreeTest, FitsStepFunction) {
  Dataset data(1);
  for (int i = 0; i < 200; ++i) {
    const double x = i / 200.0;
    data.add({x}, x < 0.5 ? 1.0 : 5.0);
  }
  RegressionTree tree;
  tree.fit(data, {.maxDepth = 2, .minSamplesLeaf = 5});
  EXPECT_NEAR(tree.predict({0.2}), 1.0, 0.1);
  EXPECT_NEAR(tree.predict({0.9}), 5.0, 0.1);
  EXPECT_GE(tree.splitCounts()[0], 1u);
}

TEST(RegressionTreeTest, DepthLimited) {
  const auto data = nonlinearData(500, 4, 11);
  RegressionTree tree;
  tree.fit(data, {.maxDepth = 3, .minSamplesLeaf = 2});
  EXPECT_LE(tree.depth(), 4);  // root at depth 1
}

TEST(RegressionTreeTest, MinSamplesLeafRespected) {
  Dataset data(1);
  for (int i = 0; i < 20; ++i)
    data.add({static_cast<double>(i)}, static_cast<double>(i));
  RegressionTree tree;
  tree.fit(data, {.maxDepth = 10, .minSamplesLeaf = 8});
  // With 20 samples and >= 8 per leaf, at most 2 leaves -> <= 3 nodes.
  EXPECT_LE(tree.numNodes(), 3u);
}

// --- GBRT ------------------------------------------------------------------

TEST(GbrtTest, LearnsNonlinearTarget) {
  const auto data = nonlinearData(1500, 8, 12);
  Gbrt model({.numEstimators = 200, .learningRate = 0.1});
  model.fit(DatasetSource(data));
  const auto pred = model.predictAll(data);
  EXPECT_LT(meanAbsoluteError(data.targets(), pred), 1.2);
}

TEST(GbrtTest, BeatsLinearOnNonlinearData) {
  const auto data = nonlinearData(1500, 8, 13);
  const Split split = trainTestSplit(data.size(), 0.25, 3);
  const auto train = data.subset(split.train);
  const auto test = data.subset(split.test);
  LassoRegression linear({.alpha = 0.01});
  Gbrt gbrt;
  linear.fit(DatasetSource(train));
  gbrt.fit(DatasetSource(train));
  EXPECT_LT(meanAbsoluteError(test.targets(), gbrt.predictAll(test)),
            meanAbsoluteError(test.targets(), linear.predictAll(test)) * 0.6);
}

TEST(GbrtTest, MoreTreesFitBetter) {
  const auto data = nonlinearData(800, 6, 14);
  Gbrt few({.numEstimators = 10});
  Gbrt many({.numEstimators = 200});
  few.fit(DatasetSource(data));
  many.fit(DatasetSource(data));
  EXPECT_LT(many.trainLoss(), few.trainLoss());
}

TEST(GbrtTest, FeatureImportanceFindsRealPredictors) {
  const auto data = nonlinearData(1200, 10, 15);  // only x0,x1,x2 matter
  Gbrt model({.numEstimators = 150, .featureFraction = 1.0});
  model.fit(DatasetSource(data));
  const auto imp = model.featureImportance();
  ASSERT_EQ(imp.size(), 10u);
  double sum = 0.0;
  for (double v : imp) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Split counts dilute over noise features at shallow depth; the real
  // predictors must still dominate, and gain-weighting more sharply so.
  const double real = imp[0] + imp[1] + imp[2];
  EXPECT_GT(real, 0.5);
  const auto gains = model.featureImportanceByGain();
  EXPECT_GT(gains[0] + gains[1] + gains[2], real);
  EXPECT_GT(gains[0] + gains[1] + gains[2], 0.75);
}

TEST(GbrtTest, DeterministicForSeed) {
  const auto data = nonlinearData(400, 5, 16);
  Gbrt a({.numEstimators = 30, .seed = 8});
  Gbrt b({.numEstimators = 30, .seed = 8});
  a.fit(DatasetSource(data));
  b.fit(DatasetSource(data));
  EXPECT_DOUBLE_EQ(a.predict(data.row(1)), b.predict(data.row(1)));
}

// --- flat GBRT evaluator vs the per-tree reference ---------------------------

/// baseline + sum of learningRate * tree.predict(row), in tree order: the
/// per-tree walk the flat forest must reproduce bit for bit.
double referencePredict(const Gbrt& model, const std::vector<double>& row) {
  double y = model.baseline();
  for (const RegressionTree& t : model.trees())
    y += model.learningRate() * t.predict(row);
  return y;
}

/// Every training row, plus rows probing the split edges — each split
/// value exactly and one ulp either side — and rows holding NaN or +-inf
/// in each feature, and one all-NaN row.
std::vector<std::vector<double>> probeRows(const Gbrt& model,
                                           const Dataset& data) {
  std::vector<std::vector<double>> rows;
  for (std::size_t i = 0; i < data.size(); ++i) rows.push_back(data.row(i));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const RegressionTree& t : model.trees()) {
    std::vector<FlatTreeNode> nodes;
    t.appendFlat(nodes, 1.0);
    for (const FlatTreeNode& n : nodes) {
      if (n.feature < 0) continue;  // leaf
      for (const double v : {n.value, std::nextafter(n.value, inf),
                             std::nextafter(n.value, -inf)}) {
        std::vector<double> row = data.row(rows.size() % data.size());
        row[static_cast<std::size_t>(n.feature)] = v;
        rows.push_back(std::move(row));
      }
    }
  }
  for (std::size_t f = 0; f < data.numFeatures(); ++f) {
    for (const double v : {nan, inf, -inf}) {
      std::vector<double> row = data.row(f % data.size());
      row[f] = v;
      rows.push_back(std::move(row));
    }
  }
  rows.emplace_back(data.numFeatures(), nan);
  return rows;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(GbrtFlat, PredictAndBatchEqualPerTreeReferenceBitForBit) {
  const auto data = nonlinearData(500, 6, 21);
  Gbrt model({.numEstimators = 60, .learningRate = 0.07});
  model.fit(DatasetSource(data));
  const auto rows = probeRows(model, data);
  ASSERT_GT(rows.size(), data.size() + 3 * 60);

  std::vector<double> expected;
  for (const auto& row : rows) expected.push_back(referencePredict(model, row));
  for (std::size_t i = 0; i < rows.size(); ++i)
    ASSERT_EQ(bits(model.predict(rows[i])), bits(expected[i])) << "row " << i;

  // Blocked path at several block sizes (including a ragged tail).
  std::vector<const std::vector<double>*> ptrs;
  for (const auto& row : rows) ptrs.push_back(&row);
  for (const std::size_t block : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, rows.size()}) {
    std::vector<double> out(rows.size());
    for (std::size_t lo = 0; lo < rows.size(); lo += block) {
      const std::size_t n = std::min(block, rows.size() - lo);
      model.predictBatch(std::span(ptrs).subspan(lo, n),
                         std::span(out).subspan(lo, n));
    }
    for (std::size_t i = 0; i < rows.size(); ++i)
      ASSERT_EQ(bits(out[i]), bits(expected[i]))
          << "row " << i << " block " << block;
  }

  // predictAll routes through predictBatch in parallel blocks.
  Dataset probe(data.numFeatures());
  for (const auto& row : rows) probe.add(row, 0.0);
  const auto all = model.predictAll(probe);
  ASSERT_EQ(all.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    ASSERT_EQ(bits(all[i]), bits(expected[i])) << "row " << i;
}

TEST(GbrtFlat, SplitValueGoesLeftAndNanGoesRight) {
  // One feature, a step at 0: the single split's threshold is an exact
  // training value, so x == threshold must take the left (<=) branch.
  Dataset data(1);
  for (int i = -20; i < 20; ++i) data.add({double(i)}, i < 0 ? -1.0 : 1.0);
  Gbrt model({.numEstimators = 1, .learningRate = 1.0, .maxDepth = 1,
              .minSamplesLeaf = 1, .subsample = 1.0, .featureFraction = 1.0});
  model.fit(DatasetSource(data));
  std::vector<FlatTreeNode> nodes;
  model.trees().front().appendFlat(nodes, 1.0);
  ASSERT_EQ(nodes.size(), 3u);
  const double t = nodes[0].value;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double left = model.predict({-100.0});
  const double right = model.predict({100.0});
  ASSERT_NE(left, right);
  EXPECT_EQ(model.predict({t}), left);
  EXPECT_EQ(model.predict({std::nextafter(t, 1e9)}), right);
  EXPECT_EQ(model.predict({nan}), right);
}

TEST(GbrtFlat, RejectsRowOfTheWrongSize) {
  const auto data = nonlinearData(200, 5, 22);
  Gbrt model({.numEstimators = 5});
  model.fit(DatasetSource(data));
  EXPECT_THROW(model.predict(std::vector<double>(4, 0.0)), hcp::Error);
  EXPECT_THROW(model.predict(std::vector<double>(6, 0.0)), hcp::Error);
  const std::vector<double> good(5, 0.0), bad(6, 0.0);
  const std::vector<const std::vector<double>*> rows{&good, &bad};
  std::vector<double> out(2);
  EXPECT_THROW(model.predictBatch(rows, out), hcp::Error);
}

/// Property sweep: all three models produce finite predictions across
/// dataset shapes.
class ModelSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ModelSweep, FinitePredictions) {
  const std::size_t d = GetParam();
  const auto data = linearData(120, d, 0.2, 17 + d);
  std::vector<std::unique_ptr<Regressor>> models;
  models.push_back(std::make_unique<LassoRegression>());
  models.push_back(std::make_unique<MlpRegressor>(
      MlpConfig{.hiddenLayers = {8}, .maxEpochs = 5}));
  models.push_back(std::make_unique<Gbrt>(GbrtConfig{.numEstimators = 10}));
  for (auto& model : models) {
    model->fit(DatasetSource(data));
    for (std::size_t i = 0; i < 10; ++i)
      EXPECT_TRUE(std::isfinite(model->predict(data.row(i))))
          << model->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, ModelSweep, ::testing::Values(2, 5, 17, 40));

}  // namespace
}  // namespace hcp::ml
