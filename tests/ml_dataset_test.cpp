#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "ml/dataset.hpp"
#include "ml/metrics.hpp"
#include "ml/sample_source.hpp"

namespace hcp::ml {
namespace {

TEST(Dataset, AddAndSubset) {
  Dataset d(2);
  d.add({1, 2}, 10);
  d.add({3, 4}, 20);
  d.add({5, 6}, 30);
  const Dataset s = d.subset({2, 0});
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s.target(0), 30);
  EXPECT_DOUBLE_EQ(s.row(1)[0], 1);
}

TEST(Dataset, ArityEnforced) {
  Dataset d(3);
  EXPECT_THROW(d.add({1, 2}, 0), hcp::Error);
}

TEST(Dataset, MergeAppends) {
  Dataset a(1), b(1);
  a.add({1}, 1);
  b.add({2}, 2);
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
}

TEST(Dataset, MergeRejectsFeatureCountMismatch) {
  // Before the check, merging a 3-feature dataset into a 2-feature one
  // produced rows whose length disagreed with numFeatures() — every later
  // row() consumer indexed out of step.
  Dataset a(2), b(3);
  a.add({1, 2}, 1);
  b.add({1, 2, 3}, 2);
  try {
    a.merge(b);
    FAIL() << "mismatched merge not rejected";
  } catch (const hcp::Error& e) {
    EXPECT_NE(std::string(e.what()).find("feature-count mismatch"),
              std::string::npos);
  }
  EXPECT_EQ(a.size(), 1u);  // the failed merge appended nothing
}

TEST(TrainTestSplit, DisjointAndComplete) {
  const Split split = trainTestSplit(100, 0.2, 42);
  EXPECT_EQ(split.test.size(), 20u);
  EXPECT_EQ(split.train.size(), 80u);
  std::set<std::size_t> all(split.train.begin(), split.train.end());
  for (std::size_t i : split.test) EXPECT_TRUE(all.insert(i).second);
  EXPECT_EQ(all.size(), 100u);
}

TEST(TrainTestSplit, DeterministicPerSeed) {
  const Split a = trainTestSplit(50, 0.3, 7);
  const Split b = trainTestSplit(50, 0.3, 7);
  EXPECT_EQ(a.test, b.test);
  const Split c = trainTestSplit(50, 0.3, 8);
  EXPECT_NE(a.test, c.test);
}

TEST(KFold, EveryIndexTestedExactlyOnce) {
  const auto folds = kFoldSplits(53, 10, 3);
  ASSERT_EQ(folds.size(), 10u);
  std::vector<int> tested(53, 0);
  for (const Split& f : folds) {
    EXPECT_EQ(f.train.size() + f.test.size(), 53u);
    for (std::size_t i : f.test) ++tested[i];
  }
  for (int t : tested) EXPECT_EQ(t, 1);
}

TEST(KFold, RequiresAtLeastTwoFolds) {
  EXPECT_THROW(kFoldSplits(10, 1, 0), hcp::Error);
  EXPECT_THROW(kFoldSplits(3, 5, 0), hcp::Error);
}

/// A dataset of `rows` with zero targets (the scaler reads features only).
Dataset rowsOnly(const std::vector<std::vector<double>>& rows) {
  Dataset d;
  for (const auto& r : rows) d.add(r, 0.0);
  return d;
}

TEST(Scaler, StandardizesColumns) {
  StandardScaler s;
  s.fit(DatasetSource(rowsOnly({{0, 100}, {10, 300}})));
  const auto z = s.transform({0, 100});
  EXPECT_NEAR(z[0], -1.0, 1e-9);
  EXPECT_NEAR(z[1], -1.0, 1e-9);
}

TEST(Scaler, ConstantColumnSafe) {
  StandardScaler s;
  s.fit(DatasetSource(rowsOnly({{5, 1}, {5, 2}})));
  const auto z = s.transform({5, 1.5});
  EXPECT_DOUBLE_EQ(z[0], 0.0);  // no NaN/inf from zero variance
  EXPECT_TRUE(std::isfinite(z[1]));
}

// --- metrics --------------------------------------------------------------

TEST(Metrics, MaeAndMedae) {
  const std::vector<double> y{10, 20, 30, 40};
  const std::vector<double> p{12, 18, 30, 140};  // errors 2,2,0,100
  EXPECT_DOUBLE_EQ(meanAbsoluteError(y, p), 26.0);
  EXPECT_DOUBLE_EQ(medianAbsoluteError(y, p), 2.0);  // robust to the outlier
}

TEST(Metrics, RmsePenalizesOutliers) {
  const std::vector<double> y{0, 0};
  const std::vector<double> small{1, 1};
  const std::vector<double> spiky{0, 2};
  // Same MAE, different RMSE.
  EXPECT_DOUBLE_EQ(meanAbsoluteError(y, small), meanAbsoluteError(y, spiky));
  EXPECT_LT(rootMeanSquaredError(y, small), rootMeanSquaredError(y, spiky));
}

TEST(Metrics, R2PerfectAndMean) {
  const std::vector<double> y{1, 2, 3};
  EXPECT_DOUBLE_EQ(r2Score(y, y), 1.0);
  const std::vector<double> meanPred{2, 2, 2};
  EXPECT_NEAR(r2Score(y, meanPred), 0.0, 1e-12);
}

TEST(Metrics, EmptyInputThrows) {
  const std::vector<double> e;
  EXPECT_THROW(meanAbsoluteError(e, e), hcp::Error);
}

}  // namespace
}  // namespace hcp::ml
