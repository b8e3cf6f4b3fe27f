#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <thread>

#include "ml/gbrt.hpp"
#include "ml/linear.hpp"
#include "ml/mlp.hpp"
#include "ml/validation.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace hcp::ml {
namespace {

Dataset linearData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(3);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x{rng.uniformReal(-1, 1), rng.uniformReal(-1, 1),
                          rng.uniformReal(-1, 1)};
    data.add(x, 3 * x[0] - x[1] + rng.normal(0, 0.1));
  }
  return data;
}

TEST(CrossValidate, RunsAllFolds) {
  const auto data = linearData(200, 1);
  const CvResult cv = crossValidate(
      [] { return std::make_unique<LassoRegression>(); }, data, 5, 42);
  EXPECT_EQ(cv.foldMae.size(), 5u);
  EXPECT_EQ(cv.foldMedae.size(), 5u);
  EXPECT_GT(cv.meanMae, 0.0);
  EXPECT_LT(cv.meanMae, 0.3);  // easy linear problem
  EXPECT_LE(cv.meanMedae, cv.meanMae * 1.5);
}

TEST(CrossValidate, DeterministicPerSeed) {
  const auto data = linearData(150, 2);
  auto factory = [] { return std::make_unique<LassoRegression>(); };
  const CvResult a = crossValidate(factory, data, 4, 7);
  const CvResult b = crossValidate(factory, data, 4, 7);
  EXPECT_DOUBLE_EQ(a.meanMae, b.meanMae);
}

TEST(GridSearch, PicksBestAlpha) {
  const auto data = linearData(300, 3);
  // Absurdly strong regularization must lose to a sensible one.
  const std::vector<LassoConfig> grid{
      {.alpha = 0.01}, {.alpha = 50.0}};
  const auto result = gridSearch<LassoConfig>(
      grid,
      [](const LassoConfig& c) {
        return std::make_unique<LassoRegression>(c);
      },
      data, 4, 11);
  EXPECT_DOUBLE_EQ(result.bestConfig.alpha, 0.01);
  EXPECT_EQ(result.all.size(), 2u);
  EXPECT_LE(result.bestCv.meanMae, result.all[1].second.meanMae);
}

TEST(GridSearch, SingleCandidateWorks) {
  const auto data = linearData(100, 4);
  const std::vector<GbrtConfig> grid{{.numEstimators = 20}};
  const auto result = gridSearch<GbrtConfig>(
      grid,
      [](const GbrtConfig& c) { return std::make_unique<Gbrt>(c); },
      data, 3, 5);
  EXPECT_EQ(result.bestConfig.numEstimators, 20u);
}

TEST(GridSearch, EmptyGridRejected) {
  const auto data = linearData(50, 5);
  EXPECT_THROW(
      gridSearch<LassoConfig>(
          {},
          [](const LassoConfig& c) {
            return std::make_unique<LassoRegression>(c);
          },
          data, 3, 1),
      hcp::Error);
}

/// y = 2*x0 - x1 + x2*x3 + noise over 5 features: each family fits it
/// differently, so a change to any family's fit arithmetic moves its MAEs.
Dataset mixedData(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data(5);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(5);
    for (double& v : x) v = rng.uniformReal(-2, 2);
    data.add(x, 2 * x[0] - x[1] + x[2] * x[3] + rng.normal(0, 0.1));
  }
  return data;
}

void appendBits(std::vector<std::uint64_t>& out, const CvResult& cv) {
  for (const double mae : cv.foldMae)
    out.push_back(std::bit_cast<std::uint64_t>(mae));
  out.push_back(std::bit_cast<std::uint64_t>(cv.meanMae));
}

const std::vector<GbrtConfig> kGbrtGrid{
    {.numEstimators = 10, .maxDepth = 2},
    {.numEstimators = 10, .maxDepth = 3, .minSamplesLeaf = 4}};

/// foldMae... then meanMae, as bit patterns, of: Lasso, ANN and GBRT
/// crossValidate, then every config of a two-config GBRT gridSearch.
std::vector<std::uint64_t> cvBits(const Dataset& data) {
  std::vector<std::uint64_t> bits;
  appendBits(bits, crossValidate(
                       [] {
                         return std::make_unique<LassoRegression>(
                             LassoConfig{.alpha = 0.01});
                       },
                       data, 4, 21));
  appendBits(bits, crossValidate(
                       [] {
                         return std::make_unique<MlpRegressor>(MlpConfig{
                             .hiddenLayers = {8}, .maxEpochs = 6, .seed = 3});
                       },
                       data, 4, 22));
  appendBits(bits, crossValidate(
                       [] {
                         return std::make_unique<Gbrt>(
                             GbrtConfig{.numEstimators = 12});
                       },
                       data, 4, 23));
  const auto search = gridSearch<GbrtConfig>(
      kGbrtGrid,
      [](const GbrtConfig& c) { return std::make_unique<Gbrt>(c); }, data, 4,
      24);
  for (const auto& [config, cv] : search.all) appendBits(bits, cv);
  return bits;
}

// Pinned results of cvBits(mixedData(120, 9)). Fold training and scoring
// read the shared dataset through index lists; these bits prove that path
// computes exactly what per-fold deep copies would, at any thread count.
const std::vector<std::uint64_t> kPinnedCvBits{
    // Lasso
    0x3ff0107936b4ace2, 0x3ff089de2302440a, 0x3fed8794a86bbf8c,
    0x3fef20b07d63bd04, 0x3fef773cf64f579a,
    // ANN
    0x3ffc0556f7561736, 0x400541fec1f05330, 0x40003a3f73e06c17,
    0x4003deb6288ea6c1, 0x4001d767f6829c69,
    // GBRT
    0x3ffcd3055f7530de, 0x3ff977f8ea25d704, 0x4000c08ca9bb435e,
    0x3ffcf21ab3296301, 0x3ffd2f8c940ebc68,
    // grid[0]
    0x3ff9cd4db1086bed, 0x3fff9e6653787933, 0x40007b4dffa48823,
    0x3ffd2f7a53fe4ee2, 0x3ffde47295f21112,
    // grid[1]
    0x3ffbf745ba364586, 0x3fffef9f890b6b1d, 0x400081b2819d6cbf,
    0x3ffcc40bd542eeaf, 0x3ffe6b9586efde34,
};

TEST(CrossValidate, MatchesPinnedBitsAtAnyThreadCount) {
  const auto data = mixedData(120, 9);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    support::ScopedThreadLimit limit(threads);
    EXPECT_EQ(cvBits(data), kPinnedCvBits) << threads << " threads";
  }
}

TEST(CrossValidate, ConcurrentCallsShareOneDataset) {
  // Folds only read the dataset, so CV and grid-search calls from several
  // threads may share one const Dataset. Every thread's results must match
  // a serial run bit for bit.
  const Dataset data = linearData(160, 6);
  const auto run = [&data] {
    std::vector<std::uint64_t> bits;
    appendBits(bits,
               crossValidate([] { return std::make_unique<LassoRegression>(); },
                             data, 5, 42));
    const auto search = gridSearch<GbrtConfig>(
        kGbrtGrid,
        [](const GbrtConfig& c) { return std::make_unique<Gbrt>(c); }, data,
        4, 17);
    for (const auto& [config, cv] : search.all) appendBits(bits, cv);
    return bits;
  };
  // The concurrent runs go first: they are the first readers of `data`, so
  // any state a const call might create lazily is created under contention.
  std::vector<std::vector<std::uint64_t>> got(4);
  std::vector<std::string> errors(got.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] {
      try {
        got[t] = run();
      } catch (const std::exception& e) {
        errors[t] = e.what();
      }
    });
  for (std::thread& t : threads) t.join();
  std::vector<std::uint64_t> serial;
  {
    support::ScopedThreadLimit limit(1);
    serial = run();
  }
  for (std::size_t t = 0; t < got.size(); ++t) {
    EXPECT_EQ(errors[t], "") << "thread " << t;
    EXPECT_EQ(got[t], serial) << "thread " << t;
  }
}

}  // namespace
}  // namespace hcp::ml
