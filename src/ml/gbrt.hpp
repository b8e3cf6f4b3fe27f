// Gradient Boosted Regression Trees (paper §III-C2): a stage-wise ensemble
// of shallow CART trees fit to least-squares gradients (residuals), with
// shrinkage, row subsampling and per-tree feature subsampling. The paper's
// best model; its split-count feature importance drives Table V.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ml/tree.hpp"

namespace hcp::ml {

struct GbrtConfig {
  std::size_t numEstimators = 300;
  double learningRate = 0.08;
  int maxDepth = 4;
  std::size_t minSamplesLeaf = 8;
  double subsample = 0.8;        ///< row fraction per stage
  double featureFraction = 0.4;  ///< feature fraction per stage
  std::uint32_t numBins = 32;
  std::uint64_t seed = 13;
};

class Gbrt : public Regressor {
 public:
  explicit Gbrt(GbrtConfig config = {}) : config_(config) {}

  /// Quantile edges come from the feature-block streamed binner and the
  /// raw feature matrix is never materialized — only the uint8 binned
  /// matrix (one byte per value) plus the targets stay in memory for the
  /// boosting stages.
  void fit(const RowSource& source) override;
  /// predict() and predictBatch() evaluate the flat forest (see flat_) and
  /// reject a row whose size is not the trained feature count.
  double predict(const std::vector<double>& row) const override;
  /// Tree-outer over the block: every row walks one tree before the next.
  /// Per row the sum is baseline + the trees' scaled leaves in tree order,
  /// exactly as predict() adds them.
  void predictBatch(std::span<const std::vector<double>* const> rows,
                    std::span<double> out) const override;
  std::string name() const override { return "GBRT"; }

  /// Normalized per-feature importance: fraction of ensemble splits using
  /// each feature (the paper's measure). Sums to 1 (or is all-zero if the
  /// ensemble never split).
  std::vector<double> featureImportance() const;

  /// Gain-weighted variant for comparison.
  std::vector<double> featureImportanceByGain() const;

  std::size_t numTrees() const { return trees_.size(); }
  /// Fitted state: predict() is baseline() + the sum, in tree order, of
  /// learningRate() * tree.predict(row) (the tests' reference).
  double baseline() const { return baseline_; }
  double learningRate() const { return config_.learningRate; }
  const std::vector<RegressionTree>& trees() const { return trees_; }
  double trainLoss() const { return trainLoss_; }

  /// Text serialization (used by ml/serialize).
  void write(std::ostream& os) const;
  void read(support::txt::Reader& in);

 private:
  /// Rebuilds flat_/roots_ from trees_ (after a fit and after read()).
  void flatten();
  void checkRow(const std::vector<double>& row) const;

  GbrtConfig config_;
  Binner binner_;
  double baseline_ = 0.0;
  std::vector<RegressionTree> trees_;
  /// The whole forest as one preorder node array (DESIGN.md, "GBRT
  /// inference layout"); leaves hold learningRate * leaf value. trees_
  /// stays the serialized and importance source.
  std::vector<FlatTreeNode> flat_;
  std::vector<std::uint32_t> roots_;  ///< flat_ index of each tree's root
  std::size_t numFeatures_ = 0;
  double trainLoss_ = 0.0;
};

}  // namespace hcp::ml
