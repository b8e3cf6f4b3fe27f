// Lasso linear regression (paper §III-C2): least squares with an
// L1-regularization penalty whose strength (alpha) controls weight sparsity.
// Solved by cyclic coordinate descent with soft-thresholding on
// standardized features.
#pragma once

#include <string>

#include "ml/model.hpp"

namespace hcp::ml {

struct LassoConfig {
  double alpha = 0.1;   ///< L1 strength (the paper's tuning parameter)
  int maxIterations = 400;
  double tolerance = 1e-5;
};

class LassoRegression : public Regressor {
 public:
  explicit LassoRegression(LassoConfig config = {}) : config_(config) {}

  /// Bounded-memory fit: one scaler pass pair plus one Gram-accumulation
  /// pass over the source; working state is O(d^2), independent of the
  /// sample count.
  void fit(const RowSource& source) override;
  double predict(const std::vector<double>& row) const override;
  std::string name() const override { return "Linear"; }

  /// Weights in standardized feature space (sparsity inspection).
  const std::vector<double>& weights() const { return weights_; }
  std::size_t nonZeroWeights() const;
  int iterationsRun() const { return iterationsRun_; }

  /// Text serialization (used by ml/serialize).
  void write(std::ostream& os) const;
  void read(support::txt::Reader& in);

 private:
  LassoConfig config_;
  StandardScaler scaler_;
  std::vector<double> weights_;
  double intercept_ = 0.0;
  int iterationsRun_ = 0;
};

}  // namespace hcp::ml
