// Common regressor interface for the three model families the paper compares
// (Lasso linear regression, ANN, GBRT).
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "ml/sample_source.hpp"
#include "support/parallel.hpp"

namespace hcp::ml {

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Trains on the source's rows (models standardize internally as
  /// needed). This is the only training entry point: an in-memory Dataset
  /// trains through DatasetSource, a shard set through ShardRowSource, and
  /// either gives the same model for the same rows in the same order
  /// (DESIGN.md §19).
  virtual void fit(const RowSource& source) = 0;

  virtual double predict(const std::vector<double>& row) const = 0;

  /// Predicts *rows[i] into out[i] (the spans have equal length), bit for
  /// bit what predict() returns per row. The default loops predict(); a
  /// model with a faster block evaluation overrides it.
  virtual void predictBatch(std::span<const std::vector<double>* const> rows,
                            std::span<double> out) const {
    HCP_CHECK(rows.size() == out.size());
    for (std::size_t i = 0; i < rows.size(); ++i) out[i] = predict(*rows[i]);
  }

  /// Rows per predictBatch() call when a caller evaluates many rows.
  static constexpr std::size_t kPredictBlock = 64;

  std::vector<double> predictAll(const Dataset& data) const {
    // predictBatch() is const and blocks are independent; results land by
    // index, so the output is identical at any thread count.
    std::vector<double> out(data.size());
    const std::size_t numBlocks =
        (data.size() + kPredictBlock - 1) / kPredictBlock;
    support::parallelFor(0, numBlocks, 1, [&](std::size_t b) {
      const std::size_t lo = b * kPredictBlock;
      const std::size_t hi = std::min(data.size(), lo + kPredictBlock);
      std::vector<const std::vector<double>*> rows;
      rows.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) rows.push_back(&data.row(i));
      predictBatch(rows, std::span(out).subspan(lo, hi - lo));
    });
    return out;
  }

  virtual std::string name() const = 0;
};

}  // namespace hcp::ml
