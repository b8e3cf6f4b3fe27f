// Streaming sample access for out-of-core training.
//
// A RowSource is a multi-pass, read-only view of (features, target) samples
// in one fixed canonical order. Every model trains through
// Regressor::fit(const RowSource&) and nothing else; the in-memory Dataset
// is adapted through DatasetSource — so the in-memory and the sharded
// on-disk paths run the exact same arithmetic in the exact same order, and
// the trained models are byte-identical by construction (see DESIGN.md §19,
// "streaming determinism contract").
//
// Contract a RowSource must honor:
//   - size() and numFeatures() are stable across passes;
//   - forEach visits every sample exactly once, in index order 0..size()-1,
//     serially, and may be called any number of times;
//   - visitParallel visits the same samples with the same indices but may
//     run concurrently; callers pass bodies that only write state owned by
//     the visited index, so results are identical at any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "ml/dataset.hpp"

namespace hcp::ml {

class RowSource {
 public:
  /// fn(index, features, target); `features` is only valid for the duration
  /// of the call (streamed sources reuse buffers between samples).
  using RowFn = std::function<void(std::size_t, const std::vector<double>&,
                                   double)>;

  virtual ~RowSource() = default;

  virtual std::size_t size() const = 0;
  virtual std::size_t numFeatures() const = 0;

  /// Serial in-order visitation. Order-sensitive accumulations (scaler
  /// moments, Gram matrix, target means) use this pass.
  virtual void forEach(const RowFn& fn) const = 0;

  /// Possibly-concurrent visitation; `fn` must be thread-safe and only
  /// touch state owned by the visited index. Pure per-row transforms
  /// (binning, prediction) use this pass. Default: the serial pass.
  virtual void visitParallel(const RowFn& fn) const { forEach(fn); }
};

/// Adapts an in-memory Dataset to RowSource: all of its rows, or only the
/// rows `rows` lists, in list order (source row i is data.row(rows[i]); a
/// k-fold train or test set is DatasetSource(data, fold.train)). The source
/// reads through `data` and `rows`, which must outlive it.
class DatasetSource final : public RowSource {
 public:
  explicit DatasetSource(const Dataset& data) : data_(&data) {}
  DatasetSource(const Dataset& data, const std::vector<std::size_t>& rows)
      : data_(&data), rows_(&rows) {}
  DatasetSource(const Dataset&, std::vector<std::size_t>&&) = delete;

  std::size_t size() const override {
    return rows_ ? rows_->size() : data_->size();
  }
  std::size_t numFeatures() const override { return data_->numFeatures(); }
  void forEach(const RowFn& fn) const override;
  void visitParallel(const RowFn& fn) const override;

 private:
  std::size_t at(std::size_t i) const { return rows_ ? (*rows_)[i] : i; }

  const Dataset* data_;
  const std::vector<std::size_t>* rows_ = nullptr;
};

/// Copies a source into an owning Dataset (the in-memory reference that
/// streamed fits are checked against).
Dataset materialize(const RowSource& source);

}  // namespace hcp::ml
