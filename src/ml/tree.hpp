// CART regression trees over histogram-binned features.
//
// Features are quantile-binned once (Binner); each tree node then finds the
// best split with one O(rows x features) histogram sweep instead of sorting,
// which keeps a 300-tree GBRT over 300+ features fast. Split quality is
// variance reduction (sum^2/count gain). Trees record per-feature split
// counts and gains — the paper's Table V importance measure is "the number
// of times a feature is used as a split point" across the ensemble.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/model.hpp"
#include "support/rng.hpp"

namespace hcp::ml {

/// Quantile binning of a feature matrix.
class Binner {
 public:
  /// Fits up to `numBins` quantile bins per feature. Gathers features in
  /// column blocks sized to `columnBudgetBytes` of resident doubles, one
  /// parallel source pass per block. Per-feature quantile edges depend only
  /// on each column's value multiset, so the edges are bit-identical at any
  /// block size and thread count.
  void fit(const RowSource& source, std::uint32_t numBins,
           std::size_t columnBudgetBytes = std::size_t{64} << 20);

  /// Bin index of a raw value for a feature.
  std::uint8_t binOf(std::size_t feature, double value) const;

  /// Bins a full row.
  std::vector<std::uint8_t> binRow(const std::vector<double>& row) const;

  /// Raw-value threshold "value <= threshold goes left" for a split at the
  /// upper edge of `bin`.
  double threshold(std::size_t feature, std::uint8_t bin) const;

  std::uint32_t numBins() const { return numBins_; }
  bool fitted() const { return !edges_.empty(); }

 private:
  std::uint32_t numBins_ = 0;
  /// edges_[f] holds ascending upper edges; bin i = values <= edges_[f][i].
  std::vector<std::vector<double>> edges_;
};

/// One node of a flattened tree (see Gbrt): 16 bytes, preorder layout. A
/// split sends `x[feature] <= value` to the next node and everything else,
/// NaN included, to `right`; a leaf holds its (scaled) output.
struct FlatTreeNode {
  double value = 0.0;       ///< split threshold, or the leaf output
  std::int32_t feature = -1;  ///< -1 on a leaf
  std::uint32_t right = 0;  ///< index of the right child in the flat array
};
static_assert(sizeof(FlatTreeNode) == 16);

struct TreeConfig {
  int maxDepth = 4;
  std::size_t minSamplesLeaf = 8;
};

class RegressionTree {
 public:
  /// Fits on pre-binned rows (binned[i][f]) restricted to `rows`, searching
  /// splits only among `features`. Targets are the boosting residuals.
  void fitBinned(const std::vector<std::vector<std::uint8_t>>& binned,
                 const std::vector<double>& targets,
                 std::vector<std::size_t> rows,
                 const std::vector<std::size_t>& features,
                 const Binner& binner, const TreeConfig& config);

  double predict(const std::vector<double>& row) const;
  double predictBinned(const std::vector<std::uint8_t>& row) const;

  /// Convenience: bins internally and fits on a whole dataset.
  void fit(const Dataset& data, const TreeConfig& config = {},
           std::uint32_t numBins = 32);

  std::size_t numNodes() const { return nodes_.size(); }
  int depth() const;

  /// Split statistics per feature index (importance inputs).
  const std::vector<std::uint32_t>& splitCounts() const {
    return splitCounts_;
  }
  const std::vector<double>& splitGains() const { return splitGains_; }

  /// Appends the tree to `out` in preorder (left child right after its
  /// parent), each leaf output multiplied by `leafScale` and each right
  /// child index offset by the tree's position in `out`.
  void appendFlat(std::vector<FlatTreeNode>& out, double leafScale) const;

  /// Text serialization (used by ml/serialize). read() rejects a tree that
  /// is not one: a child index that does not point forward inside the tree,
  /// a node with no parent or two, or a split feature >= `numFeatures`.
  void write(std::ostream& os) const;
  void read(support::txt::Reader& in, std::size_t numFeatures);

 private:
  struct Node {
    std::int32_t feature = -1;     ///< -1 = leaf
    std::uint8_t bin = 0;          ///< binned comparison: <= goes left
    double threshold = 0.0;        ///< raw-value comparison
    std::int32_t left = -1, right = -1;
    double value = 0.0;            ///< leaf prediction
  };

  std::int32_t build(const std::vector<std::vector<std::uint8_t>>& binned,
                     const std::vector<double>& targets,
                     std::vector<std::size_t>& rows,
                     const std::vector<std::size_t>& features,
                     const Binner& binner, const TreeConfig& config,
                     int depth);

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> splitCounts_;
  std::vector<double> splitGains_;
  Binner ownBinner_;  ///< used only by the convenience fit()
};

}  // namespace hcp::ml
