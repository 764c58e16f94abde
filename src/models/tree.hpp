// Regression tree trained on per-sample gradient/hessian statistics with
// exact greedy splits — the building block of both boosting models.
//
// Split gain and leaf weights follow the XGBoost formulation:
//   leaf weight w* = -G / (H + lambda)
//   gain = 1/2 [ Gl^2/(Hl+l) + Gr^2/(Hr+l) - G^2/(H+l) ] - gamma.
// For pinball-loss boosting, leaf values can be overwritten after structure
// fitting (leaf-quantile refit), which fit() supports via train_leaf_ids().
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "models/flat_forest.hpp"

namespace vmincqr::models {

using linalg::Matrix;
using linalg::Vector;

struct TreeConfig {
  int max_depth = 6;
  double lambda = 1.0;          ///< L2 regularization on leaf weights
  double gamma = 0.0;           ///< minimum gain to split
  double min_child_weight = 1.0;  ///< minimum sum of hessians per child
  std::size_t min_samples_leaf = 1;
};

/// One node of a fitted tree — the serializable unit a RegressionTree
/// exports and rebuilds from. Index 0 is the root; children index into the
/// same node array.
struct TreeNode {
  bool is_leaf = true;
  std::size_t feature = 0;
  double threshold = 0.0;
  std::int32_t left = -1;
  std::int32_t right = -1;
  double value = 0.0;         ///< leaf weight
  std::int32_t leaf_id = -1;  ///< dense leaf numbering
  double gain = 0.0;          ///< split gain (internal nodes)
};

class RegressionTree {
 public:
  /// The exact split search's per-feature row order for x: for each feature
  /// f, every row index sorted by (x(r, f), r), stored feature-major (entry
  /// f * x.rows() + i). It depends on x alone, so a boosting fit computes it
  /// once and hands it to every round's fit().
  [[nodiscard]] static std::vector<std::size_t> presort(const Matrix& x);

  /// Fits the tree structure to (x, grad, hess). All vectors length x.rows().
  /// Same tree as fit(x, grad, hess, config, presort(x)).
  /// Throws std::invalid_argument on shape mismatch.
  void fit(const Matrix& x, const Vector& grad, const Vector& hess,
           const TreeConfig& config);

  /// fit() over a precomputed presort(x) (`order`, size x.rows() * x.cols()).
  /// Throws std::invalid_argument on shape mismatch.
  void fit(const Matrix& x, const Vector& grad, const Vector& hess,
           const TreeConfig& config, const std::vector<std::size_t>& order);

  /// Prediction for one feature row of length d (must equal the training
  /// feature count; unchecked hot path).
  [[nodiscard]] double predict_row(const double* row) const;

  /// Predictions for every row of x. Throws std::logic_error if not fitted.
  [[nodiscard]] Vector predict(const Matrix& x) const;

  /// Leaf id per *training* row index (size = x.rows() passed to fit).
  [[nodiscard]] const std::vector<std::int32_t>& train_leaf_ids() const {
    return train_leaf_ids_;
  }

  /// Leaf id a feature row would land in.
  [[nodiscard]] std::int32_t leaf_id_for_row(const double* row) const;

  [[nodiscard]] std::size_t n_leaves() const noexcept { return n_leaves_; }
  [[nodiscard]] bool fitted() const noexcept { return !nodes_.empty(); }

  /// Overwrites the value of a leaf (by leaf id). Throws std::out_of_range.
  void set_leaf_value(std::int32_t leaf_id, double value);
  [[nodiscard]] double leaf_value(std::int32_t leaf_id) const;

  /// Adds each internal node's split gain to gains[feature]. gains must be
  /// sized to the training feature count. Throws std::invalid_argument on a
  /// too-small vector.
  void accumulate_feature_gains(std::vector<double>& gains) const;

  /// The fitted node array (empty when unfitted).
  [[nodiscard]] const std::vector<TreeNode>& nodes() const noexcept {
    return nodes_;
  }

  /// Rebuilds the tree from an exported node array; leaf bookkeeping is
  /// re-derived from the stored leaf ids (per-training-row ids are not
  /// restored — they are a fit-time-only diagnostic). Throws
  /// std::invalid_argument on dangling children or non-dense leaf ids.
  void import_nodes(std::vector<TreeNode> nodes);

  /// The single-tree SoA planes predict() traverses (rebuilt by fit /
  /// import_nodes, kept in sync by set_leaf_value). Ensemble
  /// models build their own multi-tree FlatForest from nodes() instead.
  [[nodiscard]] const FlatForest& flat() const noexcept { return flat_; }

 private:
  /// Grows the subtree over `rows` (ascending row indices). The node's rows
  /// occupy positions [begin, begin + rows.size()) of every feature's list
  /// in order_scratch_[depth % 2], each list in (value, row) order.
  std::int32_t build(const Matrix& x, const Vector& grad, const Vector& hess,
                     const TreeConfig& config, std::vector<std::size_t>& rows,
                     std::size_t begin, int depth);

  /// Fit-time scratch of the split search, sized by fit() and released
  /// before it returns. order_scratch_ holds two copies of the presorted
  /// order: a node at depth k scans its segment of buffer k % 2 and
  /// partitions it into the same positions of the other buffer, where its
  /// children read it. goes_left_ flags, per row, the side of the split
  /// being partitioned.
  std::array<std::vector<std::size_t>, 2> order_scratch_;
  std::vector<std::uint8_t> goes_left_;

  std::vector<TreeNode> nodes_;
  FlatForest flat_;  // single-tree SoA mirror of nodes_ (see flat())
  std::vector<std::int32_t> leaf_node_index_;  // leaf_id -> node index
  std::vector<std::int32_t> train_leaf_ids_;
  std::size_t n_leaves_ = 0;
};

}  // namespace vmincqr::models
