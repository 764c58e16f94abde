// Structure-of-arrays flattening of fitted tree ensembles — the inference
// kernel behind GBT / ordered-boost / single-tree predict.
//
// A fitted ensemble is pointer-chased AoS (vector<TreeNode>, 56+ bytes per
// node, one heap block per tree). For serving, that layout wastes the cache:
// each traversal touches one bool + one feature + one threshold + one child
// index out of every 56-byte node. Flattening packs the whole forest into
// four contiguous planes (feature / threshold-or-value / left / right,
// ~20 bytes per node) with absolute child indices, so a 100-tree depth-6
// forest fits in L2 and stays there across an entire batch.
//
// The traversal kernel processes a block of rows per plane sweep: rows outer
// in blocks of kTraversalRowBlock, trees inner — the row block stays in L1
// while the node planes stream once per block. Per ROW the accumulation
// order is unchanged from the scalar reference (base term first, then trees
// in round order, one multiply-add per tree), so flat predictions are
// BIT-IDENTICAL to the AoS path; this kernel has no fast variant because it
// reorders nothing.
//
// Small batches. A block of fewer than 8 rows cannot fill the eight
// interleaved row chains, and a lone row would walk every tree as one
// serial dependent-load chain (200 trees x depth 6 for a served CQR-GBT
// pair). accumulate() walks such rows one at a time with EIGHT TREES
// abreast instead: each group of eight runs to its deepest tree (the
// shallower ones park on their self-looping leaves), then its eight leaf
// values are added in tree order. Per-row summation order is unchanged, so
// the small-batch path is bit-identical too; it uses only fixed-size
// locals, so it allocates nothing on the serve path.
#pragma once

#include <cstdint>
#include <vector>

namespace vmincqr::models {

struct TreeNode;
struct ObliviousTree;

/// Rows traversed per plane sweep (8 doubles x 13 features x 256 rows ~ 26KB
/// of row data resident in L1/L2 while the node planes stream).
inline constexpr std::size_t kTraversalRowBlock = 256;

/// SoA flattening of a binary-tree ensemble (RegressionTree node arrays).
///
/// Nodes are renumbered breadth-first so SIBLINGS ARE ADJACENT: an internal
/// node stores only its left child's absolute index, and one traversal step
/// is pure arithmetic —
///
///   idx = child[idx] + (row[feature[idx]] > threshold[idx])
///
/// (`<=` goes left, `>` lands on left + 1 == right; the same predicate as
/// the AoS reference, so the same leaf is reached). Leaves store threshold
/// = +infinity (the comparison is always false) and child = their own index,
/// i.e. they SELF-LOOP: stepping past a leaf is a no-op. That lets the
/// traversal run a FIXED number of steps (the tree's recorded depth) with
/// no data-dependent exit branch to mispredict — the compare feeds a setcc,
/// never a jump — and several rows' chains interleave to hide load latency.
class FlatForest {
 public:
  /// Appends a tree. Throws std::invalid_argument on an empty node array or
  /// dangling child indices (same contract as RegressionTree::import_nodes).
  void add_tree(const std::vector<TreeNode>& nodes);

  void clear();

  [[nodiscard]] std::size_t n_trees() const noexcept { return roots_.size(); }
  [[nodiscard]] bool empty() const noexcept { return roots_.empty(); }

  /// out[r] += scale * (sum over trees of the leaf value row r lands in),
  /// for rows x[r * stride .. r * stride + d). Per row, trees accumulate in
  /// insertion order — the exact summation order of the scalar reference.
  void accumulate(const double* x, std::size_t n_rows, std::size_t stride,
                  double scale, double* out) const;

  /// out[r] = unscaled sum over trees for row r (insertion order). The
  /// first tree ASSIGNS rather than adding into a zero, so a single-tree
  /// forest reproduces the reference's pure assignment bit-for-bit (adding
  /// a -0.0 leaf into 0.0 would normalize its sign).
  void predict_rows(const double* x, std::size_t n_rows, std::size_t stride,
                    double* out) const;

  /// Unscaled single-row sum over all trees (insertion order).
  [[nodiscard]] double predict_row(const double* row) const;

  /// Overwrites the value plane of node `node_index` of tree `tree` — keeps
  /// the flat planes in sync with leaf refits (RegressionTree::
  /// set_leaf_value). Unchecked beyond debug contracts; hot only at fit time.
  void set_node_value(std::size_t tree, std::size_t node_index, double value);

 private:
  std::vector<std::int32_t> feature_;
  std::vector<double> threshold_;   ///< leaf: +infinity (compare always false)
  std::vector<std::int32_t> child_;  ///< left child (right = +1); leaf: self
  std::vector<double> value_;        ///< leaf value; internal: 0.0
  std::vector<std::int32_t> roots_;  ///< root node index per tree
  std::vector<std::int32_t> depth_;  ///< max root-to-leaf edges per tree
  /// Original node index -> BFS-renumbered LOCAL index, concatenated per
  /// tree at the same base as the planes (set_node_value's lookup).
  std::vector<std::int32_t> remap_;
};

/// SoA flattening of a CatBoost-style oblivious forest: per-tree level
/// planes (feature, threshold) plus one contiguous leaf-value pool. The
/// d-bit leaf mask is computed exactly as ObliviousTree::leaf_index.
class FlatObliviousForest {
 public:
  /// Appends a tree. Throws std::invalid_argument when leaf_values.size()
  /// != 2^levels.
  void add_tree(const ObliviousTree& tree);

  void clear();

  [[nodiscard]] std::size_t n_trees() const noexcept {
    return level_offset_.empty() ? 0 : level_offset_.size() - 1;
  }
  [[nodiscard]] bool empty() const noexcept { return n_trees() == 0; }

  /// out[r] += scale * (sum over trees of the leaf value row r lands in);
  /// same contract and ordering guarantee as FlatForest::accumulate.
  void accumulate(const double* x, std::size_t n_rows, std::size_t stride,
                  double scale, double* out) const;

  [[nodiscard]] double predict_row(const double* row) const;

 private:
  std::vector<std::int32_t> feature_;    ///< concatenated per-level tests
  std::vector<double> threshold_;
  std::vector<double> leaf_values_;      ///< concatenated 2^depth pools
  std::vector<std::size_t> level_offset_;  ///< size n_trees + 1
  std::vector<std::size_t> leaf_offset_;   ///< size n_trees + 1
};

}  // namespace vmincqr::models
