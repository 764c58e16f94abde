#include "models/flat_forest.hpp"

#include <limits>
#include <stdexcept>

#include "core/contracts.hpp"
#include "models/ordered_boost.hpp"
#include "models/tree.hpp"

namespace vmincqr::models {

void FlatForest::add_tree(const std::vector<TreeNode>& nodes) {
  if (nodes.empty()) {
    throw std::invalid_argument("FlatForest::add_tree: empty tree");
  }
  const auto base = static_cast<std::int32_t>(feature_.size());
  const auto n = static_cast<std::int32_t>(nodes.size());
  for (const TreeNode& node : nodes) {
    if (!node.is_leaf && (node.left < 0 || node.left >= n || node.right < 0 ||
                          node.right >= n)) {
      throw std::invalid_argument("FlatForest::add_tree: dangling child");
    }
  }

  // BFS renumbering: a split's two children land in consecutive slots, so
  // the traversal needs only the left child's index (right = left + 1).
  // order[new_local] = original index; remap = the inverse.
  std::vector<std::int32_t> order;
  std::vector<std::int32_t> remap(nodes.size(), -1);
  std::vector<std::int32_t> bfs_depth(nodes.size(), 0);
  order.reserve(nodes.size());
  order.push_back(0);
  remap[0] = 0;
  std::int32_t max_depth = 0;
  for (std::size_t q = 0; q < order.size(); ++q) {
    const std::int32_t old_i = order[q];
    const TreeNode& node = nodes[static_cast<std::size_t>(old_i)];
    if (node.is_leaf) continue;
    const std::int32_t d = bfs_depth[static_cast<std::size_t>(old_i)] + 1;
    max_depth = d > max_depth ? d : max_depth;
    for (const std::int32_t c : {node.left, node.right}) {
      remap[static_cast<std::size_t>(c)] =
          static_cast<std::int32_t>(order.size());
      bfs_depth[static_cast<std::size_t>(c)] = d;
      order.push_back(c);
    }
  }
  // Nodes unreachable from the root (tolerated by the AoS layout) keep a
  // slot at the end so per-tree indexing — and set_node_value — stays total.
  for (std::int32_t i = 0; i < n; ++i) {
    if (remap[static_cast<std::size_t>(i)] < 0) {
      remap[static_cast<std::size_t>(i)] =
          static_cast<std::int32_t>(order.size());
      order.push_back(i);
    }
  }

  feature_.resize(feature_.size() + nodes.size());
  threshold_.resize(threshold_.size() + nodes.size());
  child_.resize(child_.size() + nodes.size());
  value_.resize(value_.size() + nodes.size());
  for (std::int32_t i = 0; i < n; ++i) {
    const TreeNode& node = nodes[static_cast<std::size_t>(i)];
    const auto at = static_cast<std::size_t>(
        base + remap[static_cast<std::size_t>(i)]);
    if (node.is_leaf) {
      feature_[at] = 0;
      threshold_[at] = std::numeric_limits<double>::infinity();
      child_[at] = static_cast<std::int32_t>(at);  // self-loop
      value_[at] = node.value;
    } else {
      feature_[at] = static_cast<std::int32_t>(node.feature);
      threshold_[at] = node.threshold;
      child_[at] = base + remap[static_cast<std::size_t>(node.left)];
      value_[at] = 0.0;
    }
  }
  remap_.insert(remap_.end(), remap.begin(), remap.end());
  roots_.push_back(base);
  depth_.push_back(max_depth);
}

void FlatForest::clear() {
  feature_.clear();
  threshold_.clear();
  child_.clear();
  value_.clear();
  roots_.clear();
  depth_.clear();
  remap_.clear();
}

namespace {

/// One arithmetic traversal step (see the class comment): `<=` stays at the
/// left child, `>` adds one to reach the adjacent right sibling; a leaf's
/// +infinity threshold makes the comparison false and its self-loop child
/// keeps the chain parked. The compare feeds a setcc + add — there is no
/// data-dependent branch to mispredict.
inline std::int32_t step(const double* row, const std::int32_t* feature,
                         const double* threshold, const std::int32_t* child,
                         std::int32_t idx) {
  return child[idx] +
         static_cast<std::int32_t>(row[feature[idx]] > threshold[idx]);
}

/// *out += scale * (leaf value of each tree in [0, n_trees)), in tree order,
/// for ONE row. Eight trees walk abreast to the deepest of the eight (the
/// shallower ones park on their self-looping leaves), so a lone row still
/// has eight independent load chains in flight; their leaves are then added
/// in tree order, the same summation order as the row-interleaved path.
void accumulate_row_tree_interleaved(
    const double* row, const std::int32_t* roots, const std::int32_t* depths,
    std::size_t n_trees, const std::int32_t* feature, const double* threshold,
    const std::int32_t* child, const double* value, double scale,
    double* out) {
  double acc = *out;
  std::size_t t = 0;
  for (; t + 8 <= n_trees; t += 8) {
    std::int32_t depth = depths[t];
    for (std::size_t k = 1; k < 8; ++k) {
      depth = depths[t + k] > depth ? depths[t + k] : depth;
    }
    std::int32_t i0 = roots[t + 0], i1 = roots[t + 1], i2 = roots[t + 2];
    std::int32_t i3 = roots[t + 3], i4 = roots[t + 4], i5 = roots[t + 5];
    std::int32_t i6 = roots[t + 6], i7 = roots[t + 7];
    for (std::int32_t d = 0; d < depth; ++d) {
      i0 = step(row, feature, threshold, child, i0);
      i1 = step(row, feature, threshold, child, i1);
      i2 = step(row, feature, threshold, child, i2);
      i3 = step(row, feature, threshold, child, i3);
      i4 = step(row, feature, threshold, child, i4);
      i5 = step(row, feature, threshold, child, i5);
      i6 = step(row, feature, threshold, child, i6);
      i7 = step(row, feature, threshold, child, i7);
    }
    acc += scale * value[i0];
    acc += scale * value[i1];
    acc += scale * value[i2];
    acc += scale * value[i3];
    acc += scale * value[i4];
    acc += scale * value[i5];
    acc += scale * value[i6];
    acc += scale * value[i7];
  }
  for (; t < n_trees; ++t) {
    std::int32_t idx = roots[t];
    for (std::int32_t d = 0; d < depths[t]; ++d) {
      idx = step(row, feature, threshold, child, idx);
    }
    acc += scale * value[idx];
  }
  *out = acc;
}

}  // namespace

void FlatForest::accumulate(const double* x, std::size_t n_rows,
                            std::size_t stride, double scale,
                            double* out) const {
  const std::int32_t* feature = feature_.data();
  const double* threshold = threshold_.data();
  const std::int32_t* child = child_.data();
  const double* value = value_.data();
  for (std::size_t r0 = 0; r0 < n_rows; r0 += kTraversalRowBlock) {
    const std::size_t r1 = r0 + kTraversalRowBlock < n_rows
                               ? r0 + kTraversalRowBlock
                               : n_rows;
    if (r1 - r0 < 8) {
      // Too few rows to fill eight row chains: interleave trees instead.
      for (std::size_t r = r0; r < r1; ++r) {
        accumulate_row_tree_interleaved(x + r * stride, roots_.data(),
                                        depth_.data(), roots_.size(), feature,
                                        threshold, child, value, scale,
                                        out + r);
      }
      continue;
    }
    for (std::size_t t = 0; t < roots_.size(); ++t) {
      const std::int32_t root = roots_[t];
      const std::int32_t depth = depth_[t];
      std::size_t r = r0;
      // Eight interleaved fixed-depth chains: each chain is a serial
      // dependent-load sequence (~3 loads deep per step), so running eight
      // rows abreast keeps the load ports busy instead of serializing on
      // one chain's round-trip latency to the node planes.
      for (; r + 8 <= r1; r += 8) {
        const double* row0 = x + r * stride;
        const double* row1 = row0 + stride;
        const double* row2 = row1 + stride;
        const double* row3 = row2 + stride;
        const double* row4 = row3 + stride;
        const double* row5 = row4 + stride;
        const double* row6 = row5 + stride;
        const double* row7 = row6 + stride;
        std::int32_t i0 = root, i1 = root, i2 = root, i3 = root;
        std::int32_t i4 = root, i5 = root, i6 = root, i7 = root;
        for (std::int32_t d = 0; d < depth; ++d) {
          i0 = step(row0, feature, threshold, child, i0);
          i1 = step(row1, feature, threshold, child, i1);
          i2 = step(row2, feature, threshold, child, i2);
          i3 = step(row3, feature, threshold, child, i3);
          i4 = step(row4, feature, threshold, child, i4);
          i5 = step(row5, feature, threshold, child, i5);
          i6 = step(row6, feature, threshold, child, i6);
          i7 = step(row7, feature, threshold, child, i7);
        }
        out[r + 0] += scale * value[i0];
        out[r + 1] += scale * value[i1];
        out[r + 2] += scale * value[i2];
        out[r + 3] += scale * value[i3];
        out[r + 4] += scale * value[i4];
        out[r + 5] += scale * value[i5];
        out[r + 6] += scale * value[i6];
        out[r + 7] += scale * value[i7];
      }
      for (; r < r1; ++r) {
        const double* row = x + r * stride;
        std::int32_t idx = root;
        for (std::int32_t d = 0; d < depth; ++d) {
          idx = step(row, feature, threshold, child, idx);
        }
        out[r] += scale * value[idx];
      }
    }
  }
}

void FlatForest::predict_rows(const double* x, std::size_t n_rows,
                              std::size_t stride, double* out) const {
  VMINCQR_REQUIRE(!roots_.empty(), "FlatForest::predict_rows: empty forest");
  const std::int32_t* feature = feature_.data();
  const double* threshold = threshold_.data();
  const std::int32_t* child = child_.data();
  const double* value = value_.data();
  for (std::size_t r0 = 0; r0 < n_rows; r0 += kTraversalRowBlock) {
    const std::size_t r1 = r0 + kTraversalRowBlock < n_rows
                               ? r0 + kTraversalRowBlock
                               : n_rows;
    for (std::size_t t = 0; t < roots_.size(); ++t) {
      const std::int32_t root = roots_[t];
      const std::int32_t depth = depth_[t];
      for (std::size_t r = r0; r < r1; ++r) {
        const double* row = x + r * stride;
        std::int32_t idx = root;
        for (std::int32_t d = 0; d < depth; ++d) {
          idx = step(row, feature, threshold, child, idx);
        }
        if (t == 0) {
          out[r] = value[idx];
        } else {
          out[r] += value[idx];
        }
      }
    }
  }
}

double FlatForest::predict_row(const double* row) const {
  const std::int32_t* feature = feature_.data();
  const double* threshold = threshold_.data();
  const std::int32_t* child = child_.data();
  const double* value = value_.data();
  double acc = 0.0;
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    std::int32_t idx = roots_[t];
    const std::int32_t depth = depth_[t];
    for (std::int32_t d = 0; d < depth; ++d) {
      idx = step(row, feature, threshold, child, idx);
    }
    acc += value[idx];
  }
  return acc;
}

void FlatForest::set_node_value(std::size_t tree, std::size_t node_index,
                                double value) {
  VMINCQR_REQUIRE(tree < roots_.size(),
                  "FlatForest::set_node_value: tree out of range");
  // node_index is in the ORIGINAL (AoS) numbering; remap_ translates to the
  // BFS-renumbered slot at the same per-tree base.
  const auto base = static_cast<std::size_t>(roots_[tree]);
  VMINCQR_REQUIRE(base + node_index < remap_.size(),
                  "FlatForest::set_node_value: node out of range");
  const std::size_t at =
      base + static_cast<std::size_t>(remap_[base + node_index]);
  VMINCQR_REQUIRE(at < value_.size(),
                  "FlatForest::set_node_value: node out of range");
  value_[at] = value;
}

void FlatObliviousForest::add_tree(const ObliviousTree& tree) {
  const std::size_t leaves = std::size_t{1} << tree.features.size();
  if (tree.leaf_values.size() != leaves ||
      tree.thresholds.size() != tree.features.size()) {
    throw std::invalid_argument(
        "FlatObliviousForest::add_tree: malformed oblivious tree");
  }
  if (level_offset_.empty()) {
    level_offset_.push_back(0);
    leaf_offset_.push_back(0);
  }
  for (std::size_t l = 0; l < tree.features.size(); ++l) {
    feature_.push_back(static_cast<std::int32_t>(tree.features[l]));
    threshold_.push_back(tree.thresholds[l]);
  }
  leaf_values_.insert(leaf_values_.end(), tree.leaf_values.begin(),
                      tree.leaf_values.end());
  level_offset_.push_back(feature_.size());
  leaf_offset_.push_back(leaf_values_.size());
}

void FlatObliviousForest::clear() {
  feature_.clear();
  threshold_.clear();
  leaf_values_.clear();
  level_offset_.clear();
  leaf_offset_.clear();
}

void FlatObliviousForest::accumulate(const double* x, std::size_t n_rows,
                                     std::size_t stride, double scale,
                                     double* out) const {
  const std::size_t trees = n_trees();
  for (std::size_t r0 = 0; r0 < n_rows; r0 += kTraversalRowBlock) {
    const std::size_t r1 = r0 + kTraversalRowBlock < n_rows
                               ? r0 + kTraversalRowBlock
                               : n_rows;
    for (std::size_t t = 0; t < trees; ++t) {
      const std::size_t lvl0 = level_offset_[t];
      const std::size_t lvl1 = level_offset_[t + 1];
      const double* leaves = leaf_values_.data() + leaf_offset_[t];
      for (std::size_t r = r0; r < r1; ++r) {
        const double* row = x + r * stride;
        std::size_t idx = 0;
        for (std::size_t l = lvl0; l < lvl1; ++l) {
          idx |= static_cast<std::size_t>(
                     row[feature_[l]] > threshold_[l])
                 << (l - lvl0);
        }
        out[r] += scale * leaves[idx];
      }
    }
  }
}

double FlatObliviousForest::predict_row(const double* row) const {
  double acc = 0.0;
  const std::size_t trees = n_trees();
  for (std::size_t t = 0; t < trees; ++t) {
    const std::size_t lvl0 = level_offset_[t];
    const std::size_t lvl1 = level_offset_[t + 1];
    std::size_t idx = 0;
    for (std::size_t l = lvl0; l < lvl1; ++l) {
      idx |= static_cast<std::size_t>(row[feature_[l]] > threshold_[l])
             << (l - lvl0);
    }
    acc += leaf_values_[leaf_offset_[t] + idx];
  }
  return acc;
}

}  // namespace vmincqr::models
