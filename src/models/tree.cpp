#include "models/tree.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "parallel/parallel_for.hpp"

namespace vmincqr::models {
namespace {

/// Node work (rows x features) below which the split search stays inline:
/// a pool dispatch costs more than the scan itself at the bottom of the
/// tree. Shape-dependent only — the chunk grid, and therefore the chosen
/// split, is identical either way.
constexpr std::size_t kMinParallelSplitWork = 4096;

/// Best split seen by one feature chunk. gain==0 means "no admissible
/// split", matching the sequential search's best_gain <= 0 leaf test.
struct SplitCandidate {
  double gain = 0.0;
  std::size_t feature = 0;
  double threshold = 0.0;
};

/// Shape contract shared by both fit() entry points.
void check_fit_args(const Matrix& x, const Vector& grad, const Vector& hess) {
  if (x.rows() == 0 || x.cols() == 0) {
    throw std::invalid_argument("RegressionTree::fit: empty design matrix");
  }
  if (grad.size() != x.rows() || hess.size() != x.rows()) {
    throw std::invalid_argument("RegressionTree::fit: grad/hess size mismatch");
  }
}

}  // namespace

std::vector<std::size_t> RegressionTree::presort(const Matrix& x) {
  const std::size_t n = x.rows();
  std::vector<std::size_t> order(n * x.cols());
  // One sort per feature, each chunk writing only its features' lists.
  // (value, row) is a strict total order, so every list is unique.
  parallel::parallel_for(
      x.cols(), /*grain=*/1,
      [&](std::size_t f_begin, std::size_t f_end) {
        for (std::size_t f = f_begin; f < f_end; ++f) {
          const auto first = order.begin() + static_cast<std::ptrdiff_t>(f * n);
          const auto last = first + static_cast<std::ptrdiff_t>(n);
          std::iota(first, last, std::size_t{0});
          std::sort(first, last, [&](std::size_t a, std::size_t b) {
            if (x(a, f) != x(b, f)) return x(a, f) < x(b, f);
            return a < b;
          });
        }
      },
      /*use_pool=*/n * x.cols() >= kMinParallelSplitWork);
  return order;
}

void RegressionTree::fit(const Matrix& x, const Vector& grad,
                         const Vector& hess, const TreeConfig& config) {
  check_fit_args(x, grad, hess);
  fit(x, grad, hess, config, presort(x));
}

void RegressionTree::fit(const Matrix& x, const Vector& grad,
                         const Vector& hess, const TreeConfig& config,
                         const std::vector<std::size_t>& order) {
  check_fit_args(x, grad, hess);
  if (order.size() != x.rows() * x.cols()) {
    throw std::invalid_argument("RegressionTree::fit: presort size mismatch");
  }
  nodes_.clear();
  leaf_node_index_.clear();
  n_leaves_ = 0;
  train_leaf_ids_.assign(x.rows(), -1);

  std::vector<std::size_t> all_rows(x.rows());
  std::iota(all_rows.begin(), all_rows.end(), std::size_t{0});
  order_scratch_[0] = order;
  order_scratch_[1].resize(order.size());
  goes_left_.resize(x.rows());
  build(x, grad, hess, config, all_rows, 0, 0);
  for (auto& buffer : order_scratch_) {
    buffer.clear();
    buffer.shrink_to_fit();
  }
  goes_left_.clear();
  goes_left_.shrink_to_fit();
  flat_.clear();
  flat_.add_tree(nodes_);
}

void RegressionTree::import_nodes(std::vector<TreeNode> nodes) {
  if (nodes.empty()) {
    throw std::invalid_argument("RegressionTree::import_nodes: empty tree");
  }
  const auto n = static_cast<std::int32_t>(nodes.size());
  std::size_t n_leaves = 0;
  for (const auto& node : nodes) {
    if (node.is_leaf) {
      ++n_leaves;
      continue;
    }
    if (node.left < 0 || node.left >= n || node.right < 0 || node.right >= n) {
      throw std::invalid_argument(
          "RegressionTree::import_nodes: dangling child index");
    }
  }
  std::vector<std::int32_t> leaf_index(n_leaves, -1);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const auto& node = nodes[i];
    if (!node.is_leaf) continue;
    if (node.leaf_id < 0 || static_cast<std::size_t>(node.leaf_id) >= n_leaves ||
        leaf_index[static_cast<std::size_t>(node.leaf_id)] != -1) {
      throw std::invalid_argument(
          "RegressionTree::import_nodes: leaf ids not dense");
    }
    leaf_index[static_cast<std::size_t>(node.leaf_id)] =
        static_cast<std::int32_t>(i);
  }
  nodes_ = std::move(nodes);
  leaf_node_index_ = std::move(leaf_index);
  n_leaves_ = n_leaves;
  train_leaf_ids_.clear();
  flat_.clear();
  flat_.add_tree(nodes_);
}

std::int32_t RegressionTree::build(const Matrix& x, const Vector& grad,
                                   const Vector& hess, const TreeConfig& config,
                                   std::vector<std::size_t>& rows,
                                   std::size_t begin, int depth) {
  double g_total = 0.0, h_total = 0.0;
  for (auto r : rows) {
    g_total += grad[r];
    h_total += hess[r];
  }

  const auto make_leaf = [&]() {
    TreeNode leaf;
    leaf.is_leaf = true;
    leaf.value = -g_total / (h_total + config.lambda);
    leaf.leaf_id = static_cast<std::int32_t>(n_leaves_++);
    const auto node_index = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(leaf);
    leaf_node_index_.push_back(node_index);
    for (auto r : rows) train_leaf_ids_[r] = leaf.leaf_id;
    return node_index;
  };

  if (depth >= config.max_depth || rows.size() < 2 * config.min_samples_leaf ||
      rows.size() < 2) {
    return make_leaf();
  }

  // Exact greedy split search, parallel across features: each chunk scans
  // its features' presorted segments, then the per-chunk bests fold in
  // ascending feature order — so the winner (first strict maximum) matches
  // a sequential feature-order scan at every thread count.
  const std::size_t n = x.rows();
  const std::size_t count = rows.size();
  const std::vector<std::size_t>& order = order_scratch_[depth % 2];
  const double parent_score = g_total * g_total / (h_total + config.lambda);
  const bool use_pool = count * x.cols() >= kMinParallelSplitWork;
  const SplitCandidate best = parallel::parallel_deterministic_reduce(
      x.cols(), /*grain=*/1, SplitCandidate{},
      [&](std::size_t f_begin, std::size_t f_end) {
        SplitCandidate local;
        for (std::size_t f = f_begin; f < f_end; ++f) {
          // The node's rows in (value, row) order: row index breaks value
          // ties, so the scan order is a pure function of the data.
          const std::size_t* sorted = order.data() + f * n + begin;
          double g_left = 0.0, h_left = 0.0;
          for (std::size_t i = 0; i + 1 < count; ++i) {
            const auto r = sorted[i];
            g_left += grad[r];
            h_left += hess[r];
            const double v = x(r, f);
            const double v_next = x(sorted[i + 1], f);
            if (v == v_next) continue;  // cannot split between equal values
            const std::size_t n_left = i + 1;
            const std::size_t n_right = count - n_left;
            if (n_left < config.min_samples_leaf ||
                n_right < config.min_samples_leaf) {
              continue;
            }
            const double g_right = g_total - g_left;
            const double h_right = h_total - h_left;
            if (h_left < config.min_child_weight ||
                h_right < config.min_child_weight) {
              continue;
            }
            const double gain =
                0.5 *
                    (g_left * g_left / (h_left + config.lambda) +
                     g_right * g_right / (h_right + config.lambda) -
                     parent_score) -
                config.gamma;
            if (gain > local.gain) {
              local.gain = gain;
              local.feature = f;
              local.threshold = 0.5 * (v + v_next);
            }
          }
        }
        return local;
      },
      [](SplitCandidate acc, SplitCandidate part) {
        return part.gain > acc.gain ? part : acc;
      },
      use_pool);

  if (best.gain <= 0.0) return make_leaf();

  std::vector<std::size_t> left_rows, right_rows;
  left_rows.reserve(count);
  right_rows.reserve(count);
  for (auto r : rows) {
    const bool left = x(r, best.feature) <= best.threshold;
    goes_left_[r] = left ? 1 : 0;
    (left ? left_rows : right_rows).push_back(r);
  }
  if (left_rows.empty() || right_rows.empty()) return make_leaf();

  // Stable partition of every feature's segment into the other buffer: left
  // rows first, right rows after, each side keeping its relative order. A
  // stable partition of a (value, row)-sorted list is still sorted, so each
  // child scans exactly the order a fresh sort of its rows would give.
  std::vector<std::size_t>& next = order_scratch_[(depth + 1) % 2];
  const std::size_t n_left = left_rows.size();
  parallel::parallel_for(
      x.cols(), /*grain=*/1,
      [&](std::size_t f_begin, std::size_t f_end) {
        for (std::size_t f = f_begin; f < f_end; ++f) {
          const std::size_t base = f * n + begin;
          std::size_t to_left = base;
          std::size_t to_right = base + n_left;
          for (std::size_t i = base; i < base + count; ++i) {
            const std::size_t r = order[i];
            if (goes_left_[r] != 0) {
              next[to_left++] = r;
            } else {
              next[to_right++] = r;
            }
          }
        }
      },
      use_pool);

  const auto node_index = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();  // placeholder; children may reallocate nodes_
  nodes_[node_index].is_leaf = false;
  nodes_[node_index].feature = best.feature;
  nodes_[node_index].threshold = best.threshold;
  nodes_[node_index].gain = best.gain;

  const std::int32_t left =
      build(x, grad, hess, config, left_rows, begin, depth + 1);
  const std::int32_t right =
      build(x, grad, hess, config, right_rows, begin + n_left, depth + 1);
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return node_index;
}

double RegressionTree::predict_row(const double* row) const {
  std::int32_t idx = 0;
  while (!nodes_[idx].is_leaf) {
    idx = (row[nodes_[idx].feature] <= nodes_[idx].threshold)
              ? nodes_[idx].left
              : nodes_[idx].right;
  }
  return nodes_[idx].value;
}

std::int32_t RegressionTree::leaf_id_for_row(const double* row) const {
  std::int32_t idx = 0;
  while (!nodes_[idx].is_leaf) {
    idx = (row[nodes_[idx].feature] <= nodes_[idx].threshold)
              ? nodes_[idx].left
              : nodes_[idx].right;
  }
  return nodes_[idx].leaf_id;
}

Vector RegressionTree::predict(const Matrix& x) const {
  if (!fitted()) throw std::logic_error("RegressionTree::predict: not fitted");
  Vector out(x.rows());
  // Row-sharded over the flat SoA planes; identical traversals to
  // predict_row, just cache-blocked (see FlatForest).
  parallel::parallel_for(
      x.rows(), /*grain=*/0,
      [&](std::size_t begin, std::size_t end) {
        flat_.predict_rows(x.row_ptr(begin), end - begin, x.cols(),
                           out.data() + begin);
      },
      /*use_pool=*/x.rows() >= 256);
  return out;
}

void RegressionTree::set_leaf_value(std::int32_t leaf_id, double value) {
  if (leaf_id < 0 || static_cast<std::size_t>(leaf_id) >= n_leaves_) {
    throw std::out_of_range("RegressionTree::set_leaf_value: bad leaf id");
  }
  const std::int32_t node_index = leaf_node_index_[leaf_id];
  nodes_[node_index].value = value;
  flat_.set_node_value(0, static_cast<std::size_t>(node_index), value);
}

void RegressionTree::accumulate_feature_gains(
    std::vector<double>& gains) const {
  for (const auto& node : nodes_) {
    if (node.is_leaf) continue;
    if (node.feature >= gains.size()) {
      throw std::invalid_argument(
          "RegressionTree::accumulate_feature_gains: gains vector too small");
    }
    gains[node.feature] += node.gain;
  }
}

double RegressionTree::leaf_value(std::int32_t leaf_id) const {
  if (leaf_id < 0 || static_cast<std::size_t>(leaf_id) >= n_leaves_) {
    throw std::out_of_range("RegressionTree::leaf_value: bad leaf id");
  }
  return nodes_[leaf_node_index_[leaf_id]].value;
}

}  // namespace vmincqr::models
