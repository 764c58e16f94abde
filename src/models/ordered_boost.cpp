#include "models/ordered_boost.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "parallel/parallel_for.hpp"
#include "stats/descriptive.hpp"
#include "stats/quantile.hpp"

namespace vmincqr::models {
namespace {

/// Best (score, feature, threshold) seen by one feature chunk of the
/// oblivious level search. Defaults mirror the sequential scan's start
/// state: -inf score, nothing found.
struct LevelCandidate {
  double score = -std::numeric_limits<double>::infinity();
  std::size_t feature = 0;
  double threshold = 0.0;
  bool found = false;
};

/// Level work (rows x features) below which the split search stays inline.
constexpr std::size_t kMinParallelSplitWork = 4096;

/// Batch size below which predict stays single-shard (matches gbt.cpp).
constexpr std::size_t kMinParallelRows = 256;

}  // namespace

OrderedBoostedTrees::OrderedBoostedTrees(OrderedBoostConfig config)
    : config_(config) {
  if (config_.n_rounds <= 0) {
    throw std::invalid_argument("OrderedBoostedTrees: n_rounds <= 0");
  }
  if (config_.learning_rate <= 0.0) {
    throw std::invalid_argument("OrderedBoostedTrees: learning_rate <= 0");
  }
  if (config_.depth <= 0 || config_.depth > 16) {
    throw std::invalid_argument("OrderedBoostedTrees: depth outside [1, 16]");
  }
  if (config_.border_count < 1) {
    throw std::invalid_argument("OrderedBoostedTrees: border_count < 1");
  }
}

std::vector<std::vector<double>> OrderedBoostedTrees::compute_borders(
    const Matrix& x) const {
  std::vector<std::vector<double>> borders(x.cols());
  for (std::size_t f = 0; f < x.cols(); ++f) {
    Vector values = x.col(f);
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    if (values.size() < 2) continue;
    const auto want = static_cast<std::size_t>(config_.border_count);
    if (values.size() - 1 <= want) {
      // Every midpoint between adjacent distinct values.
      for (std::size_t i = 0; i + 1 < values.size(); ++i) {
        borders[f].push_back(0.5 * (values[i] + values[i + 1]));
      }
    } else {
      // Evenly spaced quantile borders.
      for (std::size_t b = 1; b <= want; ++b) {
        const double q = static_cast<double>(b) / (static_cast<double>(want) + 1.0);
        const auto pos = static_cast<std::size_t>(
            q * static_cast<double>(values.size() - 1));
        borders[f].push_back(0.5 * (values[pos] + values[std::min(
                                                      pos + 1, values.size() - 1)]));
      }
      borders[f].erase(std::unique(borders[f].begin(), borders[f].end()),
                       borders[f].end());
    }
  }
  return borders;
}

void OrderedBoostedTrees::fit(const Matrix& x, const Vector& y) {
  check_fit_args(x, y);
  n_features_ = x.cols();
  trees_.clear();
  const std::size_t n = x.rows();

  if (config_.loss.kind == LossKind::kPinball) {
    base_score_ = stats::quantile_linear(y, config_.loss.quantile);
  } else {
    base_score_ = stats::mean(y);
  }

  const auto borders = compute_borders(x);

  feature_gains_.assign(n_features_, 0.0);
  rng::Rng rng(config_.seed);
  const std::vector<std::size_t> fixed_perm = rng.permutation(n);

  // pred[i]: the prediction used for gradients. In ordered mode this is the
  // prefix-only (unbiased) running prediction; in plain mode the usual one.
  Vector pred(n, base_score_);
  Vector grad(n), hess(n);
  const auto depth = static_cast<std::size_t>(config_.depth);
  std::vector<std::size_t> leaf_of(n, 0);

  for (int round = 0; round < config_.n_rounds; ++round) {
    const std::vector<std::size_t> perm =
        config_.fresh_permutation_each_round ? rng.permutation(n) : fixed_perm;
    for (std::size_t i = 0; i < n; ++i) {
      grad[i] = config_.loss.gradient(y[i], pred[i]);
      hess[i] = config_.loss.hessian(y[i], pred[i]);
    }

    // Greedy level-by-level oblivious structure search.
    ObliviousTree tree;
    std::fill(leaf_of.begin(), leaf_of.end(), std::size_t{0});
    for (std::size_t level = 0; level < depth; ++level) {
      const std::size_t current_parts = std::size_t{1} << level;

      // Pre-aggregate per-partition totals.
      std::vector<double> g_tot(current_parts, 0.0), h_tot(current_parts, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        g_tot[leaf_of[i]] += grad[i];
        h_tot[leaf_of[i]] += hess[i];
      }
      double parent_score = 0.0;
      for (std::size_t p = 0; p < current_parts; ++p) {
        parent_score +=
            g_tot[p] * g_tot[p] / (h_tot[p] + config_.l2_leaf_reg);
      }

      // Split search, parallel across features: each chunk scans its
      // (feature, border) candidates in order against private per-partition
      // accumulators; per-chunk bests fold in ascending feature order, so
      // the winner matches a sequential scan at every thread count.
      const bool use_pool = n * x.cols() >= kMinParallelSplitWork;
      const LevelCandidate best = parallel::parallel_deterministic_reduce(
          x.cols(), /*grain=*/1, LevelCandidate{},
          [&](std::size_t f_begin, std::size_t f_end) {
            LevelCandidate local;
            std::vector<double> g_left(current_parts), h_left(current_parts);
            for (std::size_t f = f_begin; f < f_end; ++f) {
              for (double thr : borders[f]) {
                std::fill(g_left.begin(), g_left.end(), 0.0);
                std::fill(h_left.begin(), h_left.end(), 0.0);
                for (std::size_t i = 0; i < n; ++i) {
                  if (x(i, f) <= thr) {
                    g_left[leaf_of[i]] += grad[i];
                    h_left[leaf_of[i]] += hess[i];
                  }
                }
                double score = 0.0;
                for (std::size_t p = 0; p < current_parts; ++p) {
                  const double gl = g_left[p], hl = h_left[p];
                  const double gr = g_tot[p] - gl, hr = h_tot[p] - hl;
                  score += gl * gl / (hl + config_.l2_leaf_reg) +
                           gr * gr / (hr + config_.l2_leaf_reg);
                }
                if (score > local.score) {
                  local.score = score;
                  local.feature = f;
                  local.threshold = thr;
                  local.found = true;
                }
              }
            }
            return local;
          },
          [](LevelCandidate acc, LevelCandidate part) {
            return part.score > acc.score ? part : acc;
          },
          use_pool);

      if (!best.found) break;  // no usable split candidates (constant features)
      if (best.score > parent_score) {
        feature_gains_[best.feature] += best.score - parent_score;
      }
      tree.features.push_back(best.feature);
      tree.thresholds.push_back(best.threshold);
      for (std::size_t i = 0; i < n; ++i) {
        leaf_of[i] |= static_cast<std::size_t>(x(i, best.feature) >
                                               best.threshold)
                      << level;
      }
    }
    const std::size_t actual_leaves = std::size_t{1} << tree.features.size();

    // Ordered leaf estimation: each sample's update uses only the prefix of
    // its leaf in the permutation; this is what removes prediction shift.
    // The prefix estimator must match the inference leaf estimator (gradient
    // step for squared loss, residual quantile for pinball), otherwise the
    // training trajectory and the deployed ensemble diverge.
    // Round-start residuals; used by both the ordered prefix estimator and
    // the pinball leaf refit (pred mutates during the ordered loop).
    std::vector<double> residual(n);
    for (std::size_t i = 0; i < n; ++i) residual[i] = y[i] - pred[i];

    if (config_.ordered) {
      if (config_.loss.kind == LossKind::kPinball) {
        // Prefix residual quantiles, maintained as sorted per-leaf vectors.
        std::vector<std::vector<double>> prefix(actual_leaves);
        const double q = config_.loss.quantile;
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t i = perm[k];
          auto& leaf_members = prefix[leaf_of[i]];
          const double value =
              leaf_members.empty()
                  ? 0.0
                  : stats::quantile_linear(leaf_members, q);
          pred[i] += config_.learning_rate * value;
          leaf_members.insert(std::upper_bound(leaf_members.begin(),
                                               leaf_members.end(),
                                               residual[i]),
                              residual[i]);
        }
      } else {
        std::vector<double> g_prefix(actual_leaves, 0.0),
            h_prefix(actual_leaves, 0.0);
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t i = perm[k];
          const std::size_t leaf = leaf_of[i];
          const double value =
              (h_prefix[leaf] > 0.0)
                  ? -g_prefix[leaf] / (h_prefix[leaf] + config_.l2_leaf_reg)
                  : 0.0;
          pred[i] += config_.learning_rate * value;
          g_prefix[leaf] += grad[i];
          h_prefix[leaf] += hess[i];
        }
      }
    }

    // Final (inference) leaf values from all samples.
    tree.leaf_values.assign(actual_leaves, 0.0);
    if (config_.loss.kind == LossKind::kPinball) {
      std::vector<std::vector<double>> residuals(actual_leaves);
      for (std::size_t i = 0; i < n; ++i) {
        residuals[leaf_of[i]].push_back(residual[i]);
      }
      for (std::size_t leaf = 0; leaf < actual_leaves; ++leaf) {
        if (!residuals[leaf].empty()) {
          tree.leaf_values[leaf] = stats::quantile_linear(
              residuals[leaf], config_.loss.quantile);
        }
      }
    } else {
      std::vector<double> g_tot(actual_leaves, 0.0), h_tot(actual_leaves, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        g_tot[leaf_of[i]] += grad[i];
        h_tot[leaf_of[i]] += hess[i];
      }
      for (std::size_t leaf = 0; leaf < actual_leaves; ++leaf) {
        if (h_tot[leaf] > 0.0) {
          tree.leaf_values[leaf] =
              -g_tot[leaf] / (h_tot[leaf] + config_.l2_leaf_reg);
        }
      }
    }

    if (!config_.ordered) {
      for (std::size_t i = 0; i < n; ++i) {
        pred[i] += config_.learning_rate * tree.leaf_values[leaf_of[i]];
      }
    }
    trees_.push_back(std::move(tree));
  }
  rebuild_flat();
  fitted_ = true;
}

void OrderedBoostedTrees::rebuild_flat() {
  flat_.clear();
  for (const auto& tree : trees_) flat_.add_tree(tree);
}

Vector OrderedBoostedTrees::predict(const Matrix& x) const {
  check_predict_args(x, n_features_, fitted_);
  Vector out(x.rows(), base_score_);
  // Row-sharded over the flat SoA planes. Per row the trees accumulate in
  // round order on top of the base score — the same summation order as the
  // old trees-outer loop, so results are bit-identical at any thread count.
  // Grain = the traversal row block, so auto-grain can't slice the batch
  // into slivers that re-stream the node planes per sliver.
  parallel::parallel_for(
      x.rows(), /*grain=*/models::kTraversalRowBlock,
      [&](std::size_t begin, std::size_t end) {
        flat_.accumulate(x.row_ptr(begin), end - begin, x.cols(),
                         config_.learning_rate, out.data() + begin);
      },
      /*use_pool=*/x.rows() >= kMinParallelRows);
  return out;
}

Vector OrderedBoostedTrees::feature_importance() const {
  if (!fitted_) throw std::logic_error("OrderedBoostedTrees: not fitted");
  Vector gains = feature_gains_;
  double total = 0.0;
  for (double g : gains) total += g;
  if (total > 0.0) {
    for (auto& g : gains) g /= total;
  }
  return gains;
}

std::unique_ptr<Regressor> OrderedBoostedTrees::clone_config() const {
  return std::make_unique<OrderedBoostedTrees>(config_);
}

OrderedBoostParams OrderedBoostedTrees::export_params() const {
  if (!fitted_) {
    throw std::logic_error("OrderedBoostedTrees::export_params: not fitted");
  }
  return {base_score_, config_.learning_rate, n_features_, trees_,
          feature_gains_};
}

void OrderedBoostedTrees::import_params(OrderedBoostParams params) {
  if (!(params.learning_rate > 0.0) || params.n_features == 0) {
    throw std::invalid_argument(
        "OrderedBoostedTrees::import_params: bad hyperparameters");
  }
  for (const auto& tree : params.trees) {
    const std::size_t depth = tree.features.size();
    if (tree.thresholds.size() != depth ||
        tree.leaf_values.size() != (std::size_t{1} << depth)) {
      throw std::invalid_argument(
          "OrderedBoostedTrees::import_params: malformed oblivious tree");
    }
    for (std::size_t f : tree.features) {
      if (f >= params.n_features) {
        throw std::invalid_argument(
            "OrderedBoostedTrees::import_params: feature index out of range");
      }
    }
  }
  if (params.feature_gains.size() != params.n_features) {
    params.feature_gains.assign(params.n_features, 0.0);
  }
  trees_ = std::move(params.trees);
  feature_gains_ = std::move(params.feature_gains);
  base_score_ = params.base_score;
  config_.learning_rate = params.learning_rate;
  n_features_ = params.n_features;
  rebuild_flat();
  fitted_ = true;
}

}  // namespace vmincqr::models
