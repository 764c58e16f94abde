// Tests for the tree-based models: RegressionTree, GradientBoostedTrees
// (XGBoost-style), OrderedBoostedTrees (CatBoost-style).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "models/gbt.hpp"
#include "models/ordered_boost.hpp"
#include "models/tree.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "stats/descriptive.hpp"
#include "stats/metrics.hpp"

namespace vmincqr::models {
namespace {

// Step function: y = 1 if x0 > 0 else -1 (trees nail this, linear cannot).
struct StepProblem {
  Matrix x;
  Vector y;
};

StepProblem make_step_problem(std::size_t n, double noise, std::uint64_t seed) {
  rng::Rng rng(seed);
  StepProblem p{Matrix(n, 3), Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 3; ++c) p.x(i, c) = rng.normal();
    p.y[i] = (p.x(i, 0) > 0.0 ? 1.0 : -1.0) + rng.normal(0.0, noise);
  }
  return p;
}

// For squared loss, boosting a tree on gradients g = pred - y with hess 1
// means a single tree fitted at pred = 0 should output ~mean(y) per leaf.
TEST(RegressionTree, SingleSplitOnStepFunction) {
  const auto p = make_step_problem(100, 0.0, 1);
  Vector grad(p.y.size()), hess(p.y.size(), 1.0);
  for (std::size_t i = 0; i < p.y.size(); ++i) grad[i] = -p.y[i];  // pred = 0
  TreeConfig config;
  config.max_depth = 1;
  config.lambda = 0.0;
  RegressionTree tree;
  tree.fit(p.x, grad, hess, config);
  EXPECT_EQ(tree.n_leaves(), 2u);
  const Vector pred = tree.predict(p.x);
  for (std::size_t i = 0; i < p.y.size(); ++i) {
    EXPECT_NEAR(pred[i], p.y[i], 1e-9);
  }
}

TEST(RegressionTree, RespectsMaxDepth) {
  const auto p = make_step_problem(200, 0.3, 2);
  Vector grad(p.y.size()), hess(p.y.size(), 1.0);
  for (std::size_t i = 0; i < p.y.size(); ++i) grad[i] = -p.y[i];
  TreeConfig config;
  config.max_depth = 3;
  RegressionTree tree;
  tree.fit(p.x, grad, hess, config);
  EXPECT_LE(tree.n_leaves(), 8u);
}

TEST(RegressionTree, MinSamplesLeafEnforced) {
  const auto p = make_step_problem(40, 0.3, 3);
  Vector grad(p.y.size()), hess(p.y.size(), 1.0);
  for (std::size_t i = 0; i < p.y.size(); ++i) grad[i] = -p.y[i];
  TreeConfig config;
  config.max_depth = 10;
  config.min_samples_leaf = 10;
  RegressionTree tree;
  tree.fit(p.x, grad, hess, config);
  // Count training samples per leaf.
  std::vector<int> counts(tree.n_leaves(), 0);
  for (auto id : tree.train_leaf_ids()) {
    ASSERT_GE(id, 0);
    counts[static_cast<std::size_t>(id)]++;
  }
  for (int c : counts) EXPECT_GE(c, 10);
}

TEST(RegressionTree, ConstantTargetGivesSingleLeaf) {
  Matrix x(20, 2, 0.0);
  for (std::size_t i = 0; i < 20; ++i) x(i, 0) = static_cast<double>(i);
  Vector grad(20, -5.0), hess(20, 1.0);
  TreeConfig config;
  RegressionTree tree;
  tree.fit(x, grad, hess, config);
  EXPECT_EQ(tree.n_leaves(), 1u);
  EXPECT_NEAR(tree.predict(x)[0], 5.0 * 20.0 / (20.0 + config.lambda), 1e-9);
}

TEST(RegressionTree, LeafValueOverride) {
  const auto p = make_step_problem(50, 0.0, 4);
  Vector grad(p.y.size()), hess(p.y.size(), 1.0);
  for (std::size_t i = 0; i < p.y.size(); ++i) grad[i] = -p.y[i];
  TreeConfig config;
  config.max_depth = 1;
  RegressionTree tree;
  tree.fit(p.x, grad, hess, config);
  ASSERT_EQ(tree.n_leaves(), 2u);
  tree.set_leaf_value(0, 42.0);
  EXPECT_DOUBLE_EQ(tree.leaf_value(0), 42.0);
  EXPECT_THROW(tree.set_leaf_value(5, 1.0), std::out_of_range);
}

TEST(RegressionTree, ValidatesInput) {
  RegressionTree tree;
  EXPECT_THROW(tree.fit(Matrix(0, 0), {}, {}, TreeConfig{}),
               std::invalid_argument);
  EXPECT_THROW(tree.fit(Matrix(3, 1), Vector(2), Vector(3), TreeConfig{}),
               std::invalid_argument);
  EXPECT_THROW(tree.predict(Matrix(1, 1)), std::logic_error);
}

TEST(Gbt, FitsStepFunctionBetterThanConstant) {
  const auto train = make_step_problem(150, 0.2, 5);
  const auto test = make_step_problem(100, 0.2, 6);
  GradientBoostedTrees gbt;
  gbt.fit(train.x, train.y);
  EXPECT_GT(stats::r_squared(test.y, gbt.predict(test.x)), 0.8);
}

TEST(Gbt, TrainErrorDecreasesWithRounds) {
  const auto p = make_step_problem(120, 0.5, 7);
  GbtConfig few, many;
  few.n_rounds = 2;
  many.n_rounds = 50;
  GradientBoostedTrees a(few), b(many);
  a.fit(p.x, p.y);
  b.fit(p.x, p.y);
  EXPECT_LT(stats::rmse(p.y, b.predict(p.x)),
            stats::rmse(p.y, a.predict(p.x)));
}

TEST(Gbt, PinballQuantilesBracketTheData) {
  rng::Rng rng(8);
  const std::size_t n = 400;
  Matrix x(n, 2);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.normal();
    x(i, 1) = rng.normal();
    // Heteroscedastic: spread grows with |x0|.
    y[i] = x(i, 0) + rng.normal(0.0, 0.2 + 0.5 * std::abs(x(i, 0)));
  }
  GbtConfig lo_config, hi_config;
  lo_config.loss = Loss::pinball(core::QuantileLevel{0.05});
  hi_config.loss = Loss::pinball(core::QuantileLevel{0.95});
  GradientBoostedTrees lo(lo_config), hi(hi_config);
  lo.fit(x, y);
  hi.fit(x, y);
  const double cov =
      stats::interval_coverage(y, lo.predict(x), hi.predict(x));
  EXPECT_GT(cov, 0.80);
  EXPECT_LT(cov, 0.999);
}

// Tie-heavy design for the exact split search: every value sits on one of
// three levels, column 3 is constant and the second half of the rows
// duplicates the first. Equal values are scanned in row-index order, so the
// gradient sums at each candidate threshold — and every fitted bit — depend
// on that tie-break. 600 x 8 crosses the split-search pool gate at the top
// of each tree.
StepProblem make_tied_problem() {
  constexpr std::size_t kHalf = 300;
  constexpr std::size_t kCols = 8;
  constexpr std::size_t kConstantCol = 3;
  rng::Rng rng(17);
  StepProblem p{Matrix(2 * kHalf, kCols), Vector(2 * kHalf)};
  for (std::size_t i = 0; i < kHalf; ++i) {
    double signal = 0.0;
    for (std::size_t c = 0; c < kCols; ++c) {
      const double z = rng.normal();
      const double level = z < -0.4 ? -1.0 : (z > 0.4 ? 1.0 : 0.0);
      p.x(i, c) = c == kConstantCol ? 2.5 : level;
      signal += (c % 2 == 0 ? 0.6 : 0.2) * p.x(i, c);
    }
    p.y[i] = signal + rng.normal(0.0, 0.3);
  }
  for (std::size_t i = 0; i < kHalf; ++i) {
    for (std::size_t c = 0; c < kCols; ++c) p.x(kHalf + i, c) = p.x(i, c);
    p.y[kHalf + i] = p.y[i];
  }
  return p;
}

/// FNV-1a (64-bit) over the fitted state: base score, learning rate and
/// every node field, doubles by bit pattern.
std::uint64_t params_digest(const GbtParams& params) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  mix(std::bit_cast<std::uint64_t>(params.base_score));
  mix(std::bit_cast<std::uint64_t>(params.learning_rate));
  mix(params.n_features);
  for (const auto& nodes : params.trees) {
    mix(nodes.size());
    for (const TreeNode& node : nodes) {
      mix(node.is_leaf ? 1U : 0U);
      mix(node.feature);
      mix(std::bit_cast<std::uint64_t>(node.threshold));
      mix(static_cast<std::uint32_t>(node.left));
      mix(static_cast<std::uint32_t>(node.right));
      mix(std::bit_cast<std::uint64_t>(node.value));
      mix(static_cast<std::uint32_t>(node.leaf_id));
      mix(std::bit_cast<std::uint64_t>(node.gain));
    }
  }
  return hash;
}

struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { parallel::set_max_threads(0); }
};

TEST(Gbt, TiedAndConstantColumnsFitIsPinnedAtEveryWidth) {
  const auto p = make_tied_problem();
  GbtConfig config;
  config.loss = Loss::pinball(core::QuantileLevel{0.9});
  // Captured from a fit that sorted each node's rows afresh; the presorted
  // search must reproduce it bit for bit.
  constexpr std::uint64_t kPinned = 0x1037b237389e20f7ULL;
  ThreadOverrideGuard guard;
  for (const std::size_t width : {std::size_t{1}, std::size_t{0}}) {
    parallel::set_max_threads(width);
    GradientBoostedTrees gbt(config);
    gbt.fit(p.x, p.y);
    EXPECT_EQ(params_digest(gbt.export_params()), kPinned)
        << "width " << width << ": digest 0x" << std::hex
        << params_digest(gbt.export_params());
  }
}

TEST(Gbt, CloneAndValidation) {
  GbtConfig bad;
  bad.n_rounds = 0;
  EXPECT_THROW(GradientBoostedTrees{bad}, std::invalid_argument);
  const auto p = make_step_problem(50, 0.1, 9);
  GradientBoostedTrees gbt;
  gbt.fit(p.x, p.y);
  auto clone = gbt.clone_config();
  EXPECT_FALSE(clone->fitted());
  clone->fit(p.x, p.y);
  const Vector a = gbt.predict(p.x), b = clone->predict(p.x);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(ObliviousTree, LeafIndexBitmask) {
  ObliviousTree tree;
  tree.features = {0, 1};
  tree.thresholds = {0.5, 0.5};
  tree.leaf_values = {10.0, 11.0, 12.0, 13.0};
  const double row_a[] = {0.0, 0.0};  // both <= thr -> leaf 0
  const double row_b[] = {1.0, 0.0};  // bit 0 set -> leaf 1
  const double row_c[] = {0.0, 1.0};  // bit 1 set -> leaf 2
  const double row_d[] = {1.0, 1.0};  // both -> leaf 3
  EXPECT_DOUBLE_EQ(tree.predict_row(row_a), 10.0);
  EXPECT_DOUBLE_EQ(tree.predict_row(row_b), 11.0);
  EXPECT_DOUBLE_EQ(tree.predict_row(row_c), 12.0);
  EXPECT_DOUBLE_EQ(tree.predict_row(row_d), 13.0);
}

TEST(OrderedBoost, FitsStepFunction) {
  const auto train = make_step_problem(150, 0.2, 10);
  const auto test = make_step_problem(100, 0.2, 11);
  OrderedBoostedTrees cb;
  cb.fit(train.x, train.y);
  EXPECT_GT(stats::r_squared(test.y, cb.predict(test.x)), 0.8);
}

TEST(OrderedBoost, OrderedAndPlainBothLearn) {
  const auto train = make_step_problem(200, 0.3, 12);
  const auto test = make_step_problem(150, 0.3, 13);
  OrderedBoostConfig ordered_config, plain_config;
  ordered_config.ordered = true;
  plain_config.ordered = false;
  OrderedBoostedTrees ordered(ordered_config), plain(plain_config);
  ordered.fit(train.x, train.y);
  plain.fit(train.x, train.y);
  EXPECT_GT(stats::r_squared(test.y, ordered.predict(test.x)), 0.75);
  EXPECT_GT(stats::r_squared(test.y, plain.predict(test.x)), 0.75);
}

TEST(OrderedBoost, PinballQuantilesOrdered) {
  const auto p = make_step_problem(300, 0.5, 14);
  OrderedBoostConfig lo_config, hi_config;
  lo_config.loss = Loss::pinball(core::QuantileLevel{0.05});
  hi_config.loss = Loss::pinball(core::QuantileLevel{0.95});
  OrderedBoostedTrees lo(lo_config), hi(hi_config);
  lo.fit(p.x, p.y);
  hi.fit(p.x, p.y);
  const Vector lo_pred = lo.predict(p.x), hi_pred = hi.predict(p.x);
  EXPECT_LT(stats::mean(lo_pred), stats::mean(hi_pred));
  const double cov = stats::interval_coverage(p.y, lo_pred, hi_pred);
  EXPECT_GT(cov, 0.7);
}

TEST(OrderedBoost, DeterministicInSeed) {
  const auto p = make_step_problem(80, 0.2, 15);
  OrderedBoostedTrees a, b;
  a.fit(p.x, p.y);
  b.fit(p.x, p.y);
  const Vector pa = a.predict(p.x), pb = b.predict(p.x);
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_DOUBLE_EQ(pa[i], pb[i]);
}

TEST(OrderedBoost, HandlesConstantFeatures) {
  Matrix x(30, 2, 1.0);  // all constant
  rng::Rng rng(16);
  Vector y = rng.normal_vector(30, 5.0, 1.0);
  OrderedBoostedTrees cb;
  cb.fit(x, y);
  // No usable splits: prediction must be near the unconditional mean.
  const Vector pred = cb.predict(x);
  EXPECT_NEAR(pred[0], stats::mean(y), 0.5);
}

TEST(OrderedBoost, ValidatesConfig) {
  OrderedBoostConfig bad;
  bad.depth = 0;
  EXPECT_THROW(OrderedBoostedTrees{bad}, std::invalid_argument);
  OrderedBoostConfig bad2;
  bad2.border_count = 0;
  EXPECT_THROW(OrderedBoostedTrees{bad2}, std::invalid_argument);
}

TEST(FeatureImportance, GbtFindsTheSignalFeature) {
  rng::Rng rng(7);
  const std::size_t n = 300;
  linalg::Matrix x(n, 5);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 5; ++c) x(i, c) = rng.normal();
    y[i] = (x(i, 2) > 0.0 ? 1.0 : -1.0) + 0.1 * rng.normal();
  }
  models::GradientBoostedTrees gbt;
  gbt.fit(x, y);
  const auto importance = gbt.feature_importance();
  ASSERT_EQ(importance.size(), 5u);
  double total = 0.0;
  for (double v : importance) total += v;
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (std::size_t c = 0; c < 5; ++c) {
    if (c != 2) {
      EXPECT_GT(importance[2], importance[c]);
    }
  }
}

TEST(FeatureImportance, OrderedBoostFindsTheSignalFeature) {
  rng::Rng rng(8);
  const std::size_t n = 300;
  linalg::Matrix x(n, 4);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 4; ++c) x(i, c) = rng.normal();
    y[i] = 2.0 * x(i, 1) + 0.1 * rng.normal();
  }
  models::OrderedBoostedTrees cb;
  cb.fit(x, y);
  const auto importance = cb.feature_importance();
  ASSERT_EQ(importance.size(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    if (c != 1) {
      EXPECT_GT(importance[1], importance[c]);
    }
  }
  models::OrderedBoostedTrees unfitted;
  EXPECT_THROW(unfitted.feature_importance(), std::logic_error);
}

}  // namespace
}  // namespace vmincqr::models
