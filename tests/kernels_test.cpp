// Kernel-layer tests: bitwise equivalence of the dense micro-kernels with
// the scalar reference loops, and flat-forest traversal equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "models/gbt.hpp"
#include "models/ordered_boost.hpp"
#include "rng/rng.hpp"

using namespace vmincqr;

namespace {

/// Random buffer with exact zeros sprinkled in: the kernels must
/// reproduce the reference skip-set, which only exact zeros exercise.
std::vector<double> random_with_zeros(std::size_t n, rng::Rng& rng) {
  std::vector<double> out(n);
  for (auto& v : out) v = rng.uniform() < 0.15 ? 0.0 : rng.normal();
  return out;
}

struct Problem {
  linalg::Matrix x;
  linalg::Vector y;
};

Problem make_problem(std::size_t n, std::size_t d, std::uint64_t seed) {
  rng::Rng rng(seed);
  Problem p{linalg::Matrix(n, d), linalg::Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    double signal = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      p.x(i, c) = rng.normal();
      signal += (c % 3 == 0 ? 0.3 : 0.05) * p.x(i, c);
    }
    p.y[i] = 0.55 + 0.01 * signal + rng.normal(0.0, 0.003);
  }
  return p;
}

// --- bitwise equality with the scalar reference loops ----------------------

TEST(KernelsExact, GemmMatchesScalarReferenceBitwise) {
  rng::Rng rng(11);
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {1, 1, 1}, {3, 5, 4}, {7, 13, 9}, {8, 16, 16}, {17, 4, 1}};
  for (const auto& [m, k, n] : shapes) {
    const auto a = random_with_zeros(m * k, rng);
    const auto b = random_with_zeros(k * n, rng);
    auto c_ref = random_with_zeros(m * n, rng);  // non-zero caller init
    auto c_kernel = c_ref;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double aik = a[i * k + kk];
        if (aik == 0.0) continue;  // the reference skip-set
        for (std::size_t j = 0; j < n; ++j) {
          c_ref[i * n + j] += aik * b[kk * n + j];
        }
      }
    }
    linalg::gemm(m, k, n, a.data(), k, b.data(), n, c_kernel.data(), n);
    for (std::size_t i = 0; i < m * n; ++i) {
      ASSERT_EQ(c_kernel[i], c_ref[i]) << m << "x" << k << "x" << n
                                       << " element " << i;
    }
  }
}

TEST(KernelsExact, GemmAtMatchesScalarReferenceBitwise) {
  rng::Rng rng(12);
  const std::size_t m = 21, k = 7, n = 10;
  const auto a = random_with_zeros(m * k, rng);
  const auto b = random_with_zeros(m * n, rng);
  std::vector<double> c_ref(k * n, 0.0), c_kernel(k * n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      for (std::size_t j = 0; j < n; ++j) {
        const double bij = b[i * n + j];
        if (bij == 0.0) continue;  // the reference skip-set (MLP dh == 0)
        c_ref[kk * n + j] += a[i * k + kk] * bij;
      }
    }
  }
  linalg::gemm_at(m, k, n, a.data(), k, b.data(), n, c_kernel.data(), n);
  for (std::size_t i = 0; i < k * n; ++i) {
    ASSERT_EQ(c_kernel[i], c_ref[i]) << "element " << i;
  }
}

TEST(KernelsExact, GemvAndDotMatchScalarReferenceBitwise) {
  rng::Rng rng(13);
  const std::size_t m = 19, n = 23;
  const auto a = random_with_zeros(m * n, rng);
  const auto x = random_with_zeros(n, rng);
  std::vector<double> y_ref(m), y_kernel(m);
  for (std::size_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += a[i * n + j] * x[j];
    y_ref[i] = acc;
  }
  linalg::gemv(m, n, a.data(), n, x.data(), y_kernel.data());
  for (std::size_t i = 0; i < m; ++i) ASSERT_EQ(y_kernel[i], y_ref[i]);

  double dot_ref = 0.0;
  for (std::size_t j = 0; j < n; ++j) dot_ref += x[j] * a[j];
  EXPECT_EQ(linalg::dot_kernel(n, x.data(), a.data()), dot_ref);
}

TEST(KernelsExact, RowSqDistsMatchesScalarReferenceBitwise) {
  rng::Rng rng(14);
  const std::size_t d = 9, nb = 11;
  const auto a = random_with_zeros(d, rng);
  const auto b = random_with_zeros(nb * d, rng);
  std::vector<double> out_ref(nb), out_kernel(nb);
  for (std::size_t j = 0; j < nb; ++j) {
    double acc = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double diff = a[c] - b[j * d + c];
      acc += diff * diff;
    }
    out_ref[j] = acc;
  }
  linalg::row_sq_dists(a.data(), d, b.data(), d, nb, out_kernel.data());
  for (std::size_t j = 0; j < nb; ++j) ASSERT_EQ(out_kernel[j], out_ref[j]);
}

// --- flat forests -----------------------------------------------------------

TEST(FlatForest, GbtPredictMatchesPerTreeTraversal) {
  const Problem p = make_problem(300, 6, 21);
  models::GbtConfig config;
  config.n_rounds = 12;
  models::GradientBoostedTrees model(config);
  model.fit(p.x, p.y);

  const models::GbtParams params = model.export_params();
  const linalg::Vector got = model.predict(p.x);
  for (std::size_t i = 0; i < p.x.rows(); ++i) {
    double want = params.base_score;
    for (const auto& nodes : params.trees) {
      // Reference pointer-chasing traversal over the exported AoS nodes.
      std::size_t idx = 0;
      while (!nodes[idx].is_leaf) {
        idx = p.x(i, nodes[idx].feature) <= nodes[idx].threshold
                  ? static_cast<std::size_t>(nodes[idx].left)
                  : static_cast<std::size_t>(nodes[idx].right);
      }
      want += params.learning_rate * nodes[idx].value;
    }
    ASSERT_EQ(got[i], want) << "row " << i;
  }
}

/// Root-to-deepest-leaf edge count of an AoS node array.
int aos_depth(const std::vector<models::TreeNode>& nodes, std::size_t idx = 0) {
  if (nodes[idx].is_leaf) return 0;
  const int left = aos_depth(nodes, static_cast<std::size_t>(nodes[idx].left));
  const int right =
      aos_depth(nodes, static_cast<std::size_t>(nodes[idx].right));
  return 1 + (left > right ? left : right);
}

TEST(FlatForest, SmallBatchesMatchPerTreeTraversal) {
  // Batches under eight rows take the tree-interleaved path, which walks
  // trees eight abreast to the deepest of each group. Build a forest that
  // stresses it: 19 trees (two full groups of eight plus a tail of three),
  // depths 2, 4 and 6 mixed within each group, and a single-leaf tree.
  // While every partial sum stays in one binade, each addition rounds onto
  // the same fixed grid and summation order almost never shows in the
  // bits. The labels are centred and stretched so leaves take both signs
  // and the base score's magnitude, and partial sums cross binades.
  Problem p = make_problem(240, 6, 23);
  for (double& y : p.y) y = (y - 0.55) * 100.0;
  models::GbtParams params;
  for (const int depth : {2, 6, 4}) {
    models::GbtConfig config;
    config.n_rounds = 6;
    config.tree.max_depth = depth;
    models::GradientBoostedTrees part(config);
    part.fit(p.x, p.y);
    const models::GbtParams fitted = part.export_params();
    if (params.trees.empty()) {
      params = fitted;
    } else {
      params.trees.insert(params.trees.end(), fitted.trees.begin(),
                          fitted.trees.end());
    }
  }
  models::TreeNode leaf;
  leaf.value = 0.37;
  leaf.leaf_id = 0;
  params.trees.insert(params.trees.begin() + 9, {leaf});
  // Off zero, so even the first two leaves are order-sensitive (0 + a + b
  // and 0 + b + a round alike).
  params.base_score = 1.0 / 3.0;
  ASSERT_EQ(params.trees.size(), 19u);
  std::array<bool, 7> has_depth{};
  for (const auto& nodes : params.trees) {
    has_depth[static_cast<std::size_t>(aos_depth(nodes))] = true;
  }
  ASSERT_TRUE(has_depth[0] && has_depth[2] && has_depth[6]);

  models::GradientBoostedTrees model;
  model.import_params(params);
  // Every row of the problem, cut into batches of n rows for n = 1..17.
  for (std::size_t n = 1; n <= 17; ++n) {
    for (std::size_t begin = 0; begin < p.x.rows(); begin += n) {
      const std::size_t end = std::min(begin + n, p.x.rows());
      const linalg::Vector got = model.predict(p.x.row_block(begin, end));
      ASSERT_EQ(got.size(), end - begin);
      for (std::size_t r = begin; r < end; ++r) {
        double want = params.base_score;
        for (const auto& nodes : params.trees) {
          std::size_t idx = 0;
          while (!nodes[idx].is_leaf) {
            idx = p.x(r, nodes[idx].feature) <= nodes[idx].threshold
                      ? static_cast<std::size_t>(nodes[idx].left)
                      : static_cast<std::size_t>(nodes[idx].right);
          }
          want += params.learning_rate * nodes[idx].value;
        }
        ASSERT_EQ(got[r - begin], want) << "batches of " << n << ", row " << r;
      }
    }
  }
}

TEST(FlatForest, OrderedBoostPredictMatchesPerTreeTraversal) {
  const Problem p = make_problem(280, 5, 22);
  models::OrderedBoostConfig config;
  config.n_rounds = 10;
  models::OrderedBoostedTrees model(config);
  model.fit(p.x, p.y);

  const models::OrderedBoostParams params = model.export_params();
  const linalg::Vector got = model.predict(p.x);
  for (std::size_t i = 0; i < p.x.rows(); ++i) {
    double want = params.base_score;
    for (const auto& tree : params.trees) {
      want += params.learning_rate * tree.predict_row(p.x.row_ptr(i));
    }
    ASSERT_EQ(got[i], want) << "row " << i;
  }
}

}  // namespace
