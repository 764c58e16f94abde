// Kernel-layer tests: bitwise equivalence of the dense micro-kernels with
// the scalar reference loops, and flat-forest traversal equivalence.
#include <gtest/gtest.h>

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
