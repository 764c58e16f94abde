// Thread-count invariance battery: the end-to-end proof of the determinism
// contract (DESIGN.md §8). Every point regressor, every interval method, and
// the serialized artifact bytes must be BIT-IDENTICAL when fitted and
// evaluated at 1, 2, 3, and 8 threads. Comparisons go through
// std::bit_cast<uint64_t> so -0.0 vs 0.0 and NaN payload drift would fail,
// not slip through an == on doubles.
//
// Problem sizes are chosen to actually cross the use_pool gates at the hot
// call sites (tree split search, GP kernel/grid, GBT row loops, MLP batch
// loop, serve batch sharding) — an inline-only run would prove nothing.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "artifact/bundle.hpp"
#include "conformal/cqr.hpp"
#include "conformal/cv_plus.hpp"
#include "conformal/normalized.hpp"
#include "conformal/split_cp.hpp"
#include "core/pipeline.hpp"
#include "models/elastic_net.hpp"
#include "models/factory.hpp"
#include "models/gbt.hpp"
#include "models/gp.hpp"
#include "models/mlp.hpp"
#include "models/ordered_boost.hpp"
#include "models/region.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "silicon/dataset_gen.hpp"

using namespace vmincqr;

namespace {

/// The widths under test. 1 is the sequential reference; 3 does not divide
/// typical chunk counts evenly (uneven lane loads); 8 exceeds this
/// container's core count (oversubscription must not change bits either).
const std::vector<std::size_t> kWidths = {1, 2, 3, 8};

struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { parallel::set_max_threads(0); }
};

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

std::vector<std::uint64_t> bit_pattern(const linalg::Vector& v) {
  std::vector<std::uint64_t> bits(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    bits[i] = std::bit_cast<std::uint64_t>(v[i]);
  }
  return bits;
}

/// Runs `compute` once per width in kWidths and asserts every run reproduces
/// the width-1 reference exactly (vector of f64 bit patterns).
void expect_invariant(
    const std::string& label,
    const std::function<std::vector<std::uint64_t>()>& compute) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(kWidths[0]);
  const std::vector<std::uint64_t> reference = compute();
  ASSERT_FALSE(reference.empty()) << label;
  for (std::size_t w = 1; w < kWidths.size(); ++w) {
    parallel::set_max_threads(kWidths[w]);
    const std::vector<std::uint64_t> got = compute();
    ASSERT_EQ(got.size(), reference.size())
        << label << " at " << kWidths[w] << " threads";
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], reference[i])
          << label << ": double #" << i << " differs at " << kWidths[w]
          << " threads";
    }
  }
}

// --- point regressors -------------------------------------------------------

/// 320 x 13: rows * cols = 4160 crosses the 4096 split-search gate, rows
/// cross the 256-row GBT gate; 260 fresh rows cross the 256-row predict gate.
constexpr std::size_t kTreeRows = 320;
constexpr std::size_t kTreeCols = 13;
constexpr std::size_t kFreshRows = 260;

class PointModelInvariance
    : public ::testing::TestWithParam<models::ModelKind> {};

TEST_P(PointModelInvariance, FitAndPredictBitsAreThreadCountInvariant) {
  // GP refits a kernel per grid cell — keep its training set smaller (the
  // 120^2 kernel still crosses the 4096 gate) so the battery stays fast.
  const bool gp = GetParam() == models::ModelKind::kGp;
  const Problem train =
      make_problem(gp ? 120 : kTreeRows, kTreeCols, /*seed=*/7);
  const Problem fresh = make_problem(kFreshRows, kTreeCols, /*seed=*/11);
  expect_invariant("point model", [&] {
    auto model = models::make_point_regressor(GetParam());
    model->fit(train.x, train.y);
    return bit_pattern(model->predict(fresh.x));
  });
}

std::string kind_suffix(models::ModelKind kind) {
  switch (kind) {
    case models::ModelKind::kLinear:
      return "Linear";
    case models::ModelKind::kGp:
      return "Gp";
    case models::ModelKind::kXgboost:
      return "Xgboost";
    case models::ModelKind::kCatboost:
      return "Catboost";
    case models::ModelKind::kMlp:
      return "Mlp";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PointModelInvariance,
                         ::testing::ValuesIn(models::point_model_zoo()),
                         [](const auto& param_info) {
                           return kind_suffix(param_info.param);
                         });

TEST(PointModelInvarianceExtra, ElasticNetIsThreadCountInvariant) {
  const Problem train = make_problem(kTreeRows, kTreeCols, 7);
  const Problem fresh = make_problem(kFreshRows, kTreeCols, 11);
  expect_invariant("elastic net", [&] {
    models::ElasticNetRegressor model;
    model.fit(train.x, train.y);
    return bit_pattern(model.predict(fresh.x));
  });
}

// --- interval methods -------------------------------------------------------

/// Bits of (lower, upper, q_hat_lower, q_hat_upper) — the conformal
/// calibration state must be invariant, not just the band it produces.
std::vector<std::uint64_t> interval_bits(const models::IntervalRegressor& m,
                                         const linalg::Matrix& x) {
  const auto band = m.predict_interval(x);
  std::vector<std::uint64_t> bits = bit_pattern(band.lower);
  const auto upper = bit_pattern(band.upper);
  bits.insert(bits.end(), upper.begin(), upper.end());
  if (const auto* cqr =
          dynamic_cast<const conformal::ConformalizedQuantileRegressor*>(&m)) {
    bits.push_back(std::bit_cast<std::uint64_t>(cqr->q_hat_lower()));
    bits.push_back(std::bit_cast<std::uint64_t>(cqr->q_hat_upper()));
  }
  return bits;
}

using IntervalFactory =
    std::function<std::unique_ptr<models::IntervalRegressor>()>;

struct IntervalCase {
  std::string name;
  IntervalFactory make;
};

std::vector<IntervalCase> interval_cases() {
  const core::MiscoverageAlpha alpha{0.1};
  std::vector<IntervalCase> cases;
  cases.push_back({"CqrSymmetric", [alpha] {
    conformal::CqrConfig config;
    config.mode = conformal::CqrMode::kSymmetric;
    return std::make_unique<conformal::ConformalizedQuantileRegressor>(
        alpha, models::make_quantile_pair(models::ModelKind::kLinear, alpha),
        config);
  }});
  cases.push_back({"CqrAsymmetric", [alpha] {
    conformal::CqrConfig config;
    config.mode = conformal::CqrMode::kAsymmetric;
    return std::make_unique<conformal::ConformalizedQuantileRegressor>(
        alpha, models::make_quantile_pair(models::ModelKind::kXgboost, alpha),
        config);
  }});
  cases.push_back({"SplitCp", [alpha] {
    return std::make_unique<conformal::SplitConformalRegressor>(
        alpha, models::make_point_regressor(models::ModelKind::kXgboost));
  }});
  cases.push_back({"NormalizedCp", [alpha] {
    return std::make_unique<conformal::NormalizedConformalRegressor>(
        alpha, models::make_point_regressor(models::ModelKind::kLinear),
        models::make_point_regressor(models::ModelKind::kLinear));
  }});
  cases.push_back({"CvPlus", [alpha] {
    return std::make_unique<conformal::CvPlusRegressor>(
        alpha, models::make_point_regressor(models::ModelKind::kXgboost));
  }});
  return cases;
}

class IntervalMethodInvariance
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IntervalMethodInvariance, BandAndCalibrationBitsAreInvariant) {
  const IntervalCase test_case = interval_cases()[GetParam()];
  const Problem train = make_problem(kTreeRows, kTreeCols, 7);
  const Problem fresh = make_problem(kFreshRows, kTreeCols, 11);
  expect_invariant(test_case.name, [&] {
    auto model = test_case.make();
    model->fit(train.x, train.y);
    return interval_bits(*model, fresh.x);
  });
}

INSTANTIATE_TEST_SUITE_P(AllMethods, IntervalMethodInvariance,
                         ::testing::Range<std::size_t>(0, 5),
                         [](const auto& param_info) {
                           return interval_cases()[param_info.param].name;
                         });

// --- serialized artifacts ---------------------------------------------------

artifact::VminBundle fitted_bundle(models::ModelKind kind) {
  silicon::GeneratorConfig gen_config;
  gen_config.n_chips = 40;
  gen_config.seed = 123;
  const auto generated = silicon::generate_dataset(gen_config);
  const core::Scenario scenario{48.0, 25.0, core::FeatureSet::kBoth};
  const auto data = core::assemble_scenario(generated.dataset, scenario);
  core::PipelineConfig config;
  auto screen = core::fit_screen(data, kind, config, 4);
  return core::make_screen_bundle(scenario, data, std::move(screen));
}

class ArtifactInvariance
    : public ::testing::TestWithParam<models::ModelKind> {};

TEST_P(ArtifactInvariance, EncodedBundleBytesAreThreadCountInvariant) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(kWidths[0]);
  const std::vector<std::uint8_t> reference =
      artifact::encode_bundle(fitted_bundle(GetParam()));
  ASSERT_FALSE(reference.empty());
  for (std::size_t w = 1; w < kWidths.size(); ++w) {
    parallel::set_max_threads(kWidths[w]);
    const std::vector<std::uint8_t> got =
        artifact::encode_bundle(fitted_bundle(GetParam()));
    // Byte-for-byte: any fit-state drift anywhere in the pipeline lands here.
    ASSERT_EQ(got, reference)
        << "artifact bytes differ at " << kWidths[w] << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(ScreenModels, ArtifactInvariance,
                         ::testing::Values(models::ModelKind::kLinear,
                                           models::ModelKind::kXgboost),
                         [](const auto& param_info) {
                           return kind_suffix(param_info.param);
                         });

// --- pinned refit grid --------------------------------------------------------

/// FNV-1a (64-bit) of a byte string: a compact, portable fingerprint of an
/// encoded artifact.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Digests of the 18 paper-grid CQR-GBT artifacts (read points outer,
/// temperatures inner). Captured once; any change to the bit-exact fit —
/// split search, boosting, calibration, encoding — moves at least one.
constexpr std::array<std::uint64_t, 18> kPaperGridDigests = {
    0xdfa4e3170a31d982ULL, 0x1f64db9f7c377be8ULL, 0x48f56618a4ec5d13ULL,
    0x8e7cee81a19517f7ULL, 0x6b519b238f4a4ac0ULL, 0x51c1bd93edd3267dULL,
    0x1ad6e95517afb873ULL, 0x9f9cfe642c38356eULL, 0xa1367af7e4ef980aULL,
    0x44a46dec74717305ULL, 0x67b98bc313903addULL, 0xc74626e4ecb0cd12ULL,
    0x7d00ff41f8857bfaULL, 0x8f88328777bcb639ULL, 0xb06ba9ea18038a89ULL,
    0x6854b0aae351d8d2ULL, 0x4692dca6341aff79ULL, 0xfd8af069ea0103e2ULL,
};

/// Fits and encodes every paper-grid scenario the way a re-characterization
/// does: the default-seed paper population, fit_screen with CQR-GBT under
/// the default PipelineConfig, make_screen_bundle, encode_bundle.
std::vector<std::uint64_t> paper_grid_digests() {
  const auto generated = silicon::generate_dataset(silicon::GeneratorConfig{});
  const core::PipelineConfig config;
  std::vector<std::uint64_t> digests;
  for (const double hours : silicon::standard_read_points()) {
    for (const double celsius : silicon::standard_temperatures()) {
      const core::Scenario scenario{hours, celsius, core::FeatureSet::kBoth};
      const auto data = core::assemble_scenario(generated.dataset, scenario);
      auto screen = core::fit_screen(data, models::ModelKind::kXgboost, config,
                                     config.tree_prefilter);
      digests.push_back(fnv1a(artifact::encode_bundle(
          core::make_screen_bundle(scenario, data, std::move(screen)))));
    }
  }
  return digests;
}

void expect_pinned_paper_grid(std::size_t width) {
  ThreadOverrideGuard guard;
  parallel::set_max_threads(width);
  const std::vector<std::uint64_t> got = paper_grid_digests();
  ASSERT_EQ(got.size(), kPaperGridDigests.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], kPaperGridDigests[i])
        << "scenario #" << i << " digest 0x" << std::hex << got[i];
  }
}

TEST(CqrRefitGrid, PaperGridArtifactDigestsArePinnedAtOneThread) {
  expect_pinned_paper_grid(1);
}

/// Width 0 restores the env/hardware resolution: the full pool, where the
/// quantile pair and the split searches run concurrently.
TEST(CqrRefitGrid, PaperGridArtifactDigestsArePinnedAtFullWidth) {
  expect_pinned_paper_grid(0);
}

// --- pinned direct fits -------------------------------------------------------

/// FNV-1a (64-bit) over f64 bit patterns, little-endian byte by byte.
std::uint64_t bits_digest(const std::vector<std::uint64_t>& words) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint64_t word : words) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

/// Asserts `compute` hashes to `pinned` at width 1 and at the full pool
/// (width 0). The constants pin the direct fits that call the dense kernels
/// and the split searches outside fit_screen, which CqrRefitGrid never
/// reaches; any change to their numeric path moves a digest.
void expect_pinned_digest(
    std::uint64_t pinned,
    const std::function<std::vector<std::uint64_t>()>& compute) {
  ThreadOverrideGuard guard;
  for (const std::size_t width : {std::size_t{1}, std::size_t{0}}) {
    parallel::set_max_threads(width);
    const std::uint64_t got = bits_digest(compute());
    EXPECT_EQ(got, pinned) << "width " << width << ": digest 0x" << std::hex
                           << got;
  }
}

TEST(ParallelExactFits, SquaredLossGbtFitIsPinned) {
  const Problem train = make_problem(kTreeRows, kTreeCols, 7);
  const Problem fresh = make_problem(kFreshRows, kTreeCols, 11);
  expect_pinned_digest(0xcf556e992d1cae08ULL, [&] {
    models::GradientBoostedTrees model;
    model.fit(train.x, train.y);
    return bit_pattern(model.predict(fresh.x));
  });
}

TEST(ParallelExactFits, OrderedBoostFitIsPinned) {
  const Problem train = make_problem(kTreeRows, kTreeCols, 7);
  const Problem fresh = make_problem(kFreshRows, kTreeCols, 11);
  expect_pinned_digest(0xdd094a6571d30c74ULL, [&] {
    models::OrderedBoostedTrees model;
    model.fit(train.x, train.y);
    return bit_pattern(model.predict(fresh.x));
  });
}

/// 120 training rows: the 120^2 kernel crosses the 4096 pool gate.
TEST(ParallelExactFits, GpPosteriorMeanAndVarianceArePinned) {
  const Problem train = make_problem(120, kTreeCols, 7);
  const Problem fresh = make_problem(kFreshRows, kTreeCols, 11);
  expect_pinned_digest(0x63223f94779c7be5ULL, [&] {
    models::GaussianProcessRegressor model;
    model.fit(train.x, train.y);
    const models::GpPosterior posterior = model.posterior(fresh.x);
    std::vector<std::uint64_t> bits = bit_pattern(posterior.mean);
    const auto variance = bit_pattern(posterior.variance);
    bits.insert(bits.end(), variance.begin(), variance.end());
    return bits;
  });
}

TEST(ParallelExactFits, MlpFitAndPredictArePinned) {
  const Problem train = make_problem(kTreeRows, kTreeCols, 7);
  const Problem fresh = make_problem(kFreshRows, kTreeCols, 11);
  models::MlpConfig config;
  config.epochs = 300;  // the pin needs the kernels, not convergence
  expect_pinned_digest(0x215b59b94d23ca51ULL, [&] {
    models::MlpRegressor model(config);
    model.fit(train.x, train.y);
    return bit_pattern(model.predict(fresh.x));
  });
}

}  // namespace
