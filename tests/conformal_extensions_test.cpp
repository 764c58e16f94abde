// Tests for the conformal extensions: normalized (locally-weighted) CP and
// CV+ (cross-conformal).
#include <gtest/gtest.h>

#include <cmath>

#include "conformal/cv_plus.hpp"
#include "conformal/normalized.hpp"
#include "models/factory.hpp"
#include "rng/rng.hpp"
#include "stats/metrics.hpp"

namespace vmincqr::conformal {
namespace {

using models::ModelKind;

struct Problem {
  models::Matrix x;
  models::Vector y;
};

// Two regimes split on x0: the x0 > 0 group is 5x noisier.
Problem make_grouped(std::size_t n, std::uint64_t seed) {
  rng::Rng rng(seed);
  Problem p{models::Matrix(n, 2), models::Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    p.x(i, 0) = rng.uniform(-1.0, 1.0);
    p.x(i, 1) = rng.normal();
    const double sd = p.x(i, 0) > 0.0 ? 0.5 : 0.1;
    p.y[i] = p.x(i, 1) + rng.normal(0.0, sd);
  }
  return p;
}

TEST(NormalizedCp, WidthsAdaptToDifficulty) {
  const auto p = make_grouped(800, 4);
  NormalizedConformalRegressor ncp(
      core::MiscoverageAlpha{0.1}, models::make_point_regressor(ModelKind::kLinear),
      models::make_point_regressor(ModelKind::kCatboost));
  ncp.fit(p.x, p.y);
  models::Matrix quiet(1, 2), noisy(1, 2);
  quiet(0, 0) = -0.8;
  quiet(0, 1) = 0.0;
  noisy(0, 0) = 0.8;
  noisy(0, 1) = 0.0;
  const auto bq = ncp.predict_interval(quiet);
  const auto bn = ncp.predict_interval(noisy);
  EXPECT_GT(bn.upper[0] - bn.lower[0], bq.upper[0] - bq.lower[0]);
}

TEST(NormalizedCp, CoversOnAverage) {
  double cov = 0.0;
  const int n_trials = 8;
  for (int t = 0; t < n_trials; ++t) {
    const auto train = make_grouped(500, 50 + static_cast<std::uint64_t>(t));
    const auto test = make_grouped(500, 300 + static_cast<std::uint64_t>(t));
    NormalizedConfig config;
    config.split.seed = static_cast<std::uint64_t>(t);
    NormalizedConformalRegressor ncp(
        core::MiscoverageAlpha{0.1}, models::make_point_regressor(ModelKind::kLinear),
        models::make_point_regressor(ModelKind::kCatboost), config);
    ncp.fit(train.x, train.y);
    const auto band = ncp.predict_interval(test.x);
    cov += stats::interval_coverage(test.y, band.lower, band.upper);
  }
  EXPECT_GE(cov / n_trials, 0.87);
}

TEST(NormalizedCp, Validation) {
  EXPECT_THROW(NormalizedConformalRegressor(
                   core::MiscoverageAlpha{0.1}, nullptr, models::make_point_regressor(ModelKind::kLinear)),
               std::invalid_argument);
  NormalizedConformalRegressor ncp(
      core::MiscoverageAlpha{0.1}, models::make_point_regressor(ModelKind::kLinear),
      models::make_point_regressor(ModelKind::kLinear));
  EXPECT_THROW(ncp.predict_interval(models::Matrix(1, 2)), std::logic_error);
}

TEST(CvPlus, CoversOnAverage) {
  double cov = 0.0;
  const int n_trials = 8;
  for (int t = 0; t < n_trials; ++t) {
    const auto train = make_grouped(200, 70 + static_cast<std::uint64_t>(t));
    const auto test = make_grouped(400, 500 + static_cast<std::uint64_t>(t));
    CvPlusConfig config;
    config.seed = static_cast<std::uint64_t>(t);
    CvPlusRegressor cvp(core::MiscoverageAlpha{0.1}, models::make_point_regressor(ModelKind::kLinear),
                        config);
    cvp.fit(train.x, train.y);
    const auto band = cvp.predict_interval(test.x);
    cov += stats::interval_coverage(test.y, band.lower, band.upper);
  }
  EXPECT_GE(cov / n_trials, 0.87);
}

TEST(CvPlus, UsesAllTrainingResiduals) {
  const auto p = make_grouped(100, 6);
  CvPlusRegressor cvp(core::MiscoverageAlpha{0.1}, models::make_point_regressor(ModelKind::kLinear));
  cvp.fit(p.x, p.y);
  const auto band = cvp.predict_interval(p.x.take_rows({0, 1}));
  EXPECT_EQ(band.lower.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) EXPECT_LE(band.lower[i], band.upper[i]);
}

TEST(CvPlus, Validation) {
  EXPECT_THROW(CvPlusRegressor(core::MiscoverageAlpha{0.1}, nullptr), std::invalid_argument);
  CvPlusConfig bad;
  bad.n_folds = 1;
  EXPECT_THROW(CvPlusRegressor(core::MiscoverageAlpha{0.1},
                               models::make_point_regressor(ModelKind::kLinear),
                               bad),
               std::invalid_argument);
  CvPlusRegressor cvp(core::MiscoverageAlpha{0.1}, models::make_point_regressor(ModelKind::kLinear));
  EXPECT_THROW(cvp.predict_interval(models::Matrix(1, 2)), std::logic_error);
}

}  // namespace
}  // namespace vmincqr::conformal
