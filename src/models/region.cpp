#include "models/region.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/contracts.hpp"
#include "parallel/parallel_for.hpp"
#include "stats/distributions.hpp"

namespace vmincqr::models {

GpIntervalRegressor::GpIntervalRegressor(MiscoverageAlpha alpha,
                                         GpConfig config)
    : alpha_(alpha), config_(config), gp_(config) {}

void GpIntervalRegressor::fit(const Matrix& x, const Vector& y) {
  VMINCQR_REQUIRE(x.rows() > 0, "GpIntervalRegressor::fit: empty training set");
  VMINCQR_CHECK_SHAPE(x.rows() == y.size(),
                      "GpIntervalRegressor::fit: rows/labels mismatch");
  gp_.fit(x, y);
}

IntervalPrediction GpIntervalRegressor::predict_interval(
    const Matrix& x) const {
  const GpPosterior post = gp_.posterior(x);
  const double k_lo = stats::normal_quantile(alpha_.lower_tau());
  const double k_hi = stats::normal_quantile(alpha_.upper_tau());
  IntervalPrediction out;
  out.lower.resize(post.mean.size());
  out.upper.resize(post.mean.size());
  for (std::size_t i = 0; i < post.mean.size(); ++i) {
    const double sigma = std::sqrt(post.variance[i]);
    out.lower[i] = post.mean[i] + k_lo * sigma;
    out.upper[i] = post.mean[i] + k_hi * sigma;
  }
  VMINCQR_AUDIT(core::all_finite(out.lower) && core::all_finite(out.upper),
                "predict_interval: non-finite GP band");
  return out;
}

std::unique_ptr<IntervalRegressor> GpIntervalRegressor::clone_config() const {
  return std::make_unique<GpIntervalRegressor>(alpha_, config_);
}

QuantilePairRegressor::QuantilePairRegressor(MiscoverageAlpha alpha,
                                             std::unique_ptr<Regressor> lower,
                                             std::unique_ptr<Regressor> upper,
                                             std::string label)
    : alpha_(alpha),
      lower_(std::move(lower)),
      upper_(std::move(upper)),
      label_(std::move(label)) {
  VMINCQR_REQUIRE(lower_ && upper_, "QuantilePairRegressor: null prototype");
}

void QuantilePairRegressor::fit(const Matrix& x, const Vector& y) {
  VMINCQR_REQUIRE(x.rows() > 0,
                  "QuantilePairRegressor::fit: empty training set");
  VMINCQR_CHECK_SHAPE(x.rows() == y.size(),
                      "QuantilePairRegressor::fit: rows/labels mismatch");
  // The two quantile fits share nothing but (x, y), so they run as the two
  // chunks of one pool call. Parallel work inside each fit runs inline on
  // its lane, and the pool rethrows the lowest chunk's exception — the
  // lower fit's, as the sequential order would.
  parallel::parallel_for(2, /*grain=*/1, [&](std::size_t begin, std::size_t) {
    (begin == 0 ? lower_ : upper_)->fit(x, y);
  });
}

IntervalPrediction QuantilePairRegressor::predict_interval(
    const Matrix& x) const {
  IntervalPrediction out;
  out.lower = lower_->predict(x);
  out.upper = upper_->predict(x);
  VMINCQR_CHECK_SHAPE(out.lower.size() == out.upper.size(),
                      "predict_interval: lower/upper length mismatch");
  for (std::size_t i = 0; i < out.lower.size(); ++i) {
    if (out.lower[i] > out.upper[i]) std::swap(out.lower[i], out.upper[i]);
  }
  return out;
}

std::unique_ptr<IntervalRegressor> QuantilePairRegressor::clone_config() const {
  return std::make_unique<QuantilePairRegressor>(
      alpha_, lower_->clone_config(), upper_->clone_config(), label_);
}

}  // namespace vmincqr::models
