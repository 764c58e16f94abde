#include "core/pipeline.hpp"

#include <stdexcept>
#include <utility>

#include "core/contracts.hpp"
#include "data/feature_select.hpp"
#include "data/split.hpp"
#include "rng/rng.hpp"

namespace vmincqr::core {

namespace {

Vector take(const Vector& v, const std::vector<std::size_t>& idx) {
  Vector out(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) out[i] = v[idx[i]];
  return out;
}

}  // namespace

ScenarioData assemble_scenario(const data::Dataset& ds,
                               const Scenario& scenario) {
  ScenarioData out;
  out.columns = scenario_feature_columns(ds, scenario);
  if (out.columns.empty()) {
    throw std::invalid_argument("assemble_scenario: no legal feature columns");
  }
  out.x = ds.features().take_cols(out.columns);
  out.y = scenario_labels(ds, scenario);
  return out;
}

std::vector<std::size_t> select_features_for_model(
    const Matrix& x_train, const Vector& y_train, models::ModelKind kind,
    const PipelineConfig& config, std::size_t n_features) {
  switch (kind) {
    case models::ModelKind::kLinear:
    case models::ModelKind::kGp:
    case models::ModelKind::kMlp:
      return data::cfs_select(x_train, y_train, n_features);
    case models::ModelKind::kXgboost:
    case models::ModelKind::kCatboost:
      return data::top_correlated(x_train, y_train, config.tree_prefilter);
  }
  throw std::invalid_argument("select_features_for_model: unknown kind");
}

std::vector<std::size_t> cfs_sweep_for_model(models::ModelKind kind,
                                             const PipelineConfig& config) {
  const std::size_t cap = config.cfs_max_features;
  auto clip = [cap](std::vector<std::size_t> v) {
    std::vector<std::size_t> out;
    out.reserve(v.size());
    for (auto k : v) {
      if (k <= cap) out.push_back(k);
    }
    if (out.empty()) out.push_back(cap);
    return out;
  };
  switch (kind) {
    case models::ModelKind::kLinear:
      return clip({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    case models::ModelKind::kGp:
      return clip({2, 4, 6, 8, 10});
    case models::ModelKind::kMlp:
      return clip({4, 8, 10});
    case models::ModelKind::kXgboost:
    case models::ModelKind::kCatboost:
      // Intrinsic selection; single configuration (the prefilter width).
      return {config.tree_prefilter};
  }
  throw std::invalid_argument("cfs_sweep_for_model: unknown kind");
}

FittedScreen fit_screen(const ScenarioData& data, models::ModelKind kind,
                        const PipelineConfig& config, std::size_t n_features,
                        conformal::CqrMode mode) {
  VMINCQR_REQUIRE(data.x.rows() >= 8,
                  "fit_screen: need at least 8 chips to split and calibrate");
  VMINCQR_CHECK_SHAPE(data.x.rows() == data.y.size(),
                      "fit_screen: design/label row mismatch");
  std::vector<std::size_t> indices(data.x.rows());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  rng::Rng split_rng(config.split.seed);
  const auto split = data::train_calibration_split(
      indices, config.split.train_fraction, split_rng);

  const Matrix x_proper = data.x.take_rows(split.train);
  const Vector y_proper = take(data.y, split.train);
  const Matrix x_calib = data.x.take_rows(split.calibration);
  const Vector y_calib = take(data.y, split.calibration);

  FittedScreen screen;
  // Feature selection sees the proper-training part only, so nothing about
  // the calibration chips leaks into the scores that set q_hat.
  screen.selected =
      select_features_for_model(x_proper, y_proper, kind, config, n_features);

  conformal::CqrConfig cqr_config;
  cqr_config.split = config.split;
  cqr_config.mode = mode;
  screen.predictor =
      std::make_unique<conformal::ConformalizedQuantileRegressor>(
          config.alpha, models::make_quantile_pair(kind, config.alpha),
          cqr_config);
  screen.predictor->fit_with_split(x_proper.take_cols(screen.selected),
                                   y_proper,
                                   x_calib.take_cols(screen.selected), y_calib);
  return screen;
}

artifact::VminBundle make_screen_bundle(const Scenario& scenario,
                                        const ScenarioData& data,
                                        FittedScreen screen) {
  if (!screen.predictor) {
    throw std::invalid_argument("make_screen_bundle: screen was never fitted");
  }
  artifact::VminBundle bundle;
  bundle.scenario.read_point_hours = scenario.read_point_hours;
  bundle.scenario.temperature_c = scenario.temperature_c;
  bundle.scenario.feature_set = static_cast<std::uint8_t>(scenario.feature_set);
  bundle.scenario.monitor_horizon_hours = scenario.monitor_horizon_hours;
  bundle.label = screen.predictor->name();
  bundle.dataset_columns = data.columns;
  bundle.selected_features = std::move(screen.selected);
  bundle.predictor = std::move(screen.predictor);
  return bundle;
}

}  // namespace vmincqr::core
