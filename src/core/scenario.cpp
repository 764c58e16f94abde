#include "core/scenario.hpp"

#include <stdexcept>

namespace vmincqr::core {

std::string to_string(FeatureSet set) {
  switch (set) {
    case FeatureSet::kParametricOnly:
      return "parametric";
    case FeatureSet::kOnChipOnly:
      return "on-chip";
    case FeatureSet::kBoth:
      return "on-chip+parametric";
  }
  return "unknown";
}

std::vector<std::size_t> scenario_feature_columns(const data::Dataset& ds,
                                                  const Scenario& scenario) {
  if (scenario.read_point_hours < 0.0) {
    throw std::invalid_argument(
        "scenario_feature_columns: negative read point");
  }
  const bool want_parametric =
      scenario.feature_set != FeatureSet::kOnChipOnly;
  const bool want_onchip =
      scenario.feature_set != FeatureSet::kParametricOnly;
  return ds.select_features([&](const data::FeatureInfo& info) {
    if (info.type == data::FeatureType::kParametric) {
      // Parametric tests exist at time 0 only (pre-shipment).
      // Read points are exact grid values (0, 1000, ... hours), so exact
      // comparison against the t=0 read point is well-defined.
      return want_parametric && info.read_point_hours == 0.0;
    }
    // Monitor data from all read points up to and including the horizon
    // (the label read point by default; earlier when forecasting).
    return want_onchip &&
           info.read_point_hours <= scenario.effective_horizon() + 1e-9;
  });
}

const linalg::Vector& scenario_labels(const data::Dataset& ds,
                                      const Scenario& scenario) {
  return ds.label(scenario.read_point_hours, scenario.temperature_c).values;
}

std::string describe(const Scenario& scenario) {
  std::string out =
      "t=" + std::to_string(static_cast<int>(scenario.read_point_hours)) +
      "h, T=" + std::to_string(static_cast<int>(scenario.temperature_c)) +
      "C, features=" + to_string(scenario.feature_set);
  if (scenario.monitor_horizon_hours >= 0.0) {
    out += ", monitors<=" +
           std::to_string(static_cast<int>(scenario.monitor_horizon_hours)) +
           "h";
  }
  return out;
}

}  // namespace vmincqr::core
