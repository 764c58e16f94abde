#include "data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace vmincqr::data {

namespace {
bool key_match(double a, double b) {
  // Read points and temperatures are catalogue values (0, 24, ..., -45, 25,
  // 125); exact comparison with a tiny tolerance guards accumulated
  // arithmetic on the caller side.
  return std::abs(a - b) < 1e-9;
}
}  // namespace

std::string to_string(FeatureType t) {
  switch (t) {
    case FeatureType::kParametric:
      return "parametric";
    case FeatureType::kRodMonitor:
      return "rod";
    case FeatureType::kCpdMonitor:
      return "cpd";
  }
  return "unknown";
}

// Sink parameter: `features` is moved into the member below.
Dataset::Dataset(Matrix features, std::vector<FeatureInfo> feature_info,
                 std::vector<LabelSeries> labels)
    : features_(std::move(features)),
      feature_info_(std::move(feature_info)),
      labels_(std::move(labels)) {
  if (feature_info_.size() != features_.cols()) {
    throw std::invalid_argument(
        "Dataset: feature_info size does not match feature columns");
  }
  for (const auto& series : labels_) {
    if (series.values.size() != features_.rows()) {
      throw std::invalid_argument(
          "Dataset: label series length does not match chip count");
    }
  }
}

const LabelSeries& Dataset::label(double read_point_hours,
                                  double temperature_c) const {
  for (const auto& series : labels_) {
    if (key_match(series.read_point_hours, read_point_hours) &&
        key_match(series.temperature_c, temperature_c)) {
      return series;
    }
  }
  throw std::out_of_range("Dataset::label: no series at t=" +
                          std::to_string(read_point_hours) + "h, " +
                          std::to_string(temperature_c) + "C");
}

bool Dataset::has_label(double read_point_hours, double temperature_c) const {
  for (const auto& series : labels_) {
    if (key_match(series.read_point_hours, read_point_hours) &&
        key_match(series.temperature_c, temperature_c)) {
      return true;
    }
  }
  return false;
}

std::vector<double> Dataset::label_read_points() const {
  std::set<double> s;
  for (const auto& series : labels_) s.insert(series.read_point_hours);
  return {s.begin(), s.end()};
}

std::vector<double> Dataset::label_temperatures() const {
  std::set<double> s;
  for (const auto& series : labels_) s.insert(series.temperature_c);
  return {s.begin(), s.end()};
}

std::vector<std::size_t> Dataset::select_features(
    const std::function<bool(const FeatureInfo&)>& pred) const {
  std::vector<std::size_t> out;
  out.reserve(feature_info_.size());
  for (std::size_t j = 0; j < feature_info_.size(); ++j) {
    if (pred(feature_info_[j])) out.push_back(j);
  }
  return out;
}

Dataset Dataset::take_chips(const std::vector<std::size_t>& chip_indices) const {
  Matrix f = features_.take_rows(chip_indices);
  std::vector<LabelSeries> labels = labels_;
  for (auto& series : labels) {
    Vector sub(chip_indices.size());
    for (std::size_t i = 0; i < chip_indices.size(); ++i) {
      if (chip_indices[i] >= series.values.size()) {
        throw std::out_of_range("Dataset::take_chips: index out of range");
      }
      sub[i] = series.values[chip_indices[i]];
    }
    series.values = std::move(sub);
  }
  return Dataset(std::move(f), feature_info_, std::move(labels));
}

Dataset Dataset::take_features(
    const std::vector<std::size_t>& feature_indices) const {
  Matrix f = features_.take_cols(feature_indices);
  std::vector<FeatureInfo> info;
  info.reserve(feature_indices.size());
  for (auto j : feature_indices) info.push_back(feature_info_.at(j));
  return Dataset(std::move(f), std::move(info), labels_);
}

}  // namespace vmincqr::data
