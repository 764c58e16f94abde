// Dataset abstraction for the Vmin prediction problem.
//
// A Dataset holds one row per chip, a typed feature catalogue (parametric
// test vs. on-chip monitor, measurement temperature, stress read point), and
// a label table of SCAN Vmin values indexed by (read point, temperature).
// This mirrors the structure of the industrial dataset in Sec. IV-A /
// Table II of the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace vmincqr::data {

using linalg::Matrix;
using linalg::Vector;

/// Feature provenance classes from Table II of the paper.
enum class FeatureType : std::uint8_t {
  kParametric,  ///< ATE parametric test (IDDQ, trip IDD, leakage, ...)
  kRodMonitor,  ///< on-chip Ring Oscillator Delay sensor
  kCpdMonitor,  ///< on-chip in-situ Critical Path Delay sensor
};

/// Returns a short human-readable tag ("parametric", "rod", "cpd").
std::string to_string(FeatureType t);

/// Metadata for one feature column.
struct FeatureInfo {
  std::string name;          ///< unique column name
  FeatureType type;          ///< provenance class
  double temperature_c = 0;  ///< measurement temperature (deg C)
  double read_point_hours = 0;  ///< stress read point the value was taken at
};

/// One Vmin label series: the SCAN Vmin of every chip measured at a given
/// stress read point and test temperature.
struct LabelSeries {
  double read_point_hours = 0;
  double temperature_c = 0;
  Vector values;  ///< one entry per chip (volts)
};

/// Immutable-after-construction table of chips x features plus label series.
class Dataset {
 public:
  Dataset() = default;

  /// Constructs a dataset; feature_info.size() must equal features.cols(),
  /// and every label series must have features.rows() entries.
  /// Throws std::invalid_argument otherwise.
  // Sink parameter: the matrix is moved into the member, so by-value is
  // the cheapest correct signature.
  Dataset(Matrix features, std::vector<FeatureInfo> feature_info,
          std::vector<LabelSeries> labels);

  [[nodiscard]] std::size_t n_chips() const noexcept { return features_.rows(); }
  [[nodiscard]] std::size_t n_features() const noexcept { return features_.cols(); }

  [[nodiscard]] const Matrix& features() const noexcept { return features_; }
  [[nodiscard]] const std::vector<FeatureInfo>& feature_info() const noexcept {
    return feature_info_;
  }
  [[nodiscard]] const FeatureInfo& feature_info(std::size_t j) const {
    return feature_info_.at(j);
  }
  [[nodiscard]] const std::vector<LabelSeries>& labels() const noexcept { return labels_; }

  /// Finds the label series for (read point, temperature); exact match on
  /// both keys. Throws std::out_of_range if absent.
  [[nodiscard]] const LabelSeries& label(double read_point_hours, double temperature_c) const;

  /// True if a label series exists for the key.
  [[nodiscard]] bool has_label(double read_point_hours, double temperature_c) const;

  /// Sorted unique read points present in the label table.
  [[nodiscard]] std::vector<double> label_read_points() const;
  /// Sorted unique temperatures present in the label table.
  [[nodiscard]] std::vector<double> label_temperatures() const;

  /// Indices of feature columns matching a predicate over FeatureInfo.
  std::vector<std::size_t> select_features(
      const std::function<bool(const FeatureInfo&)>& pred) const;

  /// New dataset containing only the listed chips (rows), all features and
  /// labels subset accordingly. Throws std::out_of_range on bad indices.
  [[nodiscard]] Dataset take_chips(const std::vector<std::size_t>& chip_indices) const;

  /// New dataset containing only the listed feature columns (labels kept).
  [[nodiscard]] Dataset take_features(const std::vector<std::size_t>& feature_indices) const;

 private:
  Matrix features_;
  std::vector<FeatureInfo> feature_info_;
  std::vector<LabelSeries> labels_;
};

}  // namespace vmincqr::data
