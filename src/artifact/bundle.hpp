// VminBundle: one serveable Vmin-screening artifact — everything a
// serve-time process needs to reproduce the fitted pipeline's interval
// predictions, and nothing it doesn't (no training data, no fit
// hyperparameters beyond those the forward pass reads).
//
// A bundle file (.vqa) is the VQAF chunk stream of codec.hpp:
//
//   META  scenario (read point, temperature, feature set, horizon) + label
//   COLS  dataset column ids + the fit-time selected feature subset
//   SCAL  optional serve-side input scaler (absent when models scale
//         internally, which all current models do)
//   PRED  exactly one nested predictor chunk (see model_codec.hpp)
//
// The scenario is stored as a plain POD (ScenarioSpec) rather than
// core::Scenario so artifacts stay decodable below the orchestration layer
// (see tools/vmincqr_lint/layers.toml: artifact must not include core_app).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "artifact/codec.hpp"
#include "data/scaler.hpp"
#include "models/interval.hpp"

namespace vmincqr::artifact {

/// Layer-neutral mirror of core::Scenario (field-for-field; core/pipeline
/// converts). `feature_set` is the core::FeatureSet enum value.
struct ScenarioSpec {
  double read_point_hours = 0.0;
  double temperature_c = 25.0;
  std::uint8_t feature_set = 2;  ///< core::FeatureSet::kBoth
  double monitor_horizon_hours = -1.0;
};

/// One saved screen: scenario + column bookkeeping + the fitted predictor.
struct VminBundle {
  std::uint32_t format_version = kFormatVersion;
  ScenarioSpec scenario;
  /// Human-readable predictor label, e.g. "CQR QR Linear Regression".
  std::string label;
  /// Dataset column index per scenario design column (provenance: which raw
  /// columns the serve-time feature matrix must be assembled from, in order).
  std::vector<std::size_t> dataset_columns;
  /// Fit-time feature selection: indices into `dataset_columns`.
  std::vector<std::size_t> selected_features;
  /// Optional serve-side pre-transform: one mean/scale per dataset column,
  /// applied to the selected columns before the model sees them. All current
  /// models standardize internally, so this is typically absent.
  bool has_input_scaler = false;
  data::ScalerParams input_scaler;
  /// The fitted, calibrated predictor (never null in a valid bundle).
  std::unique_ptr<models::IntervalRegressor> predictor;
};

/// Serializes a bundle to VQAF bytes. Throws std::invalid_argument on a null
/// predictor; std::logic_error if the predictor is unfitted/uncalibrated.
[[nodiscard]] std::vector<std::uint8_t> encode_bundle(const VminBundle& bundle);

/// Parses VQAF bytes back into a bundle (predictions bit-exact with the
/// saved predictor). Throws ArtifactError on malformed or truncated input.
[[nodiscard]] VminBundle decode_bundle(const std::vector<std::uint8_t>& bytes);

/// Writes/reads a bundle file (conventionally *.vqa). Throw ArtifactError on
/// I/O failure; load_artifact also on malformed content.
void save_artifact(const VminBundle& bundle, const std::string& path);
[[nodiscard]] VminBundle load_artifact(const std::string& path);

/// Debug-JSON rendering of a decoded bundle: scenario, columns, predictor
/// shape. Long index lists are elided with a count. Complements
/// chunk_tree_json (raw structure) with decoded values.
[[nodiscard]] std::string debug_json(const VminBundle& bundle);

}  // namespace vmincqr::artifact
