// Serve-time Vmin predictor — the consumer side of the fit/serve boundary.
//
// VminPredictor loads ONE artifact bundle (scenario -> columns -> optional
// scaler -> fitted base model -> conformal calibration) and serves batched
// interval predictions with zero training code: this layer is forbidden (and
// lint-enforced, see tools/vmincqr_lint/layers.toml) from including fit-time
// model internals or the orchestration layer. A serve build cannot train.
//
// Intended deployment shape (paper Sec. V): fit once per scenario on the
// characterization population, ship the .vqa artifact to the tester, screen
// every production chip with predict_batch.
#pragma once

#include <string>
#include <vector>

#include "artifact/bundle.hpp"
#include "linalg/matrix.hpp"

namespace vmincqr::serve {

using linalg::Matrix;

/// One chip's Vmin interval (volts).
struct IntervalPrediction {
  double lower = 0.0;
  double upper = 0.0;
};

/// Decoded-bundle metadata, for logs and sanity checks at the tester.
struct PredictorInfo {
  std::string label;
  std::uint32_t format_version = 0;
  double miscoverage = 0.0;  ///< target alpha; nominal coverage is 1 - this
  artifact::ScenarioSpec scenario;
  std::size_t n_dataset_columns = 0;
  std::size_t n_selected_features = 0;
};

class VminPredictor {
 public:
  /// Adopts a decoded bundle and builds its gather plan. Throws
  /// std::invalid_argument on a null predictor, out-of-range selected
  /// features, or an input scaler whose width differs from the dataset
  /// columns or that has a non-finite mean or a non-positive scale.
  explicit VminPredictor(artifact::VminBundle bundle);

  /// Loads a .vqa artifact file / raw VQAF bytes. Throws
  /// artifact::ArtifactError on I/O failure or malformed content.
  [[nodiscard]] static VminPredictor load_file(const std::string& path);
  [[nodiscard]] static VminPredictor from_bytes(
      const std::vector<std::uint8_t>& bytes);

  /// Screens a batch of chips: one row per chip, one column per bundle
  /// dataset column (see info().n_dataset_columns), in artifact order. The
  /// predictor applies the saved feature selection (and input scaler, if
  /// present) internally, so callers feed the full assembled design.
  /// Throws std::invalid_argument on a column-count mismatch or empty batch.
  [[nodiscard]] std::vector<IntervalPrediction> predict_batch(
      const Matrix& x) const;

  /// Feature width predict_batch expects (= number of dataset columns).
  [[nodiscard]] std::size_t expected_features() const noexcept {
    return bundle_.dataset_columns.size();
  }

  [[nodiscard]] PredictorInfo info() const;

  /// The underlying bundle (e.g. for debug_json).
  [[nodiscard]] const artifact::VminBundle& bundle() const noexcept {
    return bundle_;
  }

 private:
  artifact::VminBundle bundle_;
  /// Gather plan: the input scaler's mean and scale for each selected
  /// column, in selection order (empty when the bundle has no scaler).
  std::vector<double> gather_means_;
  std::vector<double> gather_scales_;
};

}  // namespace vmincqr::serve
