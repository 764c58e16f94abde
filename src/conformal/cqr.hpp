// Conformalized Quantile Regression (Romano, Patterson & Candes 2019) —
// the paper's method, Sec. III-C.
//
// Wraps ANY IntervalRegressor (normally the QuantilePairRegressor of
// Sec. II-B.2, but conformalizing a GP band also works in-process; only the
// quantile-pair form serializes to an artifact): the base interval
// model is fitted on the proper-training part, the CQR score of Eq. (9) is
// evaluated on the calibration part, and Eq. (10) shifts both bounds by the
// calibrated quantile q_hat. Because the score is signed, q_hat can be
// negative — CQR both widens under-covering bands and *shrinks* over-wide
// ones while keeping the Eq. (6) finite-sample guarantee.
#pragma once

#include <cstdint>
#include <memory>

#include "core/split_spec.hpp"
#include "core/units.hpp"
#include "models/interval.hpp"

namespace vmincqr::conformal {

using core::MiscoverageAlpha;
using models::IntervalPrediction;
using models::IntervalRegressor;
using models::Matrix;
using models::Vector;

/// Calibration mode.
///  * kSymmetric  — the paper's Eq. (9)-(10): one q_hat shifts both bounds.
///  * kAsymmetric — CQR-m (Romano et al. appendix; Sesia & Candes 2020):
///    lower and upper bounds calibrated separately at level alpha/2 each,
///    giving per-tail validity at the cost of typically wider bands.
enum class CqrMode : std::uint8_t { kSymmetric, kAsymmetric };

struct CqrConfig {
  /// Train/calibration split; PipelineConfig threads its own spec through
  /// here so the pipeline and the calibrator can never disagree.
  core::CalibrationSplit split;
  CqrMode mode = CqrMode::kSymmetric;
};

/// The calibrated state of a ConformalizedQuantileRegressor — everything
/// predict_interval() needs beyond the fitted base model. In symmetric mode
/// the two entries are equal.
struct CqrCalibration {
  double q_hat_lo = 0.0;
  double q_hat_hi = 0.0;
};

class ConformalizedQuantileRegressor final : public IntervalRegressor {
 public:
  /// Takes ownership of an unfitted interval-regressor prototype whose own
  /// alpha should match `alpha` (checked; throws std::invalid_argument on
  /// mismatch > 1e-9 or a null model).
  ConformalizedQuantileRegressor(MiscoverageAlpha alpha,
                                 std::unique_ptr<IntervalRegressor> base,
                                 CqrConfig config = {});

  /// Splits internally (75/25 by default), fits, and calibrates.
  void fit(const Matrix& x, const Vector& y) override;

  /// Explicit-split variant for callers that manage the split.
  void fit_with_split(const Matrix& x_train, const Vector& y_train,
                      const Matrix& x_calib, const Vector& y_calib);

  [[nodiscard]] IntervalPrediction predict_interval(const Matrix& x) const override;

  [[nodiscard]] std::unique_ptr<IntervalRegressor> clone_config() const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] MiscoverageAlpha alpha() const override { return alpha_; }

  /// Calibrated band adjustment (volts); negative means the raw QR band was
  /// conservative and has been tightened. In asymmetric mode this is the
  /// mean of the two per-tail adjustments.
  [[nodiscard]] double q_hat() const;
  /// Per-tail adjustments (equal in symmetric mode).
  [[nodiscard]] double q_hat_lower() const;
  [[nodiscard]] double q_hat_upper() const;

  [[nodiscard]] const IntervalRegressor& base() const { return *base_; }

  /// The configured calibration mode (symmetric Eq. 9-10 vs per-tail).
  [[nodiscard]] CqrMode mode() const noexcept { return config_.mode; }

  /// Copies out the calibrated offsets. Throws std::logic_error if not
  /// calibrated.
  [[nodiscard]] CqrCalibration export_calibration() const;

  /// Adopts previously exported offsets and marks the regressor calibrated.
  /// The base model must already be fitted (e.g. via its own import_params)
  /// for predict_interval to succeed. Throws std::invalid_argument on NaN.
  void import_calibration(CqrCalibration calibration);

 private:
  MiscoverageAlpha alpha_;
  std::unique_ptr<IntervalRegressor> base_;
  CqrConfig config_;
  double q_hat_lo_ = 0.0;
  double q_hat_hi_ = 0.0;
  bool calibrated_ = false;
};

}  // namespace vmincqr::conformal
