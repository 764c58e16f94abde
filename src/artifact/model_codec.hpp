// Chunk encoders/decoders for the one predictor a bundle ships: split CQR
// over a quantile-regression pair, as core::fit_screen fits it.
//
//   PRED  := CQRC(QPAR(point, point))
//   point := LINR | GBTR | OBST | MLPR
//
// A point chunk's tag doubles as its model's runtime type discriminator, so a
// decoded pair reconstructs the exact concrete models that were saved. The
// decode is straight-line — CQRC, then QPAR, then two point chunks — so its
// depth is three whatever the bytes say: any other tag in one of those slots
// (a bare QPAR, a nested CQRC) and any bytes left over in a payload are an
// ArtifactError. Decoded models carry only predict-path state (via each
// model's XxxParams import); they are serve-only objects — refitting one uses
// default hyperparameters.
#pragma once

#include <memory>

#include "artifact/codec.hpp"
#include "conformal/cqr.hpp"
#include "models/regressor.hpp"

namespace vmincqr::artifact {

/// Writes one point chunk holding the fitted state of a point regressor.
/// Throws ArtifactError for a concrete type the format cannot represent and
/// std::logic_error if the model is unfitted.
void encode_regressor(Writer& writer, const models::Regressor& model);

/// Reads one point chunk and reconstructs the concrete model. Throws
/// ArtifactError on any other chunk tag or a malformed payload.
[[nodiscard]] std::unique_ptr<models::Regressor> decode_regressor(
    Reader& reader);

/// Writes CQRC(QPAR(point, point)): the calibration, the quantile pair and
/// its two point models. Throws ArtifactError when the base model is not a
/// QuantilePairRegressor over encodable point models; std::logic_error if
/// a model is unfitted or the wrapper uncalibrated.
void encode_cqr(Writer& writer,
                const conformal::ConformalizedQuantileRegressor& model);

/// Reads one CQRC(QPAR(point, point)) chunk and reconstructs the calibrated
/// predictor, ready to serve predict_interval(). Throws ArtifactError on any
/// other shape or a malformed payload.
[[nodiscard]] std::unique_ptr<conformal::ConformalizedQuantileRegressor>
decode_cqr(Reader& reader);

}  // namespace vmincqr::artifact
