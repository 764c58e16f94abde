#include "serve/vmin_predictor.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/contracts.hpp"
#include "data/scaler.hpp"
#include "models/interval.hpp"
#include "parallel/parallel_for.hpp"

namespace vmincqr::serve {

namespace {

/// Batch size below which predict_batch stays single-shard: dispatching a
/// handful of rows costs more than predicting them.
constexpr std::size_t kMinParallelBatchRows = 16;

/// Rows per dispatch shard — matches models::kTraversalRowBlock so each
/// shard streams the flattened tree planes exactly once per 256 rows.
constexpr std::size_t kServeShardRows = 256;

}  // namespace

VminPredictor::VminPredictor(artifact::VminBundle bundle)
    : bundle_(std::move(bundle)) {
  if (!bundle_.predictor) {
    throw std::invalid_argument("VminPredictor: bundle has no predictor");
  }
  for (const std::size_t selected : bundle_.selected_features) {
    if (selected >= bundle_.dataset_columns.size()) {
      throw std::invalid_argument(
          "VminPredictor: selected feature index out of range");
    }
  }
  if (!bundle_.has_input_scaler) return;
  // Gather plan: the scaler moments of each selected column, in selection
  // order, so predict_batch scales only the columns it reads. A bad scaler
  // is rejected here, at load, rather than inside every predict_batch.
  const data::ScalerParams& scaler = bundle_.input_scaler;
  const std::size_t width = bundle_.dataset_columns.size();
  if (scaler.means.size() != width || scaler.scales.size() != width) {
    throw std::invalid_argument(
        "VminPredictor: input scaler width does not match dataset columns");
  }
  for (std::size_t c = 0; c < width; ++c) {
    if (!std::isfinite(scaler.means[c]) || !(scaler.scales[c] > 0.0) ||
        !std::isfinite(scaler.scales[c])) {
      throw std::invalid_argument("VminPredictor: input scaler column " +
                                  std::to_string(c) +
                                  " has a non-finite mean or a scale that "
                                  "is not positive and finite");
    }
  }
  gather_means_.reserve(bundle_.selected_features.size());
  gather_scales_.reserve(bundle_.selected_features.size());
  for (const std::size_t selected : bundle_.selected_features) {
    gather_means_.push_back(scaler.means[selected]);
    gather_scales_.push_back(scaler.scales[selected]);
  }
}

VminPredictor VminPredictor::load_file(const std::string& path) {
  return VminPredictor(artifact::load_artifact(path));
}

VminPredictor VminPredictor::from_bytes(
    const std::vector<std::uint8_t>& bytes) {
  return VminPredictor(artifact::decode_bundle(bytes));
}

// The per-shard gathered design is the sanctioned allocation: each shard
// reads only the selected columns of its own rows from the caller's batch
// and hands its model one contiguous rows x n_selected matrix
// (hotpath_tiers.toml).
// vmincqr: hot-path(allow-alloc)
std::vector<IntervalPrediction> VminPredictor::predict_batch(
    const Matrix& x) const {
  VMINCQR_REQUIRE(x.rows() > 0, "VminPredictor::predict_batch: empty batch");
  if (x.cols() != bundle_.dataset_columns.size()) {
    throw std::invalid_argument(
        "VminPredictor::predict_batch: batch has " + std::to_string(x.cols()) +
        " columns, artifact expects " +
        std::to_string(bundle_.dataset_columns.size()));
  }

  // Row-sharded inference: every supported interval method computes each
  // test row independently (conformal quantiles are additive constants
  // fixed at calibration time), so per-shard predict_interval calls
  // concatenate to exactly the whole-batch answer — at any thread count.
  // The shard grain matches the tree-traversal row block (256): smaller
  // shards would re-stream the flattened node planes once per shard, and
  // the grain is a pure function of the batch shape, never thread count.
  //
  // Each shard gathers its own design straight from the caller's batch:
  // only the selected columns are read, and only those are scaled. Scaling
  // is elementwise per column, so this is bit-identical to scaling the
  // whole batch and then selecting.
  const std::vector<std::size_t>& cols = bundle_.selected_features;
  const std::size_t n_sel = cols.size();
  const bool scaled = bundle_.has_input_scaler;
  std::vector<IntervalPrediction> out(x.rows());
  parallel::parallel_for(
      x.rows(), /*grain=*/kServeShardRows,
      [&](std::size_t begin, std::size_t end) {
        Matrix design(end - begin, n_sel);
        for (std::size_t i = begin; i < end; ++i) {
          const double* src = x.row_ptr(i);
          double* dst = design.row_ptr(i - begin);
          if (scaled) {
            for (std::size_t j = 0; j < n_sel; ++j) {
              dst[j] = (src[cols[j]] - gather_means_[j]) / gather_scales_[j];
            }
          } else {
            for (std::size_t j = 0; j < n_sel; ++j) dst[j] = src[cols[j]];
          }
        }
        const models::IntervalPrediction band =
            bundle_.predictor->predict_interval(design);
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = {band.lower[i - begin], band.upper[i - begin]};
        }
      },
      /*use_pool=*/x.rows() >= kMinParallelBatchRows);
  return out;
}

PredictorInfo VminPredictor::info() const {
  PredictorInfo info;
  info.label = bundle_.label;
  info.format_version = bundle_.format_version;
  info.miscoverage = bundle_.predictor->alpha().value();
  info.scenario = bundle_.scenario;
  info.n_dataset_columns = bundle_.dataset_columns.size();
  info.n_selected_features = bundle_.selected_features.size();
  return info;
}

}  // namespace vmincqr::serve
