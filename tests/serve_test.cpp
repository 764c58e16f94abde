// Serve-layer tests: VminPredictor must reproduce fit-time intervals from a
// reloaded artifact alone, be invariant to batching, and reject malformed
// inputs at the tester.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "artifact/bundle.hpp"
#include "conformal/cqr.hpp"
#include "core/pipeline.hpp"
#include "data/scaler.hpp"
#include "models/factory.hpp"
#include "models/interval.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/vmin_predictor.hpp"
#include "silicon/dataset_gen.hpp"

using namespace vmincqr;

namespace {

struct Fitted {
  core::ScenarioData data;
  linalg::Matrix reference_design;  ///< bundle dataset columns, fit order
  linalg::Vector reference_lower;
  linalg::Vector reference_upper;
  std::vector<std::uint8_t> bytes;
};

/// Fits a CQR screen on the characterization population, records its
/// in-memory predictions, and encodes the bundle — the serve tests then work
/// from the bytes alone.
Fitted fit_and_encode() {
  silicon::GeneratorConfig gen_config;
  gen_config.n_chips = 48;
  gen_config.seed = 321;
  const auto generated = silicon::generate_dataset(gen_config);
  const core::Scenario scenario{48.0, 25.0, core::FeatureSet::kBoth};
  auto data = core::assemble_scenario(generated.dataset, scenario);
  core::PipelineConfig config;
  auto screen =
      core::fit_screen(data, models::ModelKind::kLinear, config, 6);

  const linalg::Matrix design = data.x;
  const auto band =
      screen.predictor->predict_interval(design.take_cols(screen.selected));
  auto bundle = core::make_screen_bundle(scenario, data, std::move(screen));
  auto bytes = artifact::encode_bundle(bundle);
  return {std::move(data), design, band.lower, band.upper, std::move(bytes)};
}

const Fitted& fixture() {
  static const Fitted fitted = fit_and_encode();
  return fitted;
}

/// Restores env/hardware thread resolution when a test overrides it.
struct ThreadOverrideGuard {
  ~ThreadOverrideGuard() { parallel::set_max_threads(0); }
};

/// A lot of `n` chips over the fixture's dataset columns: its rows tiled,
/// each tile shifted by a distinct exact offset so no two rows repeat.
linalg::Matrix lot_rows(std::size_t n) {
  const linalg::Matrix& base = fixture().reference_design;
  linalg::Matrix x(n, base.cols());
  for (std::size_t r = 0; r < n; ++r) {
    const double shift = 0.001953125 * static_cast<double>(r / base.rows());
    for (std::size_t c = 0; c < base.cols(); ++c) {
      x(r, c) = base(r % base.rows(), c) + shift;
    }
  }
  return x;
}

void expect_bits_equal(const std::vector<serve::IntervalPrediction>& served,
                       const models::IntervalPrediction& expected) {
  ASSERT_EQ(served.size(), expected.lower.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].lower, expected.lower[i]) << "chip " << i;
    EXPECT_EQ(served[i].upper, expected.upper[i]) << "chip " << i;
  }
}

TEST(ServePredictor, ReproducesFitTimeIntervalsBitExact) {
  const Fitted& f = fixture();
  const auto predictor = serve::VminPredictor::from_bytes(f.bytes);
  const auto served = predictor.predict_batch(f.reference_design);
  ASSERT_EQ(served.size(), f.reference_design.rows());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].lower, f.reference_lower[i]) << "chip " << i;
    EXPECT_EQ(served[i].upper, f.reference_upper[i]) << "chip " << i;
  }
}

TEST(ServePredictor, BatchingIsInvariant) {
  const Fitted& f = fixture();
  const auto predictor = serve::VminPredictor::from_bytes(f.bytes);
  const auto full = predictor.predict_batch(f.reference_design);
  // Serving chips one at a time must agree with the full batch exactly.
  for (std::size_t i = 0; i < f.reference_design.rows(); i += 7) {
    const auto single = predictor.predict_batch(
        f.reference_design.take_rows({i}));
    ASSERT_EQ(single.size(), 1u);
    EXPECT_EQ(single[0].lower, full[i].lower) << "chip " << i;
    EXPECT_EQ(single[0].upper, full[i].upper) << "chip " << i;
  }
}

TEST(ServePredictor, InfoReportsBundleMetadata) {
  const Fitted& f = fixture();
  const auto predictor = serve::VminPredictor::from_bytes(f.bytes);
  const auto info = predictor.info();
  EXPECT_EQ(info.format_version, artifact::kFormatVersion);
  EXPECT_EQ(info.label, "CQR Linear Regression");
  EXPECT_EQ(info.miscoverage, 0.1);
  EXPECT_EQ(info.scenario.read_point_hours, 48.0);
  EXPECT_EQ(info.scenario.temperature_c, 25.0);
  EXPECT_EQ(info.n_dataset_columns, f.data.columns.size());
  EXPECT_EQ(info.n_selected_features, 6u);
  EXPECT_EQ(predictor.expected_features(), f.data.columns.size());
}

TEST(ServePredictor, RejectsColumnCountMismatch) {
  const Fitted& f = fixture();
  const auto predictor = serve::VminPredictor::from_bytes(f.bytes);
  const linalg::Matrix narrow(3, predictor.expected_features() - 1);
  EXPECT_THROW((void)predictor.predict_batch(narrow), std::invalid_argument);
}

TEST(ServePredictor, RejectsEmptyBatch) {
  const Fitted& f = fixture();
  const auto predictor = serve::VminPredictor::from_bytes(f.bytes);
  const linalg::Matrix empty(0, predictor.expected_features());
  EXPECT_THROW((void)predictor.predict_batch(empty), std::invalid_argument);
}

TEST(ServePredictor, RejectsBundleWithoutPredictor) {
  artifact::VminBundle bundle;
  bundle.dataset_columns = {0, 1};
  bundle.selected_features = {0};
  EXPECT_THROW(serve::VminPredictor predictor(std::move(bundle)),
               std::invalid_argument);
}

TEST(ServePredictor, RejectsOutOfRangeSelection) {
  const core::MiscoverageAlpha level{0.1};
  auto cqr = std::make_unique<conformal::ConformalizedQuantileRegressor>(
      level, models::make_quantile_pair(models::ModelKind::kLinear, level));
  artifact::VminBundle bundle;
  bundle.dataset_columns = {0, 1};
  bundle.selected_features = {5};  // out of range for two columns
  bundle.predictor = std::move(cqr);
  EXPECT_THROW(serve::VminPredictor predictor(std::move(bundle)),
               std::invalid_argument);
}

TEST(ServePredictor, AppliesSavedInputScaler) {
  const Fitted& f = fixture();
  // Graft a nontrivial scaler onto the decoded bundle, then verify the serve
  // path applies exactly the same transform as a StandardScaler restored from
  // the same params: scaled.predict(x) == unscaled.predict(transform(x)).
  // Every column gets its own mean and scale, so a gather that paired a
  // selected column with the wrong column's moments would show, and the lot
  // spans several shards.
  auto bundle = artifact::decode_bundle(f.bytes);
  const std::size_t width = bundle.dataset_columns.size();
  data::ScalerParams params;
  for (std::size_t c = 0; c < width; ++c) {
    params.means.push_back(0.25 + 0.125 * static_cast<double>(c));
    params.scales.push_back(1.5 + 0.0625 * static_cast<double>(c % 7));
  }
  bundle.has_input_scaler = true;
  bundle.input_scaler = params;
  const serve::VminPredictor scaled(std::move(bundle));

  data::StandardScaler reference_scaler;
  reference_scaler.import_params(params);
  const auto unscaled = serve::VminPredictor::from_bytes(f.bytes);
  const linalg::Matrix x = lot_rows(600);
  const auto expected = unscaled.predict_batch(reference_scaler.transform(x));
  const auto served = scaled.predict_batch(x);
  ASSERT_EQ(served.size(), expected.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].lower, expected[i].lower) << "chip " << i;
    EXPECT_EQ(served[i].upper, expected[i].upper) << "chip " << i;
  }
}

TEST(ServePredictor, RejectsMalformedInputScalerAtLoad) {
  const Fitted& f = fixture();
  const std::size_t width =
      artifact::decode_bundle(f.bytes).dataset_columns.size();
  const auto with_scaler = [&f](data::ScalerParams params) {
    auto bundle = artifact::decode_bundle(f.bytes);
    bundle.has_input_scaler = true;
    bundle.input_scaler = std::move(params);
    return bundle;
  };
  data::ScalerParams good;
  good.means.assign(width, 0.5);
  good.scales.assign(width, 2.0);
  EXPECT_NO_THROW(serve::VminPredictor accepted(with_scaler(good)));

  // The whole scaler is checked, not just the selected columns.
  std::vector<std::pair<const char*, data::ScalerParams>> bad;
  bad.emplace_back("zero scale", good);
  bad.back().second.scales[width / 2] = 0.0;
  bad.emplace_back("negative scale", good);
  bad.back().second.scales[0] = -1.5;
  bad.emplace_back("NaN scale", good);
  bad.back().second.scales[width - 1] =
      std::numeric_limits<double>::quiet_NaN();
  bad.emplace_back("infinite scale", good);
  bad.back().second.scales[1] = std::numeric_limits<double>::infinity();
  bad.emplace_back("NaN mean", good);
  bad.back().second.means[2] = std::numeric_limits<double>::quiet_NaN();
  bad.emplace_back("short scales", good);
  bad.back().second.scales.pop_back();
  bad.emplace_back("short means and scales", good);
  bad.back().second.means.pop_back();
  bad.back().second.scales.pop_back();
  for (const auto& [what, params] : bad) {
    EXPECT_THROW(serve::VminPredictor rejected(with_scaler(params)),
                 std::invalid_argument)
        << what;
    // The codec carries the scaler verbatim; loading the bytes must fail.
    const auto bytes = artifact::encode_bundle(with_scaler(params));
    EXPECT_THROW((void)serve::VminPredictor::from_bytes(bytes),
                 std::invalid_argument)
        << what;
  }
}

TEST(ServePredictor, ServesRaggedMultiShardBatchThroughPermutedSubset) {
  const Fitted& f = fixture();
  auto bundle = artifact::decode_bundle(f.bytes);
  const std::size_t width = bundle.dataset_columns.size();
  // Mirror the dataset columns and the selection with them: the model still
  // sees its own features, but through a strict subset of the columns in
  // non-sorted order.
  std::vector<std::size_t> selected;
  for (const std::size_t s : bundle.selected_features) {
    selected.push_back(width - 1 - s);
  }
  ASSERT_LT(selected.size(), width);
  ASSERT_FALSE(std::is_sorted(selected.begin(), selected.end()));
  bundle.selected_features = selected;
  const serve::VminPredictor predictor(std::move(bundle));

  // 1,000 rows: three full 256-row shards and a ragged 232-row one.
  const linalg::Matrix lot = lot_rows(1000);
  linalg::Matrix x(lot.rows(), width);
  for (std::size_t r = 0; r < lot.rows(); ++r) {
    for (std::size_t c = 0; c < width; ++c) x(r, c) = lot(r, width - 1 - c);
  }
  const auto expected =
      predictor.bundle().predictor->predict_interval(x.take_cols(selected));

  const ThreadOverrideGuard guard;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
    SCOPED_TRACE(threads == 1 ? "one thread" : "full width");
    parallel::set_max_threads(threads);
    expect_bits_equal(predictor.predict_batch(x), expected);
  }
}

TEST(ServePredictor, IdentityBundleServesCallerBatchBitExact) {
  const Fitted& f = fixture();
  // A bundle whose dataset columns are exactly the model's features: every
  // column selected in order, no scaler.
  auto bundle = artifact::decode_bundle(f.bytes);
  const std::vector<std::size_t> fit_selection = bundle.selected_features;
  std::vector<std::size_t> columns;
  std::vector<std::size_t> all;
  for (std::size_t j = 0; j < fit_selection.size(); ++j) {
    columns.push_back(bundle.dataset_columns[fit_selection[j]]);
    all.push_back(j);
  }
  bundle.dataset_columns = columns;
  bundle.selected_features = all;
  ASSERT_FALSE(bundle.has_input_scaler);
  const serve::VminPredictor predictor(std::move(bundle));

  const linalg::Matrix x = lot_rows(600).take_cols(fit_selection);
  expect_bits_equal(predictor.predict_batch(x),
                    predictor.bundle().predictor->predict_interval(x));
}

TEST(ServePredictor, LoadFileMatchesFromBytes) {
  const Fitted& f = fixture();
  const std::string path = ::testing::TempDir() + "/serve_roundtrip.vqa";
  artifact::save_artifact(artifact::decode_bundle(f.bytes), path);
  const auto from_file = serve::VminPredictor::load_file(path);
  const auto from_bytes = serve::VminPredictor::from_bytes(f.bytes);
  const auto a = from_file.predict_batch(f.reference_design);
  const auto b = from_bytes.predict_batch(f.reference_design);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lower, b[i].lower);
    EXPECT_EQ(a[i].upper, b[i].upper);
  }
}

TEST(ServePredictor, LoadFileRejectsMissingPath) {
  EXPECT_THROW((void)serve::VminPredictor::load_file(
                   ::testing::TempDir() + "/does_not_exist.vqa"),
               artifact::ArtifactError);
}

}  // namespace
