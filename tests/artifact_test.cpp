// Artifact layer tests: codec primitives, per-model save->load->predict
// bit-exactness, bundle round-trips, the checked-in golden fixture (format
// stability), and rejection of truncated / corrupted / wrong-version bytes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <utility>

#include "artifact/bundle.hpp"
#include "artifact/codec.hpp"
#include "artifact/model_codec.hpp"
#include "conformal/cqr.hpp"
#include "conformal/normalized.hpp"
#include "conformal/split_cp.hpp"
#include "core/pipeline.hpp"
#include "models/elastic_net.hpp"
#include "models/factory.hpp"
#include "models/gbt.hpp"
#include "models/linear.hpp"
#include "models/region.hpp"
#include "rng/rng.hpp"
#include "silicon/dataset_gen.hpp"

using namespace vmincqr;

namespace {

struct Problem {
  linalg::Matrix x;
  linalg::Vector y;
};

Problem make_problem(std::size_t n, std::size_t d, std::uint64_t seed = 7) {
  rng::Rng rng(seed);
  Problem p{linalg::Matrix(n, d), linalg::Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    double signal = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      p.x(i, c) = rng.normal();
      signal += (c % 3 == 0 ? 0.3 : 0.05) * p.x(i, c);
    }
    p.y[i] = 0.55 + 0.01 * signal + rng.normal(0.0, 0.003);
  }
  return p;
}

std::unique_ptr<models::Regressor> roundtrip_point(
    const models::Regressor& model) {
  artifact::Writer writer;
  artifact::encode_regressor(writer, model);
  const auto bytes = writer.finish();
  artifact::Reader reader = artifact::Reader::open(bytes);
  auto decoded = artifact::decode_regressor(reader);
  EXPECT_TRUE(reader.at_end());
  return decoded;
}

std::unique_ptr<models::IntervalRegressor> roundtrip_interval(
    const models::IntervalRegressor& model) {
  artifact::Writer writer;
  artifact::encode_interval_regressor(writer, model);
  const auto bytes = writer.finish();
  artifact::Reader reader = artifact::Reader::open(bytes);
  auto decoded = artifact::decode_interval_regressor(reader);
  EXPECT_TRUE(reader.at_end());
  return decoded;
}

void expect_bitexact(const linalg::Vector& a, const linalg::Vector& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // EXPECT_EQ on doubles: exact bit-for-bit agreement, not a tolerance.
    EXPECT_EQ(a[i], b[i]) << "row " << i;
  }
}

/// Recomputes the trailing CSUM seal of a v3 artifact after the test has
/// deliberately corrupted payload bytes — so the corruption reaches the
/// parser it targets instead of being caught by the checksum gate.
void reseal(std::vector<std::uint8_t>& bytes) {
  constexpr std::size_t kSealBytes = 4 + 8 + 4;  // kind + size + crc
  ASSERT_GE(bytes.size(), kSealBytes);
  const std::size_t protected_size = bytes.size() - kSealBytes;
  const std::uint32_t crc = artifact::crc32(bytes.data(), protected_size);
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + i] =
        static_cast<std::uint8_t>((crc >> (8 * i)) & 0xFFU);
  }
}

// --- codec primitives -------------------------------------------------------

TEST(ArtifactCodec, PrimitivesRoundTripBitExact) {
  artifact::Writer writer;
  writer.begin_chunk(artifact::ChunkKind::kMeta);
  writer.put_u8(0xAB);
  writer.put_u32(0xDEADBEEF);
  writer.put_u64(0x0123456789ABCDEFULL);
  writer.put_f64(-0.0);
  writer.put_f64(std::numeric_limits<double>::denorm_min());
  writer.put_f64(std::numeric_limits<double>::quiet_NaN());
  writer.put_str("Vmin \"screen\"");
  writer.put_vec({1.5, -2.25, 1e-300});
  writer.put_index_vec({0, 42, 1u << 20});
  linalg::Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  writer.put_matrix(m);
  writer.end_chunk();
  const auto bytes = writer.finish();

  artifact::Reader reader = artifact::Reader::open(bytes);
  artifact::Reader body = reader.expect_chunk(artifact::ChunkKind::kMeta);
  EXPECT_TRUE(reader.at_end());
  EXPECT_EQ(body.get_u8(), 0xAB);
  EXPECT_EQ(body.get_u32(), 0xDEADBEEFU);
  EXPECT_EQ(body.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(body.get_f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(body.get_f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(body.get_f64()),
            std::bit_cast<std::uint64_t>(
                std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(body.get_str(), "Vmin \"screen\"");
  EXPECT_EQ(body.get_vec(), (linalg::Vector{1.5, -2.25, 1e-300}));
  EXPECT_EQ(body.get_index_vec(),
            (std::vector<std::size_t>{0, 42, 1u << 20}));
  EXPECT_EQ(body.get_matrix(), m);
  EXPECT_TRUE(body.at_end());
}

TEST(ArtifactCodec, FinishRejectsUnclosedChunk) {
  artifact::Writer writer;
  writer.begin_chunk(artifact::ChunkKind::kMeta);
  EXPECT_THROW((void)writer.finish(), std::invalid_argument);
}

TEST(ArtifactCodec, OpenRejectsBadMagic) {
  std::vector<std::uint8_t> bytes = {'N', 'O', 'P', 'E', 1, 0, 0, 0};
  EXPECT_THROW((void)artifact::Reader::open(bytes), artifact::ArtifactError);
}

TEST(ArtifactCodec, OpenRejectsFutureFormatVersion) {
  artifact::Writer writer;
  auto bytes = writer.finish();
  bytes[4] = 99;  // format version field, little-endian
  EXPECT_THROW((void)artifact::Reader::open(bytes), artifact::ArtifactError);
}

TEST(ArtifactCodec, OpenRejectsTruncatedHeader) {
  const std::vector<std::uint8_t> bytes = {'V', 'Q', 'A', 'F', 1};
  EXPECT_THROW((void)artifact::Reader::open(bytes), artifact::ArtifactError);
}

TEST(ArtifactCodec, ReaderRejectsCorruptEmbeddedLength) {
  artifact::Writer writer;
  writer.begin_chunk(artifact::ChunkKind::kColumns);
  writer.put_vec({1.0, 2.0});
  writer.end_chunk();
  auto bytes = writer.finish();
  // The vec length u64 sits right after the 12-byte chunk header; blow it up
  // (and reseal, so the length guard is what fires, not the checksum).
  bytes[8 + 12] = 0xFF;
  reseal(bytes);
  artifact::Reader reader = artifact::Reader::open(bytes);
  artifact::Reader body = reader.expect_chunk(artifact::ChunkKind::kColumns);
  EXPECT_THROW((void)body.get_vec(), artifact::ArtifactError);
}

TEST(ArtifactCodec, ChunkTreeJsonShowsNesting) {
  artifact::Writer writer;
  writer.begin_chunk(artifact::ChunkKind::kPredictor);
  writer.begin_chunk(artifact::ChunkKind::kLinear);
  writer.put_f64(1.0);
  writer.end_chunk();
  writer.end_chunk();
  const std::string json = artifact::chunk_tree_json(writer.finish());
  EXPECT_NE(json.find("\"PRED\""), std::string::npos);
  EXPECT_NE(json.find("\"LINR\""), std::string::npos);
  EXPECT_NE(json.find("\"children\""), std::string::npos);
}

// --- per-model round-trips --------------------------------------------------

class PointModelRoundTrip
    : public ::testing::TestWithParam<models::ModelKind> {};

TEST_P(PointModelRoundTrip, SaveLoadPredictBitExact) {
  const Problem train = make_problem(60, 6);
  const Problem fresh = make_problem(25, 6, 11);
  auto model = models::make_point_regressor(GetParam());
  model->fit(train.x, train.y);
  const auto decoded = roundtrip_point(*model);
  expect_bitexact(model->predict(fresh.x), decoded->predict(fresh.x));
  EXPECT_TRUE(decoded->fitted());
  EXPECT_EQ(decoded->name(), model->name());
}

std::string kind_suffix(models::ModelKind kind) {
  switch (kind) {
    case models::ModelKind::kLinear:
      return "Linear";
    case models::ModelKind::kGp:
      return "Gp";
    case models::ModelKind::kXgboost:
      return "Xgboost";
    case models::ModelKind::kCatboost:
      return "Catboost";
    case models::ModelKind::kMlp:
      return "Mlp";
  }
  return "Unknown";
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PointModelRoundTrip,
                         ::testing::ValuesIn(models::point_model_zoo()),
                         [](const auto& param_info) {
                           return kind_suffix(param_info.param);
                         });

TEST(ArtifactModels, ElasticNetRoundTripBitExact) {
  const Problem train = make_problem(60, 6);
  const Problem fresh = make_problem(25, 6, 11);
  models::ElasticNetRegressor model;
  model.fit(train.x, train.y);
  const auto decoded = roundtrip_point(model);
  expect_bitexact(model.predict(fresh.x), decoded->predict(fresh.x));
}

TEST(ArtifactModels, UnfittedModelRefusesToEncode) {
  models::LinearRegressor unfitted;
  artifact::Writer writer;
  EXPECT_THROW(artifact::encode_regressor(writer, unfitted), std::logic_error);
}

TEST(ArtifactModels, QuantilePairRoundTripBitExact) {
  const Problem train = make_problem(60, 6);
  const Problem fresh = make_problem(25, 6, 11);
  auto pair = models::make_quantile_pair(models::ModelKind::kLinear,
                                         core::MiscoverageAlpha{0.1});
  pair->fit(train.x, train.y);
  const auto decoded = roundtrip_interval(*pair);
  const auto a = pair->predict_interval(fresh.x);
  const auto b = decoded->predict_interval(fresh.x);
  expect_bitexact(a.lower, b.lower);
  expect_bitexact(a.upper, b.upper);
  EXPECT_EQ(decoded->name(), pair->name());
}

TEST(ArtifactModels, GpIntervalRoundTripBitExact) {
  const Problem train = make_problem(60, 6);
  const Problem fresh = make_problem(25, 6, 11);
  models::GpIntervalRegressor gp(core::MiscoverageAlpha{0.1});
  gp.fit(train.x, train.y);
  const auto decoded = roundtrip_interval(gp);
  const auto a = gp.predict_interval(fresh.x);
  const auto b = decoded->predict_interval(fresh.x);
  expect_bitexact(a.lower, b.lower);
  expect_bitexact(a.upper, b.upper);
}

class CqrRoundTrip : public ::testing::TestWithParam<conformal::CqrMode> {};

TEST_P(CqrRoundTrip, CalibrationSurvivesSaveLoad) {
  const Problem train = make_problem(80, 6);
  const Problem fresh = make_problem(25, 6, 11);
  conformal::CqrConfig config;
  config.mode = GetParam();
  conformal::ConformalizedQuantileRegressor cqr(
      core::MiscoverageAlpha{0.1},
      models::make_quantile_pair(models::ModelKind::kLinear,
                                 core::MiscoverageAlpha{0.1}),
      config);
  cqr.fit(train.x, train.y);
  const auto decoded = roundtrip_interval(cqr);
  const auto a = cqr.predict_interval(fresh.x);
  const auto b = decoded->predict_interval(fresh.x);
  expect_bitexact(a.lower, b.lower);
  expect_bitexact(a.upper, b.upper);
  const auto* decoded_cqr =
      dynamic_cast<const conformal::ConformalizedQuantileRegressor*>(
          decoded.get());
  ASSERT_NE(decoded_cqr, nullptr);
  EXPECT_EQ(decoded_cqr->mode(), GetParam());
  EXPECT_EQ(decoded_cqr->q_hat_lower(), cqr.q_hat_lower());
  EXPECT_EQ(decoded_cqr->q_hat_upper(), cqr.q_hat_upper());
}

INSTANTIATE_TEST_SUITE_P(BothModes, CqrRoundTrip,
                         ::testing::Values(conformal::CqrMode::kSymmetric,
                                           conformal::CqrMode::kAsymmetric),
                         [](const auto& param_info) {
                           return param_info.param ==
                                          conformal::CqrMode::kSymmetric
                                      ? std::string("Symmetric")
                                      : std::string("Asymmetric");
                         });

TEST(ArtifactModels, SplitCpRoundTripBitExact) {
  const Problem train = make_problem(80, 6);
  const Problem fresh = make_problem(25, 6, 11);
  conformal::SplitConformalRegressor cp(
      core::MiscoverageAlpha{0.1},
      models::make_point_regressor(models::ModelKind::kLinear));
  cp.fit(train.x, train.y);
  const auto decoded = roundtrip_interval(cp);
  const auto a = cp.predict_interval(fresh.x);
  const auto b = decoded->predict_interval(fresh.x);
  expect_bitexact(a.lower, b.lower);
  expect_bitexact(a.upper, b.upper);
}

TEST(ArtifactModels, NormalizedCpRoundTripBitExact) {
  const Problem train = make_problem(80, 6);
  const Problem fresh = make_problem(25, 6, 11);
  conformal::NormalizedConformalRegressor ncp(
      core::MiscoverageAlpha{0.1},
      models::make_point_regressor(models::ModelKind::kLinear),
      models::make_point_regressor(models::ModelKind::kLinear));
  ncp.fit(train.x, train.y);
  const auto decoded = roundtrip_interval(ncp);
  const auto a = ncp.predict_interval(fresh.x);
  const auto b = decoded->predict_interval(fresh.x);
  expect_bitexact(a.lower, b.lower);
  expect_bitexact(a.upper, b.upper);
}

TEST(ArtifactModels, DecodeRejectsBadCqrModeByte) {
  conformal::ConformalizedQuantileRegressor cqr(
      core::MiscoverageAlpha{0.1},
      models::make_quantile_pair(models::ModelKind::kLinear,
                                 core::MiscoverageAlpha{0.1}));
  const Problem train = make_problem(80, 6);
  cqr.fit(train.x, train.y);
  artifact::Writer writer;
  artifact::encode_interval_regressor(writer, cqr);
  auto bytes = writer.finish();
  // CQRC payload layout: alpha f64, then the mode byte at offset 8. Reseal
  // so the decoder's own mode validation fires, not the checksum gate.
  bytes[8 + 12 + 8] = 7;
  reseal(bytes);
  artifact::Reader reader = artifact::Reader::open(bytes);
  EXPECT_THROW((void)artifact::decode_interval_regressor(reader),
               artifact::ArtifactError);
}

// --- bundle round-trips -----------------------------------------------------

artifact::VminBundle fitted_bundle() {
  silicon::GeneratorConfig gen_config;
  gen_config.n_chips = 40;
  gen_config.seed = 123;
  const auto generated = silicon::generate_dataset(gen_config);
  const core::Scenario scenario{48.0, 25.0, core::FeatureSet::kBoth};
  const auto data = core::assemble_scenario(generated.dataset, scenario);
  core::PipelineConfig config;
  auto screen =
      core::fit_screen(data, models::ModelKind::kLinear, config, 4);
  return core::make_screen_bundle(scenario, data, std::move(screen));
}

TEST(ArtifactBundle, EncodeDecodeRoundTrip) {
  const auto bundle = fitted_bundle();
  const auto bytes = artifact::encode_bundle(bundle);
  const auto decoded = artifact::decode_bundle(bytes);
  EXPECT_EQ(decoded.format_version, artifact::kFormatVersion);
  EXPECT_EQ(decoded.label, bundle.label);
  EXPECT_EQ(decoded.scenario.read_point_hours, 48.0);
  EXPECT_EQ(decoded.scenario.temperature_c, 25.0);
  EXPECT_EQ(decoded.dataset_columns, bundle.dataset_columns);
  EXPECT_EQ(decoded.selected_features, bundle.selected_features);
  ASSERT_NE(decoded.predictor, nullptr);
  // Decoded and original predictors agree bit-for-bit on fresh input.
  const Problem fresh =
      make_problem(10, bundle.selected_features.size(), 11);
  const auto a = bundle.predictor->predict_interval(fresh.x);
  const auto b = decoded.predictor->predict_interval(fresh.x);
  expect_bitexact(a.lower, b.lower);
  expect_bitexact(a.upper, b.upper);
  // Re-encoding the decoded bundle reproduces the bytes exactly.
  EXPECT_EQ(artifact::encode_bundle(decoded), bytes);
}

TEST(ArtifactBundle, SaveLoadFileRoundTrip) {
  const auto bundle = fitted_bundle();
  const std::string path = ::testing::TempDir() + "/bundle_roundtrip.vqa";
  artifact::save_artifact(bundle, path);
  const auto loaded = artifact::load_artifact(path);
  EXPECT_EQ(artifact::encode_bundle(loaded), artifact::encode_bundle(bundle));
}

TEST(ArtifactBundle, TruncatedBytesRejectedAtEveryPrefix) {
  const auto bytes = artifact::encode_bundle(fitted_bundle());
  // Every strict prefix must be rejected, never crash or mis-decode. Step
  // through a spread of cut points including all short ones.
  for (std::size_t cut = 0; cut < bytes.size();
       cut += (cut < 64 ? 1 : 97)) {
    const std::vector<std::uint8_t> truncated(bytes.begin(),
                                              bytes.begin() +
                                                  static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)artifact::decode_bundle(truncated),
                 artifact::ArtifactError)
        << "prefix length " << cut;
  }
}

TEST(ArtifactBundle, CorruptedChunkKindRejected) {
  auto bytes = artifact::encode_bundle(fitted_bundle());
  bytes[8] = 'Z';  // first chunk tag ("META") -> unknown kind
  reseal(bytes);   // exercise the unknown-kind path, not the checksum gate
  EXPECT_THROW((void)artifact::decode_bundle(bytes), artifact::ArtifactError);
}

TEST(ArtifactBundle, MissingPredictorRejected) {
  artifact::Writer writer;
  writer.begin_chunk(artifact::ChunkKind::kMeta);
  writer.put_f64(0.0);
  writer.put_f64(25.0);
  writer.put_u8(2);
  writer.put_f64(-1.0);
  writer.put_str("no predictor");
  writer.end_chunk();
  writer.begin_chunk(artifact::ChunkKind::kColumns);
  writer.put_index_vec({0, 1});
  writer.put_index_vec({0});
  writer.end_chunk();
  EXPECT_THROW((void)artifact::decode_bundle(writer.finish()),
               artifact::ArtifactError);
}

TEST(ArtifactBundle, DebugJsonRendersDecodedValues) {
  const auto bundle = fitted_bundle();
  const std::string json = artifact::debug_json(bundle);
  EXPECT_NE(json.find("\"format_version\": 3"), std::string::npos);
  EXPECT_NE(json.find("CQR"), std::string::npos);
  EXPECT_NE(json.find("\"read_point_hours\": 48"), std::string::npos);
  EXPECT_NE(json.find("\"selected_features\""), std::string::npos);
}

// --- golden fixture ---------------------------------------------------------

std::unique_ptr<models::LinearRegressor> golden_linear(double intercept) {
  models::LinearParams params;
  params.scaler.means = {1.0, -2.0};
  params.scaler.scales = {2.0, 4.0};
  params.label.mean = 0.5;
  params.label.scale = 0.05;
  params.coef = {intercept, 0.0625, -0.25};
  auto model = std::make_unique<models::LinearRegressor>();
  model->import_params(std::move(params));
  return model;
}

/// The exact bundle the checked-in fixture was generated from — every value
/// an exact binary fraction, so the bytes are platform-independent.
artifact::VminBundle golden_bundle() {
  const core::MiscoverageAlpha level{0.2};
  auto pair = std::make_unique<models::QuantilePairRegressor>(
      level, golden_linear(-0.5), golden_linear(0.5), "QR Linear Regression");
  auto cqr = std::make_unique<conformal::ConformalizedQuantileRegressor>(
      level, std::move(pair));
  cqr->import_calibration({0.015625, 0.015625});

  artifact::VminBundle bundle;
  bundle.scenario = {48.0, 25.0, 2, -1.0};
  bundle.label = "golden CQR linear";
  bundle.dataset_columns = {0, 1, 2, 3};
  bundle.selected_features = {1, 3};
  bundle.predictor = std::move(cqr);
  return bundle;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(ArtifactGolden, CheckedInFixtureDecodesToExpectedPredictions) {
  const auto bytes =
      read_file(std::string(VMINCQR_ARTIFACT_FIXTURE_DIR) +
                "/golden_cqr_linear.vqa");
  const auto bundle = artifact::decode_bundle(bytes);
  EXPECT_EQ(bundle.label, "golden CQR linear");
  EXPECT_EQ(bundle.selected_features, (std::vector<std::size_t>{1, 3}));

  const linalg::Matrix x{{0.0, 1.0, 2.0, 3.0},
                         {1.0, -1.0, 0.5, -0.5},
                         {-2.0, 0.25, 4.0, 8.0}};
  const auto band =
      bundle.predictor->predict_interval(x.take_cols(bundle.selected_features));
  // Hard-coded expectations (%.17g) — the fixture's frozen forward pass.
  const double expected[3][2] = {
      {0.44374999999999998, 0.52500000000000002},
      {0.45156249999999998, 0.53281250000000002},
      {0.42695312499999999, 0.50820312499999998},
  };
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(band.lower[i], expected[i][0]) << "row " << i;
    EXPECT_EQ(band.upper[i], expected[i][1]) << "row " << i;
  }
}

TEST(ArtifactGolden, V1FixtureStillDecodesToExpectedPredictions) {
  // The pre-SoA (format version 1) fixture must keep decoding through the
  // legacy path: Reader::open accepts [1, kFormatVersion] and the decoders
  // branch on format_version(). Same frozen forward pass as the current
  // fixture.
  const auto bytes =
      read_file(std::string(VMINCQR_ARTIFACT_FIXTURE_DIR) +
                "/golden_cqr_linear_v1.vqa");
  const auto bundle = artifact::decode_bundle(bytes);
  EXPECT_EQ(bundle.format_version, 1u);
  EXPECT_EQ(bundle.label, "golden CQR linear");

  const linalg::Matrix x{{0.0, 1.0, 2.0, 3.0},
                         {1.0, -1.0, 0.5, -0.5},
                         {-2.0, 0.25, 4.0, 8.0}};
  const auto band =
      bundle.predictor->predict_interval(x.take_cols(bundle.selected_features));
  const double expected[3][2] = {
      {0.44374999999999998, 0.52500000000000002},
      {0.45156249999999998, 0.53281250000000002},
      {0.42695312499999999, 0.50820312499999998},
  };
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(band.lower[i], expected[i][0]) << "row " << i;
    EXPECT_EQ(band.upper[i], expected[i][1]) << "row " << i;
  }
}

TEST(ArtifactGolden, V2FixtureStillDecodesToExpectedPredictions) {
  // The pre-checksum (format version 2) fixture: no trailing CSUM chunk, so
  // Reader::open must not demand one, and the decode must match the same
  // frozen forward pass.
  const auto bytes =
      read_file(std::string(VMINCQR_ARTIFACT_FIXTURE_DIR) +
                "/golden_cqr_linear_v2.vqa");
  const auto bundle = artifact::decode_bundle(bytes);
  EXPECT_EQ(bundle.format_version, 2u);
  EXPECT_EQ(bundle.label, "golden CQR linear");

  const linalg::Matrix x{{0.0, 1.0, 2.0, 3.0},
                         {1.0, -1.0, 0.5, -0.5},
                         {-2.0, 0.25, 4.0, 8.0}};
  const auto band =
      bundle.predictor->predict_interval(x.take_cols(bundle.selected_features));
  const double expected[3][2] = {
      {0.44374999999999998, 0.52500000000000002},
      {0.45156249999999998, 0.53281250000000002},
      {0.42695312499999999, 0.50820312499999998},
  };
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(band.lower[i], expected[i][0]) << "row " << i;
    EXPECT_EQ(band.upper[i], expected[i][1]) << "row " << i;
  }
}

TEST(ArtifactModels, GbtV1InterleavedRecordsDecode) {
  // Hand-encode a fitted GBT with the v1 interleaved per-node record layout,
  // stamp the header as version 1, and check the legacy decoder reproduces
  // the live model bit for bit.
  const Problem p = make_problem(80, 4);
  models::GbtConfig config;
  config.n_rounds = 5;
  models::GradientBoostedTrees model(config);
  model.fit(p.x, p.y);
  const models::GbtParams params = model.export_params();

  artifact::Writer writer;
  writer.begin_chunk(artifact::ChunkKind::kGbt);
  writer.put_f64(params.base_score);
  writer.put_f64(params.learning_rate);
  writer.put_u64(params.n_features);
  writer.put_u64(params.trees.size());
  for (const auto& nodes : params.trees) {
    writer.put_u64(nodes.size());
    for (const models::TreeNode& node : nodes) {
      writer.put_u8(node.is_leaf ? 1 : 0);
      writer.put_u64(node.feature);
      writer.put_f64(node.threshold);
      writer.put_u32(static_cast<std::uint32_t>(node.left));
      writer.put_u32(static_cast<std::uint32_t>(node.right));
      writer.put_f64(node.value);
      writer.put_u32(static_cast<std::uint32_t>(node.leaf_id));
      writer.put_f64(node.gain);
    }
  }
  writer.end_chunk();
  auto bytes = writer.finish();
  bytes[4] = 1;  // rewrite the header: declare format version 1

  artifact::Reader reader = artifact::Reader::open(bytes);
  EXPECT_EQ(reader.format_version(), 1u);
  const auto decoded = artifact::decode_regressor(reader);
  EXPECT_EQ(decoded->predict(p.x), model.predict(p.x));
}

TEST(ArtifactGolden, FormatIsByteStableAgainstFixture) {
  // Re-encoding the hand-specified golden bundle must reproduce the
  // checked-in file byte for byte: any codec change that alters the wire
  // format of existing chunks fails here and requires a format-version bump.
  const auto fixture =
      read_file(std::string(VMINCQR_ARTIFACT_FIXTURE_DIR) +
                "/golden_cqr_linear.vqa");
  EXPECT_EQ(artifact::encode_bundle(golden_bundle()), fixture);
}

// --- corruption fuzzing -----------------------------------------------------
//
// The v3 CRC-32 seal is what makes this battery provable: a CRC-32 detects
// every burst error up to 32 bits, so ANY single corrupted byte — header,
// chunk framing, or payload (e.g. a damaged IEEE-754 coefficient that would
// otherwise parse silently) — must surface as ArtifactError. Before v3 a
// payload flip could decode into a plausible-but-wrong predictor.

TEST(ArtifactFuzz, EveryByteInversionIsRejected) {
  // Exhaustive single-byte sweep over the golden fixture: inverting any one
  // byte (covers every chunk-header field and every payload byte) must
  // throw, never crash, never yield a bundle.
  const auto fixture =
      read_file(std::string(VMINCQR_ARTIFACT_FIXTURE_DIR) +
                "/golden_cqr_linear.vqa");
  ASSERT_FALSE(fixture.empty());
  for (std::size_t i = 0; i < fixture.size(); ++i) {
    auto corrupted = fixture;
    corrupted[i] ^= 0xFFU;
    EXPECT_THROW((void)artifact::decode_bundle(corrupted),
                 artifact::ArtifactError)
        << "inverted byte " << i;
  }
}

TEST(ArtifactFuzz, SeededSingleBitFlipsAreRejected) {
  // 64 seeded random single-BIT flips: subtler than whole-byte inversion
  // (a one-bit mantissa flip is the classic silent corruption). The stream
  // is deterministic, so a failure reproduces exactly.
  const auto fixture =
      read_file(std::string(VMINCQR_ARTIFACT_FIXTURE_DIR) +
                "/golden_cqr_linear.vqa");
  ASSERT_FALSE(fixture.empty());
  std::uint64_t state = 0x5EEDBEEFCAFEF00DULL;
  for (int flip = 0; flip < 64; ++flip) {
    const std::uint64_t draw = rng::splitmix64(state);
    const std::size_t byte = draw % fixture.size();
    const unsigned bit = static_cast<unsigned>((draw >> 32) % 8);
    auto corrupted = fixture;
    corrupted[byte] ^= static_cast<std::uint8_t>(1U << bit);
    EXPECT_THROW((void)artifact::decode_bundle(corrupted),
                 artifact::ArtifactError)
        << "flip " << flip << ": byte " << byte << " bit " << bit;
  }
}

TEST(ArtifactFuzz, VersionByteFlipsCannotSkipVerification) {
  // Flipping the version field is the one corruption that could disable the
  // checksum gate itself. Every reachable value must still reject: 0 and
  // >kFormatVersion fail open(); 1 and 2 parse without the gate but then
  // trip over the CSUM chunk, which is unknown to pre-v3 decoders.
  const auto fixture =
      read_file(std::string(VMINCQR_ARTIFACT_FIXTURE_DIR) +
                "/golden_cqr_linear.vqa");
  ASSERT_GE(fixture.size(), 8u);
  ASSERT_EQ(fixture[4], 3u);  // little-endian version field
  for (unsigned bit = 0; bit < 8; ++bit) {
    auto corrupted = fixture;
    corrupted[4] ^= static_cast<std::uint8_t>(1U << bit);
    EXPECT_THROW((void)artifact::decode_bundle(corrupted),
                 artifact::ArtifactError)
        << "version flipped to " << static_cast<unsigned>(corrupted[4]);
  }
}

TEST(ArtifactFuzz, TruncatedSealRejected) {
  // Cutting anywhere inside the trailing CSUM chunk (or removing it
  // entirely) must fail the "v3 artifact missing trailing CSUM" gate.
  const auto fixture =
      read_file(std::string(VMINCQR_ARTIFACT_FIXTURE_DIR) +
                "/golden_cqr_linear.vqa");
  constexpr std::size_t kSealBytes = 4 + 8 + 4;
  ASSERT_GT(fixture.size(), kSealBytes);
  for (std::size_t cut = 0; cut <= kSealBytes; ++cut) {
    const std::vector<std::uint8_t> truncated(
        fixture.begin(),
        fixture.end() - static_cast<std::ptrdiff_t>(cut + 1));
    EXPECT_THROW((void)artifact::decode_bundle(truncated),
                 artifact::ArtifactError)
        << "cut " << cut + 1 << " bytes off the tail";
  }
}

}  // namespace
