// Machine-readable model benchmarks backing Table I's "computational
// efficiency" column — per-model fit/predict wall-clock and throughput at
// the paper's data scale (117 training chips, 8 features), plus the serve
// path: artifact encode/decode and VminPredictor::predict_batch.
//
// Unlike the figure/table benches this emits JSON, not prose: the output
// lands in BENCH_models.json (or argv[1]) so CI and regression tooling can
// diff numbers across commits without scraping text.
//
// Usage: perf_models [output.json]   (default: BENCH_models.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "artifact/bundle.hpp"
#include "artifact/model_codec.hpp"
#include "conformal/cqr.hpp"
#include "linalg/kernels.hpp"
#include "models/factory.hpp"
#include "rng/rng.hpp"
#include "serve/vmin_predictor.hpp"

using namespace vmincqr;

namespace {

constexpr std::size_t kTrainRows = 117;  // paper scale after the CV split
constexpr std::size_t kFeatures = 8;
constexpr std::size_t kBatchRows = 156;  // one full population per batch

struct Problem {
  linalg::Matrix x;
  linalg::Vector y;
};

Problem make_problem(std::size_t n, std::size_t d) {
  rng::Rng rng(7);
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

/// Median wall-clock seconds over `reps` runs of `fn` (one warmup first).
double median_seconds(int reps, const std::function<void()>& fn) {
  fn();  // warmup: first run pays allocator/cache setup
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double>(stop - start).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct ModelTiming {
  std::string name;
  double fit_ms = 0.0;
  double predict_us = 0.0;
  double predict_rows_per_s = 0.0;
};

ModelTiming bench_model(models::ModelKind kind, const Problem& train,
                        const Problem& batch) {
  ModelTiming timing;
  timing.name = models::model_name(kind);

  timing.fit_ms = 1e3 * median_seconds(5, [&] {
    auto model = models::make_point_regressor(kind);
    model->fit(train.x, train.y);
  });

  auto fitted = models::make_point_regressor(kind);
  fitted->fit(train.x, train.y);
  const double predict_s = median_seconds(50, [&] {
    volatile double sink = fitted->predict(batch.x)[0];
    (void)sink;
  });
  timing.predict_us = 1e6 * predict_s;
  timing.predict_rows_per_s = static_cast<double>(batch.x.rows()) / predict_s;
  return timing;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

struct KernelTiming {
  std::string name;
  double exact_us = 0.0;
};

/// Micro-times the dense kernels at MLP-forward / GP-assembly shapes, so the
/// per-kernel cost is a tracked number rather than folklore. Sizes match the
/// hot callers: gemm at the MLP chunk shape (256 x 13 -> 16 hidden),
/// row_sq_dists at one GP kernel row against 2000 training rows.
std::vector<KernelTiming> bench_kernels() {
  constexpr std::size_t kM = 256, kK = 13, kN = 16, kGpRows = 2000;
  rng::Rng rng(11);
  std::vector<double> a(kM * kK), b(kK * kN), bt(kM * kN), x(kK);
  std::vector<double> gp(kGpRows * kK);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto& v : bt) v = rng.normal();
  for (auto& v : x) v = rng.normal();
  for (auto& v : gp) v = rng.normal();
  std::vector<double> c(kM * kN), g(kK * kN), y(kM), d(kGpRows);

  std::vector<KernelTiming> out;
  const auto add = [&out](const std::string& name,
                          const std::function<void()>& fn) {
    out.push_back({name, 1e6 * median_seconds(200, fn)});
  };
  add("gemm_256x13x16", [&] {
    std::fill(c.begin(), c.end(), 0.0);
    linalg::gemm(kM, kK, kN, a.data(), kK, b.data(), kN, c.data(), kN);
  });
  add("gemm_at_256x13x16", [&] {
    std::fill(g.begin(), g.end(), 0.0);
    linalg::gemm_at(kM, kK, kN, a.data(), kK, bt.data(), kN, g.data(), kN);
  });
  add("gemv_256x13",
      [&] { linalg::gemv(kM, kK, a.data(), kK, x.data(), y.data()); });
  add("row_sq_dists_1x2000x13", [&] {
    linalg::row_sq_dists(gp.data(), kK, gp.data(), kK, kGpRows, d.data());
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_models.json";
  const Problem train = make_problem(kTrainRows, kFeatures);
  const Problem batch = make_problem(kBatchRows, kFeatures);

  std::vector<ModelTiming> timings;
  for (const models::ModelKind kind : models::point_model_zoo()) {
    timings.push_back(bench_model(kind, train, batch));
    std::printf("%-18s fit %8.3f ms   predict %8.1f us  (%.3g rows/s)\n",
                timings.back().name.c_str(), timings.back().fit_ms,
                timings.back().predict_us, timings.back().predict_rows_per_s);
  }

  // --- serve path: CQR linear -> artifact -> batched predictor -------------
  const core::MiscoverageAlpha alpha{0.1};
  auto cqr = std::make_unique<conformal::ConformalizedQuantileRegressor>(
      alpha, models::make_quantile_pair(models::ModelKind::kLinear, alpha));
  cqr->fit(train.x, train.y);

  artifact::VminBundle bundle;
  bundle.label = cqr->name();
  for (std::size_t c = 0; c < kFeatures; ++c) {
    bundle.dataset_columns.push_back(c);
    bundle.selected_features.push_back(c);
  }
  bundle.predictor = std::move(cqr);

  const double encode_s =
      median_seconds(50, [&] { (void)artifact::encode_bundle(bundle); });
  const auto bytes = artifact::encode_bundle(bundle);
  const double decode_s =
      median_seconds(50, [&] { (void)artifact::decode_bundle(bytes); });

  const auto predictor = serve::VminPredictor::from_bytes(bytes);
  const double serve_s = median_seconds(50, [&] {
    volatile double sink = predictor.predict_batch(batch.x)[0].lower;
    (void)sink;
  });
  const double serve_rows_per_s = static_cast<double>(kBatchRows) / serve_s;
  std::printf(
      "serve (%s): predict_batch %8.1f us (%.3g rows/s), "
      "encode %.1f us, decode %.1f us, artifact %zu bytes\n",
      bundle.label.c_str(), 1e6 * serve_s, serve_rows_per_s, 1e6 * encode_s,
      1e6 * decode_s, bytes.size());

  // --- dense micro-kernels: per-kernel wall-clock ---------------------------
  const std::vector<KernelTiming> kernels = bench_kernels();
  for (const KernelTiming& k : kernels) {
    std::printf("kernel %-24s exact %8.2f us\n", k.name.c_str(), k.exact_us);
  }

  // --- emit JSON ------------------------------------------------------------
  std::string json = "{\n";
  json += "  \"scale\": {\"n_train\": " + std::to_string(kTrainRows) +
          ", \"n_features\": " + std::to_string(kFeatures) +
          ", \"batch_rows\": " + std::to_string(kBatchRows) + "},\n";
  json += "  \"models\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const ModelTiming& t = timings[i];
    json += "    {\"name\": \"" + t.name + "\", \"fit_ms\": " +
            json_number(t.fit_ms) + ", \"predict_us\": " +
            json_number(t.predict_us) + ", \"predict_rows_per_s\": " +
            json_number(t.predict_rows_per_s) + "}";
    json += (i + 1 < timings.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"kernels\": [\n";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelTiming& k = kernels[i];
    json += "    {\"name\": \"" + k.name + "\", \"exact_us\": " +
            json_number(k.exact_us) + "}";
    json += (i + 1 < kernels.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"serve\": {\"predictor\": \"" + bundle.label +
          "\", \"predict_batch_us\": " + json_number(1e6 * serve_s) +
          ", \"rows_per_s\": " + json_number(serve_rows_per_s) +
          ", \"encode_us\": " + json_number(1e6 * encode_s) +
          ", \"decode_us\": " + json_number(1e6 * decode_s) +
          ", \"artifact_bytes\": " + std::to_string(bytes.size()) + "}\n";
  json += "}\n";

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
