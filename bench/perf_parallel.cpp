// Parallel-substrate benchmark: GBT fit and serve-batch throughput at one
// thread vs the full pool, emitted as machine-readable BENCH_parallel.json.
// The speedup fields back the ISSUE-5 acceptance targets (>= 3x GBT fit,
// >= 4x serve batch on an 8-core CI host); on a smaller host the JSON still
// records what this machine measured together with the thread counts used,
// so numbers stay comparable across runs of the same box.
//
// Usage: perf_parallel [--stress] [output.json]
//   default output: BENCH_parallel.json (BENCH_stress.json with --stress)
//
// --stress swaps the 4096-row serve batch for a 1000000-row one — the
// fleet-screening scale the hot-path analyzer profiles for — and skips the
// GBT fit (train-side, unchanged by batch size). Its JSON is uploaded as a
// separate artifact so the large-N throughput trend is trackable without
// touching the committed small-batch baselines.
//
// Besides wall-clock the JSON carries the STATISTICAL outputs of the benched
// predictor (empirical coverage and mean interval width on the synthetic
// batch): bench_compare gates these alongside the timings, so a perf
// "optimization" that quietly shifts the intervals fails the comparison
// instead of landing.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "artifact/bundle.hpp"
#include "conformal/cqr.hpp"
#include "models/factory.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "serve/vmin_predictor.hpp"
#include "stats/metrics.hpp"

using namespace vmincqr;

namespace {

// Larger than the paper's 156-chip population on purpose: the substrate is
// benched at a scale where every use_pool gate is open (tree split search,
// GBT row loops, serve row-sharding), so the speedup reflects the pool, not
// gate-closed inline paths.
constexpr std::size_t kTrainRows = 2000;
constexpr std::size_t kFeatures = 13;
constexpr std::size_t kBatchRows = 4096;
constexpr std::size_t kStressBatchRows = 1000000;

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
  fn();  // warmup: first run pays allocator/cache/pool-spawn setup
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

/// Times `fn` at 1 thread and at `wide` threads; restores env resolution.
struct WidthTiming {
  double seq_s = 0.0;
  double par_s = 0.0;
  [[nodiscard]] double speedup() const {
    return par_s > 0.0 ? seq_s / par_s : 0.0;
  }
};

WidthTiming bench_at_widths(std::size_t wide, int reps,
                            const std::function<void()>& fn) {
  WidthTiming t;
  parallel::set_max_threads(1);
  t.seq_s = median_seconds(reps, fn);
  parallel::set_max_threads(wide);
  t.par_s = median_seconds(reps, fn);
  parallel::set_max_threads(0);
  return t;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  bool stress = false;
  std::string out_path;
  for (int a = 1; a < argc; ++a) {
    if (std::string(argv[a]) == "--stress") {
      stress = true;
    } else {
      out_path = argv[a];
    }
  }
  if (out_path.empty()) {
    out_path = stress ? "BENCH_stress.json" : "BENCH_parallel.json";
  }
  const std::size_t batch_rows = stress ? kStressBatchRows : kBatchRows;
  const std::size_t wide = parallel::max_threads();
  const Problem train = make_problem(kTrainRows, kFeatures);
  const Problem batch = make_problem(batch_rows, kFeatures);

  // --- GBT fit: the split search + row loops are the pool's hottest user.
  // Skipped under --stress: fit cost does not depend on the serve batch.
  WidthTiming gbt_fit;
  if (!stress) {
    gbt_fit = bench_at_widths(wide, 3, [&] {
      auto model = models::make_point_regressor(models::ModelKind::kXgboost);
      model->fit(train.x, train.y);
    });
    std::printf(
        "gbt fit        1 thread %8.3f ms   %zu threads %8.3f ms   %.2fx\n",
        1e3 * gbt_fit.seq_s, wide, 1e3 * gbt_fit.par_s, gbt_fit.speedup());
  }

  // --- serve batch: row-sharded predict_interval over a CQR-GBT bundle.
  const core::MiscoverageAlpha alpha{0.1};
  auto cqr = std::make_unique<conformal::ConformalizedQuantileRegressor>(
      alpha, models::make_quantile_pair(models::ModelKind::kXgboost, alpha));
  cqr->fit(train.x, train.y);
  artifact::VminBundle bundle;
  bundle.label = cqr->name();
  for (std::size_t c = 0; c < kFeatures; ++c) {
    bundle.dataset_columns.push_back(c);
    bundle.selected_features.push_back(c);
  }
  bundle.predictor = std::move(cqr);
  const auto predictor =
      serve::VminPredictor::from_bytes(artifact::encode_bundle(bundle));

  const WidthTiming serve_batch = bench_at_widths(wide, stress ? 5 : 10, [&] {
    volatile double sink = predictor.predict_batch(batch.x)[0].lower;
    (void)sink;
  });
  const double rows_per_s =
      static_cast<double>(batch_rows) / serve_batch.par_s;
  std::printf("serve batch    1 thread %8.3f ms   %zu threads %8.3f ms   %.2fx  (%.3g rows/s)\n",
              1e3 * serve_batch.seq_s, wide, 1e3 * serve_batch.par_s,
              serve_batch.speedup(), rows_per_s);

  // --- statistical outputs of the benched predictor (gated by
  // bench_compare next to the timings: a throughput win that moves the
  // intervals is a regression, not an optimization).
  const auto intervals = predictor.predict_batch(batch.x);
  linalg::Vector lower(batch_rows);
  linalg::Vector upper(batch_rows);
  for (std::size_t i = 0; i < batch_rows; ++i) {
    lower[i] = intervals[i].lower;
    upper[i] = intervals[i].upper;
  }
  const double coverage = stats::interval_coverage(batch.y, lower, upper);
  const double mean_width = stats::mean_interval_length(lower, upper);
  std::printf("stats          coverage %.4f   mean width %.6f V\n", coverage,
              mean_width);

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fputs("{\n", out);
  std::fprintf(out, "  \"threads\": %zu,\n", wide);
  std::fprintf(out, "  \"train_rows\": %zu,\n", kTrainRows);
  std::fprintf(out, "  \"batch_rows\": %zu,\n", batch_rows);
  if (!stress) {
    std::fprintf(out, "  \"gbt_fit\": {\n");
    std::fprintf(out, "    \"seq_ms\": %s,\n",
                 json_number(1e3 * gbt_fit.seq_s).c_str());
    std::fprintf(out, "    \"par_ms\": %s,\n",
                 json_number(1e3 * gbt_fit.par_s).c_str());
    std::fprintf(out, "    \"speedup\": %s\n",
                 json_number(gbt_fit.speedup()).c_str());
    std::fprintf(out, "  },\n");
  }
  std::fprintf(out, "  \"serve_batch\": {\n");
  std::fprintf(out, "    \"seq_ms\": %s,\n",
               json_number(1e3 * serve_batch.seq_s).c_str());
  std::fprintf(out, "    \"par_ms\": %s,\n",
               json_number(1e3 * serve_batch.par_s).c_str());
  std::fprintf(out, "    \"speedup\": %s,\n",
               json_number(serve_batch.speedup()).c_str());
  std::fprintf(out, "    \"rows_per_s\": %s\n",
               json_number(rows_per_s).c_str());
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"stats\": {\n");
  std::fprintf(out, "    \"coverage\": %s,\n", json_number(coverage).c_str());
  std::fprintf(out, "    \"mean_width_v\": %s\n",
               json_number(mean_width).c_str());
  std::fprintf(out, "  }\n");
  std::fputs("}\n", out);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
