// Ablation bench for the design choices called out in DESIGN.md Sec. 6:
//
//   A. Conformal-variant shootout at one representative scenario:
//      split CP vs CQR vs normalized CP vs CV+ — coverage
//      and mean length under the same 4-fold protocol.
//   B. Calibration-fraction sweep: the paper's 75/25 split vs alternatives.
//   C. Alpha sweep: empirical coverage tracks 1 - alpha for CQR.
//   D. CatBoost boosting-mode ablation: plain vs ordered (fixed perm) vs
//      ordered (fresh perms) for the point model.
#include "bench_common.hpp"

#include "conformal/cqr.hpp"
#include "conformal/cv_plus.hpp"
#include "conformal/normalized.hpp"
#include "conformal/split_cp.hpp"
#include "data/feature_select.hpp"
#include "data/split.hpp"
#include "models/ordered_boost.hpp"
#include "stats/metrics.hpp"

using namespace vmincqr;

namespace {

struct FoldData {
  linalg::Matrix x_train, x_test;
  linalg::Vector y_train, y_test;
};

std::vector<FoldData> make_folds(const core::ScenarioData& data,
                                 std::size_t n_folds, std::uint64_t seed,
                                 std::size_t n_features) {
  rng::Rng cv_rng(seed);
  const auto folds = data::k_fold(data.x.rows(), n_folds, cv_rng);
  std::vector<FoldData> out;
  for (const auto& fold : folds) {
    FoldData fd;
    fd.x_train = data.x.take_rows(fold.train);
    fd.x_test = data.x.take_rows(fold.test);
    fd.y_train.resize(fold.train.size());
    fd.y_test.resize(fold.test.size());
    for (std::size_t i = 0; i < fold.train.size(); ++i) {
      fd.y_train[i] = data.y[fold.train[i]];
    }
    for (std::size_t i = 0; i < fold.test.size(); ++i) {
      fd.y_test[i] = data.y[fold.test[i]];
    }
    const auto cols =
        data::top_correlated(fd.x_train, fd.y_train, n_features);
    fd.x_train = fd.x_train.take_cols(cols);
    fd.x_test = fd.x_test.take_cols(cols);
    out.push_back(std::move(fd));
  }
  return out;
}

struct Score {
  double length_mv = 0.0;
  double coverage_pct = 0.0;
};

Score evaluate(models::IntervalRegressor& model,
               const std::vector<FoldData>& folds) {
  Score score;
  for (const auto& fd : folds) {
    model.fit(fd.x_train, fd.y_train);
    const auto band = model.predict_interval(fd.x_test);
    score.length_mv +=
        stats::mean_interval_length(band.lower, band.upper) * 1e3;
    score.coverage_pct +=
        stats::interval_coverage(fd.y_test, band.lower, band.upper) * 100.0;
  }
  score.length_mv /= static_cast<double>(folds.size());
  score.coverage_pct /= static_cast<double>(folds.size());
  return score;
}

}  // namespace

int main() {
  bench::Stopwatch watch;
  const auto generated = bench::make_paper_dataset();
  const core::Scenario scenario{168.0, 25.0, core::FeatureSet::kBoth};
  const auto data = core::assemble_scenario(generated.dataset, scenario);
  const auto folds = make_folds(data, 4, 2024, 24);
  const double alpha = 0.1;

  std::printf("=== Ablation A: conformal-variant shootout (%s) ===\n",
              core::describe(scenario).c_str());
  {
    core::TextTable table({"Variant", "Length (mV)", "Coverage (%)"});
    const auto add = [&](const char* name,
                         std::unique_ptr<models::IntervalRegressor> model) {
      const auto s = evaluate(*model, folds);
      table.add_row({name, core::format_double(s.length_mv, 2),
                     core::format_double(s.coverage_pct, 2)});
    };
    add("Split CP (LR)",
        std::make_unique<conformal::SplitConformalRegressor>(
            core::MiscoverageAlpha{alpha}, models::make_point_regressor(models::ModelKind::kLinear)));
    add("CQR (QR LR)",
        std::make_unique<conformal::ConformalizedQuantileRegressor>(
            core::MiscoverageAlpha{alpha}, models::make_quantile_pair(models::ModelKind::kLinear,
                                              core::MiscoverageAlpha{alpha})));
    add("CQR (QR CatBoost)",
        std::make_unique<conformal::ConformalizedQuantileRegressor>(
            core::MiscoverageAlpha{alpha}, models::make_quantile_pair(models::ModelKind::kCatboost,
                                              core::MiscoverageAlpha{alpha})));
    add("Normalized CP (LR+CB)",
        std::make_unique<conformal::NormalizedConformalRegressor>(
            core::MiscoverageAlpha{alpha}, models::make_point_regressor(models::ModelKind::kLinear),
            models::make_point_regressor(models::ModelKind::kCatboost)));
    add("CV+ (LR, 5 folds)",
        std::make_unique<conformal::CvPlusRegressor>(
            core::MiscoverageAlpha{alpha}, models::make_point_regressor(models::ModelKind::kLinear)));
    std::printf("%s\n", table.to_string().c_str());
  }

  std::printf("=== Ablation B: calibration fraction (CQR LR, paper uses 75/25) ===\n");
  {
    core::TextTable table(
        {"Train fraction", "Length (mV)", "Coverage (%)"});
    for (double frac : {0.5, 0.6, 0.75, 0.85, 0.95}) {
      conformal::CqrConfig config;
      config.split.train_fraction = frac;
      conformal::ConformalizedQuantileRegressor cqr(
          core::MiscoverageAlpha{alpha}, models::make_quantile_pair(models::ModelKind::kLinear, core::MiscoverageAlpha{alpha}),
          config);
      const auto s = evaluate(cqr, folds);
      table.add_row({core::format_double(frac, 2),
                     core::format_double(s.length_mv, 2),
                     core::format_double(s.coverage_pct, 2)});
    }
    std::printf("%s\n", table.to_string().c_str());
  }

  std::printf("=== Ablation C: alpha sweep (CQR LR) — coverage tracks 1-alpha ===\n");
  {
    core::TextTable table({"alpha", "Target (%)", "Coverage (%)",
                           "Length (mV)"});
    for (double a : {0.05, 0.1, 0.2, 0.3}) {
      conformal::ConformalizedQuantileRegressor cqr(
          core::MiscoverageAlpha{a}, models::make_quantile_pair(models::ModelKind::kLinear, core::MiscoverageAlpha{a}));
      const auto s = evaluate(cqr, folds);
      table.add_row({core::format_double(a, 2),
                     core::format_double((1.0 - a) * 100.0, 0),
                     core::format_double(s.coverage_pct, 2),
                     core::format_double(s.length_mv, 2)});
    }
    std::printf("%s\n", table.to_string().c_str());
  }

  std::printf("=== Ablation D: CatBoost boosting mode (point model R^2/RMSE) ===\n");
  {
    core::TextTable table({"Mode", "RMSE (mV)"});
    const auto run_mode = [&](const char* name, bool ordered, bool fresh) {
      models::OrderedBoostConfig config;
      config.ordered = ordered;
      config.fresh_permutation_each_round = fresh;
      double rmse = 0.0;
      for (const auto& fd : folds) {
        models::OrderedBoostedTrees model(config);
        model.fit(fd.x_train, fd.y_train);
        rmse += stats::rmse(fd.y_test, model.predict(fd.x_test)) * 1e3;
      }
      table.add_row({name,
                     core::format_double(rmse / static_cast<double>(folds.size()), 2)});
    };
    run_mode("plain", false, false);
    run_mode("ordered, fixed permutation", true, false);
    run_mode("ordered, fresh permutations", true, true);
    std::printf("%s\n", table.to_string().c_str());
  }

  std::printf("[ablation_conformal] done in %.1f s\n", watch.seconds());
  return 0;
}
