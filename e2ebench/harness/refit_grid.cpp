// refit_grid: re-characterization. Closed loop, pool width = nproc. For each
// of the 18 (read point x temperature) scenarios of the paper grid on the
// 156-chip population: assemble_scenario, fit_screen (CQR-GBT, default
// kBitExact policy), make_screen_bundle, encode_bundle, decode_bundle and a
// VminPredictor — fit once per scenario and ship the artifact.
#include <limits>
#include <stdexcept>
#include <utility>

#include "conformal/cqr.hpp"
#include "conformal/scores.hpp"
#include "data/split.hpp"
#include "models/factory.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "serve/vmin_predictor.hpp"
#include "silicon/dataset_gen.hpp"
#include "stats/quantile.hpp"
#include "workloads.hpp"

namespace e2ebench {

using namespace vmincqr;

namespace {

/// The table's p75 over per-scenario times needs 40 fits (10 beyond it);
/// three grids of 18 give 54.
constexpr std::size_t kMinGrids = 3;
constexpr double kScenarioTail = 0.75;
/// Chips in the held-out population the shipped artifacts are checked on.
constexpr std::size_t kValidationChips = 256;

std::vector<core::Scenario> paper_grid() {
  std::vector<core::Scenario> grid;
  for (const double hours : silicon::standard_read_points()) {
    for (const double celsius : silicon::standard_temperatures()) {
      grid.push_back({hours, celsius, core::FeatureSet::kBoth});
    }
  }
  return grid;
}

struct Setup {
  vmincqr::data::Dataset population;  ///< the 156 characterization chips
  vmincqr::data::Dataset validation;  ///< held-out chips of the same product
};

Setup set_up(std::uint64_t seed, const core::Scenario& warm_up) {
  Setup s;
  Product product(2 * kValidationChips, seed);  // the seed picks half
  s.population = product.paper_population();
  s.validation = product.take(kValidationChips);
  // One fit before timing: pool threads, allocator arenas, page faults.
  (void)fit_paper_screen(warm_up,
                         core::assemble_scenario(s.population, warm_up));
  return s;
}

struct Shipped {
  artifact::VminBundle bundle;  ///< in-memory screen (fit-time product)
  std::vector<std::uint8_t> bytes;
  std::unique_ptr<serve::VminPredictor> predictor;  ///< decoded from bytes
};

/// The timed unit: fit one scenario and ship it.
Shipped fit_and_ship(const Setup& s, const core::Scenario& scenario) {
  Shipped out;
  const auto data = core::assemble_scenario(s.population, scenario);
  out.bundle = fit_paper_screen(scenario, data);
  out.bytes = artifact::encode_bundle(out.bundle);
  out.predictor = std::make_unique<serve::VminPredictor>(
      artifact::decode_bundle(out.bytes));
  return out;
}

/// The same unit, replayed through the public functions fit_screen is made
/// of, each call in its own span under one scenario span.
Shipped fit_and_ship_traced(const Setup& s, const core::Scenario& scenario,
                            Tracer& tracer) {
  const core::PipelineConfig config = screen_config();
  const ScopedSpan whole(tracer, "refit.scenario");
  Shipped out;
  core::ScenarioData data;
  {
    const ScopedSpan span(tracer, "core.assemble", whole.id());
    data = core::assemble_scenario(s.population, scenario);
  }
  const linalg::KernelPolicyGuard policy(config.kernel_policy);
  std::vector<std::size_t> rows(data.x.rows());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  rng::Rng split_rng(config.split.seed);
  const auto split = data::train_calibration_split(
      rows, config.split.train_fraction, split_rng);
  const auto x_proper = data.x.take_rows(split.train);
  const auto x_calib = data.x.take_rows(split.calibration);
  linalg::Vector y_proper;
  linalg::Vector y_calib;
  for (const std::size_t i : split.train) y_proper.push_back(data.y[i]);
  for (const std::size_t i : split.calibration) y_calib.push_back(data.y[i]);

  core::FittedScreen screen;
  {
    const ScopedSpan span(tracer, "core.select_features", whole.id());
    screen.selected = core::select_features_for_model(
        x_proper, y_proper, models::ModelKind::kXgboost, config,
        config.tree_prefilter);
  }
  const auto x_proper_sel = x_proper.take_cols(screen.selected);
  const auto x_calib_sel = x_calib.take_cols(screen.selected);
  auto pair = models::make_quantile_pair(models::ModelKind::kXgboost,
                                         config.alpha);
  {
    const ScopedSpan span(tracer, "models.quantile_fit", whole.id());
    pair->fit(x_proper_sel, y_proper);
  }
  double q_hat = 0.0;
  {
    const ScopedSpan span(tracer, "conformal.calibrate", whole.id());
    const auto band = pair->predict_interval(x_calib_sel);
    q_hat = stats::conformal_quantile(
        conformal::cqr_scores(y_calib, band.lower, band.upper), config.alpha);
  }
  conformal::CqrConfig cqr_config;
  cqr_config.split = config.split;
  screen.predictor =
      std::make_unique<conformal::ConformalizedQuantileRegressor>(
          config.alpha, std::move(pair), cqr_config);
  screen.predictor->import_calibration({q_hat, q_hat});
  out.bundle = core::make_screen_bundle(scenario, data, std::move(screen));
  {
    const ScopedSpan span(tracer, "artifact.encode", whole.id());
    out.bytes = artifact::encode_bundle(out.bundle);
  }
  {
    const ScopedSpan span(tracer, "artifact.decode", whole.id());
    out.predictor = std::make_unique<serve::VminPredictor>(
        artifact::decode_bundle(out.bytes));
  }
  return out;
}

/// A failed fit misses every limit: +inf in scenario_ms, and so in grid_s.
struct GridLoop : Tally {
  std::vector<double> scenario_ms;
  std::vector<double> grid_s;
  std::uint64_t mismatched = 0;     ///< decoded != in-memory screen
  std::uint64_t nondeterministic = 0;  ///< bytes differ from the first fit
  double width_mv = 0.0;            ///< mean validation width, first grid
};

class Grid {
 public:
  explicit Grid(const Setup& s) : setup_(s), scenarios_(paper_grid()) {
    reference_bytes_.resize(scenarios_.size());
  }

  /// Whole grids until `seconds` have passed and `min_grids` are done.
  /// `label` names the pass in violations.
  GridLoop run(double seconds, std::size_t min_grids, Tracer* tracer,
               const std::string& label) {
    GridLoop out;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (now_ns() < deadline || out.grid_s.size() < min_grids) {
      double grid_ms = 0.0;
      double width_sum = 0.0;
      for (std::size_t k = 0; k < scenarios_.size(); ++k) {
        ++out.attempted;
        Shipped shipped;
        const std::int64_t t0 = now_ns();
        try {
          shipped = tracer == nullptr
                        ? fit_and_ship(setup_, scenarios_[k])
                        : fit_and_ship_traced(setup_, scenarios_[k], *tracer);
        } catch (const std::exception&) {
          ++out.failed;
          out.scenario_ms.push_back(std::numeric_limits<double>::infinity());
          grid_ms = std::numeric_limits<double>::infinity();
          continue;
        }
        const double ms = ns_to_ms(now_ns() - t0);
        out.scenario_ms.push_back(ms);
        grid_ms += ms;
        width_sum += check(k, shipped, out);
      }
      if (out.grid_s.empty()) {
        out.width_mv = width_sum / static_cast<double>(scenarios_.size());
      }
      out.grid_s.push_back(grid_ms * 1e-3);
    }
    if (out.mismatched != 0) {
      out.violations.push_back(label + ": " + std::to_string(out.mismatched) +
                               " artifacts decode to intervals not bit-equal "
                               "to the in-memory screen's");
    }
    if (out.nondeterministic != 0) {
      out.violations.push_back(label + ": " +
                               std::to_string(out.nondeterministic) +
                               " refits produced different artifact bytes");
    }
    return out;
  }

 private:
  /// Untimed: the decoded artifact must reproduce the in-memory screen bit
  /// for bit on held-out chips, and every fit of a scenario must produce
  /// the same bytes. Returns the mean validation width in mV.
  double check(std::size_t k, const Shipped& shipped, GridLoop& out) {
    const auto& bundle = shipped.bundle;
    const auto x = setup_.validation.features().take_cols(
        bundle.dataset_columns);
    const auto reference =
        bundle.predictor->predict_interval(x.take_cols(bundle.selected_features));
    const auto served = shipped.predictor->predict_batch(x);
    double width = 0.0;
    bool equal = served.size() == reference.lower.size();
    for (std::size_t i = 0; equal && i < served.size(); ++i) {
      equal = same_bits(served[i].lower, reference.lower[i]) &&
              same_bits(served[i].upper, reference.upper[i]);
      width += served[i].upper - served[i].lower;
    }
    out.mismatched += !equal;
    if (reference_bytes_[k].empty()) {
      reference_bytes_[k] = shipped.bytes;
    } else if (reference_bytes_[k] != shipped.bytes) {
      ++out.nondeterministic;
    }
    return width / static_cast<double>(served.size()) * 1e3;
  }

  const Setup& setup_;
  std::vector<core::Scenario> scenarios_;
  std::vector<std::vector<std::uint8_t>> reference_bytes_;
};

/// Mean ms per scenario fit of every span with this name.
double per_fit_ms(const Tracer& tracer, const char* name, double fits) {
  double sum = 0.0;
  for (const double ms : tracer.durations_ms(name)) sum += ms;
  return sum / fits;
}

}  // namespace

WorkloadOutput run_refit_grid(const RunConfig& config) {
  WorkloadOutput out;
  WorkloadResult& r = out.result;
  parallel::set_max_threads(config.nproc);

  const core::Scenario warm_up = paper_grid().front();
  SetupRecord setup;
  const Setup s =
      time_setups(setup, [&] { return set_up(config.seed, warm_up); });
  r.config = {{"pool_width", std::to_string(config.nproc)},
              {"scenarios", std::to_string(paper_grid().size())},
              {"population_chips", std::to_string(kPaperChips)},
              {"validation_chips", std::to_string(kValidationChips)},
              {"chip_order_seed",
               std::to_string(derive_seed(config.seed, "chip_order"))}};

  Grid grid(s);
  const GridLoop plain = grid.run(
      config.trace ? config.seconds / 2 : config.seconds,
      config.trace ? 1 : kMinGrids, nullptr, "refit");
  r.absorb(plain);
  const double grid_median_s = median(plain.grid_s);

  if (!config.trace) {
    const auto tail = percentile(plain.scenario_ms, kScenarioTail);
    if (!tail) throw std::runtime_error("refit_grid: too few fits for p75");
    report_setup_and_rss(r, setup);
    report(r, "latency_ms_p50", "scenario_ms_p50", median(plain.scenario_ms),
           "ms");
    report(r, "interval_width_mv", "interval_width_mv", plain.width_mv, "mV");
    r.named.push_back({"scenario_ms_p75", *tail, "ms"});
    r.named.push_back({"refit_grid_s", grid_median_s, "s"});
    r.config.emplace_back("grids_timed", std::to_string(plain.grid_s.size()));
    return out;
  }

  Tracer tracer(1024);
  const GridLoop traced =
      grid.run(config.seconds / 2, 1, &tracer, "traced refit");
  r.absorb(traced);
  parallel::set_max_threads(1);
  const GridLoop width_one = grid.run(0.0, 1, nullptr, "width-1 refit");
  parallel::set_max_threads(config.nproc);
  r.absorb(width_one);

  const auto fits = static_cast<double>(traced.scenario_ms.size());
  const double whole = per_fit_ms(tracer, "refit.scenario", fits);
  LayerValues layers = {
      {"core.assemble_ms", per_fit_ms(tracer, "core.assemble", fits)},
      {"core.select_features_ms",
       per_fit_ms(tracer, "core.select_features", fits)},
      {"models.quantile_fit_ms", per_fit_ms(tracer, "models.quantile_fit", fits)},
      {"conformal.calibrate_ms", per_fit_ms(tracer, "conformal.calibrate", fits)},
      {"artifact.encode_ms", per_fit_ms(tracer, "artifact.encode", fits)},
      {"artifact.decode_ms", per_fit_ms(tracer, "artifact.decode", fits)},
  };
  std::vector<double> parts;
  for (const auto& [name, ms] : layers) parts.push_back(ms);
  layers["ledger_gap_frac"] = ledger_gap_frac(whole, parts);
  layers["parallel.fit_speedup"] = median(width_one.grid_s) / grid_median_s;
  layers["trace_overhead_frac"] = median(traced.grid_s) / grid_median_s - 1.0;
  out.layers = std::move(layers);
  write_trace_csv(config.trace_path, {{"refit", &tracer}});
  return out;
}

}  // namespace e2ebench
