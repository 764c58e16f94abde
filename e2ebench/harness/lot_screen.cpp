// lot_screen: tester screening. One caller, closed loop, pool width = nproc.
// Each iteration is one serve::VminPredictor::predict_batch on a fresh
// 1,024-chip lot of full design rows (168 h, 25 C, on-chip+parametric: 2,512
// columns, ~20 MB a lot). The lots cycle through kLots distinct populations
// whose combined size exceeds the host's last-level cache, so every lot is
// streamed from memory as a real tester's would be.
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "conformal/cqr.hpp"
#include "data/scaler.hpp"
#include "models/region.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/vmin_predictor.hpp"
#include "workloads.hpp"

namespace e2ebench {

using namespace vmincqr;

namespace {

constexpr std::size_t kLotChips = 1024;
/// 8 lots x 1,024 chips x 2,512 columns x 8 B = 157 MiB, past the 105 MiB
/// last-level cache of the host the benchmark was sized on.
constexpr std::size_t kLots = 8;
/// p95 needs 200 lots; a run never reports on fewer than this.
constexpr std::size_t kMinLots = 220;
/// Passes over the lots at width 1 for serve.predict_batch_w1_ms.
constexpr std::size_t kWidthOnePasses = 2;
const core::Scenario kScenario{168.0, 25.0, core::FeatureSet::kBoth};

struct Lot {
  linalg::Matrix x;  ///< full design rows, artifact column order
  linalg::Vector y;  ///< true Vmin at the scenario
  models::IntervalPrediction reference;
};

struct Setup {
  std::unique_ptr<serve::VminPredictor> predictor;
  std::vector<Lot> lots;
};

Setup set_up(std::uint64_t seed) {
  Setup s;
  // One spare lot's worth of fresh chips, so the seed also picks which
  // chips are screened.
  Product product((kLots + 1) * kLotChips, seed);
  const auto data =
      core::assemble_scenario(product.paper_population(), kScenario);
  const auto bytes = artifact::encode_bundle(fit_paper_screen(kScenario, data));
  s.predictor = std::make_unique<serve::VminPredictor>(
      serve::VminPredictor::from_bytes(bytes));

  const auto& bundle = s.predictor->bundle();
  s.lots.resize(kLots);
  for (Lot& lot : s.lots) {
    const auto chips = product.take(kLotChips);
    lot.x = chips.features().take_cols(bundle.dataset_columns);
    lot.y = core::scenario_labels(chips, kScenario);
    lot.reference = bundle.predictor->predict_interval(
        lot.x.take_cols(bundle.selected_features));
    (void)s.predictor->predict_batch(lot.x);  // warm the serve path
  }
  return s;
}

/// Counts intervals that differ in any bit from the lot's reference.
std::size_t mismatches(const std::vector<serve::IntervalPrediction>& served,
                       const Lot& lot) {
  std::size_t bad = served.size() == lot.y.size() ? 0 : lot.y.size();
  for (std::size_t i = 0; i < served.size() && bad == 0; ++i) {
    if (!same_bits(served[i].lower, lot.reference.lower[i]) ||
        !same_bits(served[i].upper, lot.reference.upper[i])) {
      ++bad;
    }
  }
  return bad;
}

struct LoopStats : Tally {
  /// Per lot; a failed predict_batch misses every limit (+inf).
  std::vector<double> lot_ms;
};

/// One closed-loop pass: predict_batch per lot until `seconds` have passed
/// and at least `min_lots` lots are in. With a tracer, each predict_batch is
/// a span and the layer replays follow it on the same lot. `label` names the
/// pass in violations.
LoopStats screen_lots(const Setup& s, double seconds, std::size_t min_lots,
                      Tracer* tracer, const std::string& label) {
  LoopStats out;
  std::uint64_t mismatched_lots = 0;
  const auto& bundle = s.predictor->bundle();
  const auto& cqr =
      dynamic_cast<const conformal::ConformalizedQuantileRegressor&>(
          *bundle.predictor);
  const auto& pair =
      dynamic_cast<const models::QuantilePairRegressor&>(cqr.base());
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0; now_ns() < deadline || out.lot_ms.size() < min_lots;
       ++i) {
    const Lot& lot = s.lots[i % kLots];
    ++out.attempted;
    std::vector<serve::IntervalPrediction> served;
    const std::int64_t t0 = now_ns();
    try {
      served = s.predictor->predict_batch(lot.x);
    } catch (const std::exception&) {
      ++out.failed;
      out.lot_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    const std::int64_t t1 = now_ns();
    out.lot_ms.push_back(ns_to_ms(t1 - t0));
    if (mismatches(served, lot) != 0) ++mismatched_lots;
    if (tracer == nullptr) continue;

    tracer->add("serve.predict_batch", t0, t1);
    linalg::Matrix design;
    {
      // The gather predict_batch performs: defensive copy, optional input
      // scaler, then the selected-column take.
      const ScopedSpan span(*tracer, "serve.gather");
      linalg::Matrix scratch = lot.x;
      if (bundle.has_input_scaler) {
        data::StandardScaler scaler;
        scaler.import_params(bundle.input_scaler);
        scratch = scaler.transform(scratch);
      }
      design = scratch.take_cols(bundle.selected_features);
    }
    {
      const ScopedSpan span(*tracer, "models.lower_predict");
      (void)pair.lower_model().predict(design);
    }
    {
      const ScopedSpan span(*tracer, "models.upper_predict");
      (void)pair.upper_model().predict(design);
    }
    {
      const ScopedSpan span(*tracer, "conformal.base_interval");
      (void)pair.predict_interval(design);
    }
    {
      const ScopedSpan span(*tracer, "conformal.cqr_interval");
      (void)cqr.predict_interval(design);
    }
  }
  if (mismatched_lots != 0) {
    out.violations.push_back(label + ": " + std::to_string(mismatched_lots) +
                             " lots not bit-equal to the artifact's reference");
  }
  return out;
}

}  // namespace

WorkloadOutput run_lot_screen(const RunConfig& config) {
  WorkloadOutput out;
  WorkloadResult& r = out.result;
  parallel::set_max_threads(config.nproc);

  SetupRecord setup;
  const Setup s = time_setups(setup, [&] { return set_up(config.seed); });
  const auto& bundle = s.predictor->bundle();
  r.config = {{"pool_width", std::to_string(config.nproc)},
              {"lot_chips", std::to_string(kLotChips)},
              {"distinct_lots", std::to_string(kLots)},
              {"design_columns", std::to_string(bundle.dataset_columns.size())},
              {"selected_columns",
               std::to_string(bundle.selected_features.size())},
              {"chip_order_seed",
               std::to_string(derive_seed(config.seed, "chip_order"))}};

  // Fresh-lot coverage gate: at least 1 - alpha minus a binomial slack of
  // three standard errors, counting both the calibration draw (n_cal) and
  // the finite fresh sample (n_fresh).
  const double alpha = s.predictor->info().miscoverage;
  std::size_t covered = 0;
  std::size_t n_fresh = 0;
  double width_sum = 0.0;
  for (const Lot& lot : s.lots) {
    for (std::size_t i = 0; i < lot.y.size(); ++i) {
      covered += lot.reference.lower[i] <= lot.y[i] &&
                 lot.y[i] <= lot.reference.upper[i];
      width_sum += lot.reference.upper[i] - lot.reference.lower[i];
      ++n_fresh;
    }
  }
  const auto n_cal = static_cast<double>(calibration_size(kPaperChips));
  const double slack =
      3.0 * std::sqrt(alpha * (1.0 - alpha) *
                      (1.0 / n_cal + 1.0 / static_cast<double>(n_fresh)));
  const double coverage =
      static_cast<double>(covered) / static_cast<double>(n_fresh);
  r.config.emplace_back("coverage", json_number(coverage));
  r.config.emplace_back("coverage_floor", json_number(1.0 - alpha - slack));
  if (coverage < 1.0 - alpha - slack) {
    r.violate("fresh-lot coverage " + json_number(coverage) + " below " +
              json_number(1.0 - alpha - slack));
  }

  const double untraced_seconds = config.trace ? config.seconds / 2 : config.seconds;
  const LoopStats plain =
      screen_lots(s, untraced_seconds, kMinLots, /*tracer=*/nullptr, "lots");
  r.absorb(plain);
  const double p50 = median(plain.lot_ms);
  const auto tail = percentile(plain.lot_ms, 0.95);
  if (!tail) throw std::runtime_error("lot_screen: too few lots for p95");
  double total_ms = 0.0;
  for (const double ms : plain.lot_ms) total_ms += ms;

  if (!config.trace) {
    report_setup_and_rss(r, setup);
    report(r, "latency_ms_p50", "lot_ms_p50", p50, "ms");
    report(r, "interval_width_mv", "interval_width_mv",
           width_sum / static_cast<double>(n_fresh) * 1e3, "mV");
    r.named.push_back({"lot_ms_p95", *tail, "ms"});
    r.named.push_back({"lot_rows_per_s",
                       static_cast<double>(plain.lot_ms.size() * kLotChips) /
                           (total_ms * 1e-3),
                       "chips/s"});
    r.config.emplace_back("lots_timed", std::to_string(plain.lot_ms.size()));
    return out;
  }

  Tracer tracer(16 * 1024);
  const LoopStats traced =
      screen_lots(s, config.seconds / 2, kLots, &tracer, "traced lots");
  r.absorb(traced);
  parallel::set_max_threads(1);
  const LoopStats width_one = screen_lots(s, 0.0, kWidthOnePasses * kLots,
                                          /*tracer=*/nullptr, "width-1 lots");
  parallel::set_max_threads(config.nproc);
  r.absorb(width_one);

  const double predict_ms = median(tracer.durations_ms("serve.predict_batch"));
  const double gather_ms = median(tracer.durations_ms("serve.gather"));
  const double lower_ms = median(tracer.durations_ms("models.lower_predict"));
  const double upper_ms = median(tracer.durations_ms("models.upper_predict"));
  const auto base = tracer.durations_ms("conformal.base_interval");
  const auto full = tracer.durations_ms("conformal.cqr_interval");
  std::vector<double> offset(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) offset[i] = full[i] - base[i];
  const double offset_ms = median(offset);
  const double w1_ms = median(width_one.lot_ms);
  const double n_cols = static_cast<double>(bundle.dataset_columns.size());
  const double n_sel = static_cast<double>(bundle.selected_features.size());

  out.layers = {
      {"serve.predict_batch_ms", predict_ms},
      {"serve.gather_ms", gather_ms},
      // Computed, not measured: the copy reads and writes every column, the
      // take reads and writes the selected ones (8-byte doubles).
      {"serve.gather_bytes_per_row", 8.0 * (2.0 * n_cols + 2.0 * n_sel)},
      {"models.lower_predict_ms", lower_ms},
      {"models.upper_predict_ms", upper_ms},
      {"conformal.offset_ms", offset_ms},
      {"serve.predict_batch_w1_ms", w1_ms},
      {"parallel.speedup", w1_ms / p50},
      {"ledger_gap_frac",
       ledger_gap_frac(predict_ms, {gather_ms, lower_ms, upper_ms, offset_ms})},
      {"trace_overhead_frac", predict_ms / p50 - 1.0},
  };
  write_trace_csv(config.trace_path, {{"caller", &tracer}});
  return out;
}

}  // namespace e2ebench
