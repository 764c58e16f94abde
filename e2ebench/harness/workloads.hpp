// The three paper-shaped workloads and the metric registry they report
// against. Every workload reports every registered metric: a per-layer
// metric whose layer a workload never calls reads 0 there.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "silicon/dataset_gen.hpp"

namespace e2ebench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// BENCHMARK.json end_to_end, in order. The per-workload meaning of each is
/// in e2ebench/README.md.
inline const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"latency_ms_p50", "ms"},
    {"interval_width_mv", "mV"},
};

/// BENCHMARK.json per_layer, in order.
inline const std::vector<MetricSpec> kPerLayer = {
    {"serve.predict_batch_ms", "ms"},
    {"serve.gather_ms", "ms"},
    {"serve.gather_bytes_per_row", "B"},
    {"models.lower_predict_ms", "ms"},
    {"models.upper_predict_ms", "ms"},
    {"conformal.offset_ms", "ms"},
    {"serve.predict_batch_w1_ms", "ms"},
    {"parallel.speedup", "x"},
    {"daemon.submit_us_p50", "us"},
    {"daemon.submit_us_p99", "us"},
    {"daemon.resolve_us_p50", "us"},
    {"daemon.resolve_us_p99", "us"},
    {"daemon.rows_per_batch", "rows"},
    {"daemon.max_queue_depth", "count"},
    {"daemon.shed_queue_full", "count"},
    {"daemon.internal_error", "count"},
    {"serve.predict_batch_1row_us", "us"},
    {"daemon.handoff_frac", "frac"},
    {"daemon.swap_ms_p50", "ms"},
    {"daemon.swap_ms_p95", "ms"},
    {"daemon.publish_us", "us"},
    {"daemon.epochs_served", "count"},
    {"gen.late_us_p99", "us"},
    {"core.assemble_ms", "ms"},
    {"core.select_features_ms", "ms"},
    {"models.quantile_fit_ms", "ms"},
    {"conformal.calibrate_ms", "ms"},
    {"artifact.encode_ms", "ms"},
    {"artifact.decode_ms", "ms"},
    {"parallel.fit_speedup", "x"},
    {"ledger_gap_frac", "frac"},
    {"trace_overhead_frac", "frac"},
};

/// The paper's characterization population size (Table II).
inline constexpr std::size_t kPaperChips = 156;
/// Setups per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// CQR-GBT (XGBoost-style quantile pair, alpha = 0.1, symmetric) fitted by
/// core::fit_screen with the library's default pipeline settings.
inline vmincqr::core::PipelineConfig screen_config() {
  return vmincqr::core::PipelineConfig{};
}

/// Fits the paper's screen for `scenario` on `data` and packages it.
vmincqr::artifact::VminBundle fit_paper_screen(
    const vmincqr::core::Scenario& scenario,
    const vmincqr::core::ScenarioData& data);

/// The one product every workload draws its chips from: one generator run
/// at the library's default (paper) seed, which fixes the product's
/// parametric-test and monitor catalogue. Its first 156 chips are the
/// paper's characterization population, the same for every workload seed;
/// the fresh chips after them come out in an order drawn from the workload
/// seed.
class Product {
 public:
  Product(std::size_t n_fresh, std::uint64_t workload_seed);

  /// The paper population (156 chips), labels included.
  [[nodiscard]] vmincqr::data::Dataset paper_population() const;
  /// The next `n` fresh chips of the seeded order, labels included.
  vmincqr::data::Dataset take(std::size_t n);

 private:
  vmincqr::silicon::GeneratedDataset generated_;
  std::vector<std::size_t> fresh_;
  std::size_t next_ = 0;
};

/// Calibration-set size fit_screen uses on an n-chip population.
std::size_t calibration_size(std::size_t n_chips);

/// Per-layer values by name; names missing from the map report 0.
using LayerValues = std::map<std::string, double>;

struct WorkloadOutput {
  WorkloadResult result;
  LayerValues layers;
};

WorkloadOutput run_lot_screen(const RunConfig& config);
WorkloadOutput run_infield_online(const RunConfig& config);
WorkloadOutput run_refit_grid(const RunConfig& config);

/// Adds `value` under `name` (with its registered unit) to the end-to-end
/// metrics, and under `alias`, the workload's own name for it, with
/// `alias_unit` to the table.
void report(WorkloadResult& result, const std::string& name,
            const std::string& alias, double value,
            const std::string& alias_unit);

/// What time_setups measured.
struct SetupRecord {
  std::vector<double> seconds;  ///< one per repetition
  double peak_mib = 0.0;        ///< resident-set peak over all set-ups
  bool rss_restarted = false;   ///< high-water mark restarted after set-up
};

/// Runs `make` kSetupReps times and returns the last result. Each
/// repetition's result is freed before the next is timed. Afterwards the
/// resident-set high-water mark restarts, so peak_rss_mb measures the
/// library at work on the timed phase's inputs, not the input generator's
/// set-up scratch (generated chips, fit data), which is freed by then.
template <class Make>
auto time_setups(SetupRecord& record, Make&& make) -> decltype(make()) {
  decltype(make()) s{};
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s = {};
    const std::int64_t t0 = now_ns();
    s = make();
    record.seconds.push_back(ns_to_ms(now_ns() - t0) * 1e-3);
  }
  record.peak_mib = rss_hwm_mib();
  record.rss_restarted = restart_rss_hwm();
  return s;
}

/// Reports setup_s (median of the repetitions) and peak_rss_mb (the
/// resident-set peak since set-up ended), and puts the whole-process peak
/// in the table. Call at the end of the timed phase.
void report_setup_and_rss(WorkloadResult& result, const SetupRecord& setup);

}  // namespace e2ebench
