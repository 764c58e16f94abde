#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "data/split.hpp"
#include "models/factory.hpp"
#include "rng/rng.hpp"
#include "workloads.hpp"

namespace e2ebench {

using namespace vmincqr;

artifact::VminBundle fit_paper_screen(const core::Scenario& scenario,
                                      const core::ScenarioData& data) {
  const core::PipelineConfig config = screen_config();
  auto screen = core::fit_screen(data, models::ModelKind::kXgboost, config,
                                 config.tree_prefilter);
  return core::make_screen_bundle(scenario, data, std::move(screen));
}

Product::Product(std::size_t n_fresh, std::uint64_t workload_seed)
    : fresh_(n_fresh) {
  silicon::GeneratorConfig config;
  config.n_chips = kPaperChips + n_fresh;
  generated_ = silicon::generate_dataset(config);
  std::iota(fresh_.begin(), fresh_.end(), kPaperChips);
  std::uint64_t state = derive_seed(workload_seed, "chip_order");
  for (std::size_t i = n_fresh; i > 1; --i) {
    std::swap(fresh_[i - 1], fresh_[splitmix64(state) % i]);
  }
}

data::Dataset Product::paper_population() const {
  std::vector<std::size_t> chips(kPaperChips);
  std::iota(chips.begin(), chips.end(), std::size_t{0});
  return generated_.dataset.take_chips(chips);
}

data::Dataset Product::take(std::size_t n) {
  if (next_ + n > fresh_.size()) {
    throw std::logic_error("Product::take: more chips than generated");
  }
  const std::vector<std::size_t> chips(
      fresh_.begin() + static_cast<std::ptrdiff_t>(next_),
      fresh_.begin() + static_cast<std::ptrdiff_t>(next_ + n));
  next_ += n;
  return generated_.dataset.take_chips(chips);
}

std::size_t calibration_size(std::size_t n_chips) {
  std::vector<std::size_t> indices(n_chips);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  rng::Rng rng(screen_config().split.seed);
  return data::train_calibration_split(indices,
                                       screen_config().split.train_fraction,
                                       rng)
      .calibration.size();
}

void report(WorkloadResult& result, const std::string& name,
            const std::string& alias, double value,
            const std::string& alias_unit) {
  const auto spec = std::find_if(
      kEndToEnd.begin(), kEndToEnd.end(),
      [&](const MetricSpec& m) { return name == m.name; });
  if (spec == kEndToEnd.end()) {
    throw std::logic_error("report: '" + name + "' is not an end_to_end metric");
  }
  result.end_to_end.push_back({name, value, spec->unit});
  result.named.push_back({alias, value, alias_unit});
}

void report_setup_and_rss(WorkloadResult& result, const SetupRecord& setup) {
  report(result, "setup_s", "setup_s", median(setup.seconds), "s");
  const double run_peak = rss_hwm_mib();
  report(result, "peak_rss_mb", "run_peak_rss_mb", run_peak, "MiB");
  result.named.push_back(
      {"process_peak_rss_mb", std::max(run_peak, setup.peak_mib), "MiB"});
  result.config.emplace_back(
      "peak_rss_scope", setup.rss_restarted ? "after set-up" : "whole process");
}

}  // namespace e2ebench
