#include "core/binning.hpp"

#include <algorithm>
#include <stdexcept>

namespace vmincqr::core {

namespace {

void check_config(const BinningConfig& config) {
  if (config.bin_voltages.empty()) {
    throw std::invalid_argument("bin_chips: no bin voltages");
  }
  if (!std::is_sorted(config.bin_voltages.begin(), config.bin_voltages.end()) ||
      std::adjacent_find(config.bin_voltages.begin(),
                         config.bin_voltages.end()) !=
          config.bin_voltages.end()) {
    throw std::invalid_argument("bin_chips: bins must be strictly ascending");
  }
}

}  // namespace

BinningResult bin_chips(const Vector& required_voltage, const Vector& truth,
                        const BinningConfig& config) {
  check_config(config);
  if (required_voltage.empty()) {
    throw std::invalid_argument("bin_chips: empty batch");
  }
  if (!truth.empty() && truth.size() != required_voltage.size()) {
    throw std::invalid_argument("bin_chips: truth length mismatch");
  }

  BinningResult result;
  result.bin_of_chip.assign(required_voltage.size(), -1);
  result.bin_counts.assign(config.bin_voltages.size(), 0);

  double voltage_sum = 0.0;
  std::size_t binnable = 0;
  std::size_t violations = 0;

  for (std::size_t i = 0; i < required_voltage.size(); ++i) {
    const auto it =
        std::lower_bound(config.bin_voltages.begin(),
                         config.bin_voltages.end(), required_voltage[i]);
    if (it == config.bin_voltages.end()) {
      ++result.n_unbinnable;
      continue;
    }
    const auto bin =
        static_cast<std::size_t>(it - config.bin_voltages.begin());
    result.bin_of_chip[i] = static_cast<int>(bin);
    ++result.bin_counts[bin];
    voltage_sum += config.bin_voltages[bin];
    ++binnable;
    if (!truth.empty() && truth[i] > config.bin_voltages[bin]) ++violations;
  }

  if (binnable > 0) {
    result.mean_voltage = voltage_sum / static_cast<double>(binnable);
    result.violation_rate =
        static_cast<double>(violations) / static_cast<double>(binnable);
  }
  return result;
}

BinningResult bin_by_point(const Vector& predicted, Millivolt guard_band,
                           const Vector& truth, const BinningConfig& config) {
  if (guard_band.value() < 0.0) {
    throw std::invalid_argument("bin_by_point: negative guard band");
  }
  Vector required(predicted.size());
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    required[i] = predicted[i] + guard_band.to_volts();
  }
  return bin_chips(required, truth, config);
}

double mean_voltage_saving(const BinningResult& a, const BinningResult& b,
                           const BinningConfig& config) {
  if (a.bin_of_chip.size() != b.bin_of_chip.size()) {
    throw std::invalid_argument("mean_voltage_saving: batch size mismatch");
  }
  double saving = 0.0;
  std::size_t common = 0;
  for (std::size_t i = 0; i < a.bin_of_chip.size(); ++i) {
    if (a.bin_of_chip[i] < 0 || b.bin_of_chip[i] < 0) continue;
    saving += config.bin_voltages[static_cast<std::size_t>(b.bin_of_chip[i])] -
              config.bin_voltages[static_cast<std::size_t>(a.bin_of_chip[i])];
    ++common;
  }
  return common ? saving / static_cast<double>(common) : 0.0;
}

}  // namespace vmincqr::core
