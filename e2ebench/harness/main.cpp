// e2ebench_harness: runs one workload once and prints its metrics.
//
//   e2ebench_harness --workload lot_screen|infield_online|refit_grid
//                    --seed N --seconds S --trace 0|1 --results-dir DIR
//   e2ebench_harness --list-metrics
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end_to_end metrics with --trace 0, the per_layer ones with
// --trace 1. Lines before it are the human-readable table. The full record
// (host and config blocks, the workload's own metric names, correctness
// violations) is written to the results directory as JSON, and a traced run
// also writes its spans there as CSV.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace e2ebench;

int usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench_harness: %s\nusage: e2ebench_harness --workload "
               "lot_screen|infield_online|refit_grid --seed N --seconds S "
               "--trace 0|1 --results-dir DIR\n",
               why);
  return 2;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

std::string pairs_json(
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  std::string out = "{";
  for (const auto& [key, value] : pairs) {
    if (out.size() > 1) out += ", ";
    out += json_string(key) + ": " + json_string(value);
  }
  return out + "}";
}

std::vector<std::pair<std::string, std::string>> host_block(
    const RunConfig& config) {
  return {{"nproc", std::to_string(config.nproc)},
          {"cpu_model", cpu_model()},
          {"build_type", E2EBENCH_BUILD_TYPE}};
}

void print_table(const std::string& workload, const std::vector<Metric>& rows) {
  for (const Metric& m : rows) {
    std::printf("%-15s %-28s %18.6g %s\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string results_dir;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const auto& m : kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
      for (const auto& m : kPerLayer) std::printf("per_layer %s %s\n", m.name, m.unit);
      return 0;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        config.workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
        have_seconds = config.seconds > 0.0;
      } else if (arg == "--trace") {
        config.trace = value == "1";
        have_trace = value == "0" || value == "1";
      } else if (arg == "--results-dir") {
        results_dir = value;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || results_dir.empty()) {
    return usage(
        "--seed, --seconds (> 0), --trace 0|1 and --results-dir are required");
  }
  config.nproc = std::max(1U, std::thread::hardware_concurrency());
  const std::string stem = results_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0");
  config.trace_path = stem + ".spans.csv";

  WorkloadOutput output;
  try {
    if (config.workload == "lot_screen") {
      output = run_lot_screen(config);
    } else if (config.workload == "infield_online") {
      output = run_infield_online(config);
    } else if (config.workload == "refit_grid") {
      output = run_refit_grid(config);
    } else {
      return usage(("unknown workload '" + config.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench_harness: %s failed: %s\n",
                 config.workload.c_str(), e.what());
    return 3;
  }

  WorkloadResult& r = output.result;
  if (config.trace) {
    for (const auto& spec : kPerLayer) {
      const auto it = output.layers.find(spec.name);
      r.per_layer.push_back(
          {spec.name, it == output.layers.end() ? 0.0 : it->second, spec.unit});
    }
  }
  // A metric that cannot be given as a finite number (every timed operation
  // behind it failed) leaves the run without a result.
  for (const Metric& m : config.trace ? r.per_layer : r.end_to_end) {
    if (!std::isfinite(m.value)) r.violate(m.name + " is not finite");
  }
  const std::vector<Metric> none;
  const std::vector<Metric>& metrics =
      !r.correct ? none : (config.trace ? r.per_layer : r.end_to_end);

  for (const auto& [key, value] : host_block(config)) {
    std::printf("# host %s = %s\n", key.c_str(), value.c_str());
  }
  std::printf("# seed = %llu, seconds = %g, trace = %d\n",
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const auto& [key, value] : r.config) {
    std::printf("# config %s = %s\n", key.c_str(), value.c_str());
  }
  for (const auto& v : r.violations) {
    std::fprintf(stderr, "e2ebench_harness: correctness: %s\n", v.c_str());
  }
  if (r.correct) print_table(config.workload, config.trace ? r.per_layer : r.named);

  {
    std::ofstream file(stem + ".json", std::ios::trunc);
    std::string violations = "[";
    for (const auto& v : r.violations) {
      violations += (violations.size() > 1 ? ", " : "") + json_string(v);
    }
    file << "{\"workload\": " << json_string(config.workload)
         << ", \"seed\": " << config.seed
         << ", \"seconds\": " << json_number(config.seconds)
         << ", \"trace\": " << (config.trace ? 1 : 0)
         << ", \"host\": " << pairs_json(host_block(config))
         << ", \"config\": " << pairs_json(r.config)
         << ", \"correct\": " << (r.correct ? "true" : "false")
         << ", \"violations\": " << violations << "]"
         << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
         << ", \"metrics\": " << metrics_json(metrics)
         << ", \"named\": " << metrics_json(r.correct ? r.named : none)
         << "}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
