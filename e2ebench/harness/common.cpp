#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace e2ebench {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t workload_seed, const char* stream) {
  // FNV-1a over the tag, folded into the seed and scrambled once more.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char* p = stream; *p != '\0'; ++p) {
    h ^= static_cast<unsigned char>(*p);
    h *= 0x100000001B3ULL;
  }
  std::uint64_t state = workload_seed ^ h;
  return splitmix64(state);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                           double rate_per_s,
                                           double duration_s) {
  std::vector<std::int64_t> due;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return due;
  due.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
  std::uint64_t state = seed;
  const double horizon_ns = duration_s * 1e9;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-uniform01(state)) / rate_per_s * 1e9;
    if (t >= horizon_ns) break;
    due.push_back(static_cast<std::int64_t>(t));
  }
  return due;
}

std::vector<std::int64_t> fixed_count_schedule(std::uint64_t seed,
                                               std::size_t count,
                                               double duration_s) {
  std::vector<std::int64_t> due(count);
  std::uint64_t state = seed;
  for (auto& t : due) {
    t = static_cast<std::int64_t>(uniform01(state) * duration_s * 1e9);
  }
  std::sort(due.begin(), due.end());
  return due;
}

std::optional<double> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double ledger_gap_frac(double whole, const std::vector<double>& parts) {
  double sum = 0.0;
  for (const double part : parts) sum += part;
  return 1.0 - sum / whole;
}

double handoff_frac(double predict_1row, double online_p50) {
  return 1.0 - predict_1row / online_p50;
}

std::size_t Tracer::open(const char* name, std::size_t parent) {
  spans_.push_back({name, parent, 0, now_ns(), 0});
  return spans_.size() - 1;
}

void Tracer::close(std::size_t span) { spans_[span].end_ns = now_ns(); }

std::size_t Tracer::add(const char* name, std::int64_t start_ns,
                        std::int64_t end_ns, std::size_t parent,
                        std::uint64_t request) {
  spans_.push_back({name, parent, request, start_ns, end_ns});
  return spans_.size() - 1;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(ns_to_ms(s.end_ns - s.start_ns));
  }
  return out;
}

bool write_trace_csv(
    const std::string& path,
    const std::vector<std::pair<std::string, const Tracer*>>& tracers) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "tracer,name,span,parent,request,start_ns,end_ns\n";
  for (const auto& [label, tracer] : tracers) {
    const auto& spans = tracer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Tracer::Span& s = spans[i];
      out << label << ',' << s.name << ',' << i << ','
          << (s.parent == Tracer::kNoParent ? -1
                                            : static_cast<long long>(s.parent))
          << ',' << s.request << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out.flush());
}

double rss_hwm_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line reads "<n> kB"
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

bool restart_rss_hwm() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";  // 5: reset the peak resident set size
  return static_cast<bool>(clear_refs.flush());
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000U, nullptr);
  if (max_ext >= 0x80000004U) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002U + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string text(brand);
    const auto first = text.find_first_not_of(' ');
    const auto last = text.find_last_not_of(' ');
    if (first != std::string::npos) return text.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace e2ebench
