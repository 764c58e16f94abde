// Shared pieces of the end-to-end benchmark harness: seed derivation, the
// open-loop arrival schedule, percentile and ledger arithmetic, the span
// recorder used by traced runs, and the result record every workload fills.
//
// Everything here is measurement code: it never reaches into src/ internals,
// it only times calls into the library's public functions from outside.
#pragma once

#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace e2ebench {

// ---------------------------------------------------------------- seeds ---

/// One splitmix64 step; the harness's only random source (the library's
/// silicon generator draws its own streams from the seeds derived here).
std::uint64_t splitmix64(std::uint64_t& state);

/// Derives an independent stream seed from the workload seed and a stream
/// tag, so lots, query streams, arrival times and the swap schedule each
/// depend on --seed alone and never on one another.
std::uint64_t derive_seed(std::uint64_t workload_seed, const char* stream);

/// Uniform double in [0, 1) from a splitmix64 state.
double uniform01(std::uint64_t& state);

// ---------------------------------------------------------------- clock ---

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (an arbitrary but fixed origin).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

// ------------------------------------------------------------- schedule ---

/// Poisson arrival offsets (ns from the start of the phase) at `rate_per_s`
/// over `duration_s`: exponential gaps drawn from `seed`. The same seed and
/// arguments always give the same schedule.
std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                           double rate_per_s,
                                           double duration_s);

/// Exactly `count` event offsets (ns from the start of the phase) over
/// `duration_s`: sorted independent uniform draws from `seed`, i.e. a
/// Poisson process conditioned on its count. Used where a percentile needs
/// a guaranteed sample count.
std::vector<std::int64_t> fixed_count_schedule(std::uint64_t seed,
                                               std::size_t count,
                                               double duration_s);

// ---------------------------------------------------------- percentiles ---

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile at q in (0, 1): the value at rank ceil(q * n).
/// Returns nullopt unless at least kMinSamplesBeyond samples rank above it,
/// so a tail figure is never read off a handful of points.
std::optional<double> percentile(std::vector<double> samples, double q);

/// Median (mean of the middle pair for an even count); 0 for no samples.
double median(std::vector<double> samples);

// --------------------------------------------------------------- ledger ---

/// Share of `whole` that the listed layer times do not account for:
/// 1 - sum(parts) / whole.
double ledger_gap_frac(double whole, const std::vector<double>& parts);

/// Share of an online query's median latency that is not prediction:
/// 1 - predict_1row / online_p50 (same unit on both sides).
double handoff_frac(double predict_1row, double online_p50);

// ---------------------------------------------------------------- trace ---

/// In-memory span recorder for the traced run. Spans are opened and closed
/// from ONE thread (each thread that traces owns its own Tracer); nothing is
/// written until write_trace_csv at exit. Names must be string literals.
class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    const char* name = nullptr;
    std::size_t parent = kNoParent;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  explicit Tracer(std::size_t reserve = 0) { spans_.reserve(reserve); }

  /// Opens a span now; returns its id for close() and for child spans.
  std::size_t open(const char* name, std::size_t parent = kNoParent);
  void close(std::size_t span);
  /// Records an already-measured span.
  std::size_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                  std::size_t parent = kNoParent, std::uint64_t request = 0);

  /// Durations (ms) of every span with this name, in recording order.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Scoped span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name,
             std::size_t parent = Tracer::kNoParent)
      : tracer_(tracer), id_(tracer.open(name, parent)) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::size_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::size_t id_;
};

/// Writes spans as CSV (tracer,name,parent,request,start_ns,end_ns). Each
/// tracer's spans are tagged with its label; parent ids index within it.
/// Returns false if the file could not be written.
bool write_trace_csv(const std::string& path,
                     const std::vector<std::pair<std::string, const Tracer*>>&
                         tracers);

// --------------------------------------------------------------- result ---

/// Bit-for-bit equality (so -0.0 != 0.0 and NaNs compare by payload).
inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one timed loop did: operations attempted, how many failed, and the
/// correctness-gate failures it found.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
};

/// What one workload run reports.
struct WorkloadResult {
  bool correct = true;
  std::vector<std::string> violations;  ///< correctness-gate failures
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// BENCHMARK.json end_to_end metrics, untraced runs only.
  std::vector<Metric> end_to_end;
  /// The same figures under this workload's own names, for the table.
  std::vector<Metric> named;
  /// BENCHMARK.json per_layer metrics, traced runs only.
  std::vector<Metric> per_layer;
  /// Workload configuration for the result's config block (key, value).
  std::vector<std::pair<std::string, std::string>> config;

  void violate(std::string what) {
    correct = false;
    violations.push_back(std::move(what));
  }

  /// Adds a timed loop's counts and violations to the run's.
  void absorb(const Tally& loop) {
    attempted += loop.attempted;
    failed += loop.failed;
    for (const auto& v : loop.violations) violate(v);
  }
};

/// Run parameters shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t nproc = 1;
  std::string trace_path;  ///< where the traced run writes its spans
};

/// Resident-set high-water mark of this process (VmHWM), in MiB.
double rss_hwm_mib();

/// Restarts the resident-set high-water mark from the current resident set,
/// so rss_hwm_mib() then reads the peak from this point on. False if the
/// kernel refused the reset (rss_hwm_mib() then still reads the
/// whole-process peak). It deliberately does not malloc_trim: handing the
/// freed heap back made the daemon's allocations fault it in again, and
/// raised the infield_online p99 from about 0.1 ms to 6-12 ms on a
/// 4-vCPU VM.
bool restart_rss_hwm();

/// CPU brand string (from CPUID; "unknown" where unavailable).
std::string cpu_model();

/// Shortest decimal text that round-trips the double.
std::string json_number(double value);
std::string json_string(const std::string& text);

}  // namespace e2ebench
