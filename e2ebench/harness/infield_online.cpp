// infield_online: in-field per-chip serving, the paper's application for
// on-chip monitors. One generator thread, one VminDaemon::submit per chip,
// default DaemonConfig. Each query is one chip's on-chip-only monitor row
// (168 h, 712 columns). Beside the reads, a single installer thread
// hot-swaps between two in-field artifacts fitted on two disjoint
// characterization draws, at seeded uniform random times.
//
// Open loop: Poisson arrivals at kNominalQps, well below the daemon's knee;
// latency is timed from each request's due time. A phase whose client fell
// behind its own schedule (lateness over kMaxLateUsP50 or kMaxLateUsP99) is
// invalid.
//
// Thread budget: generator + installer + batcher + pool workers <= nproc,
// so the pool (whose lane 0 is the batcher) is nproc - 2 wide.
#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "daemon/vmin_daemon.hpp"
#include "open_loop.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/vmin_predictor.hpp"
#include "workloads.hpp"

namespace e2ebench {

using namespace vmincqr;

namespace {

const core::Scenario kScenario{168.0, 25.0, core::FeatureSet::kOnChipOnly};
/// Distinct chips the query stream draws from.
constexpr std::size_t kQueryChips = 4096;
/// Nominal rate, well below the daemon's knee (which is bimodal on a 4-core
/// host: near it a run either keeps up or sheds thousands).
constexpr double kNominalQps = 20000.0;
/// Limits on the client's own lateness (send time minus due time); past
/// either, the client did not keep its schedule and the phase is invalid.
/// The median limit is a tenth of the mean arrival gap at kNominalQps
/// (50 us), so the client cannot move online p50 by more than that. The p99
/// limit is 1 ms, the latency limit a served query is held to.
constexpr double kMaxLateUsP50 = 0.1 * 1e6 / kNominalQps;
constexpr double kMaxLateUsP99 = 1000.0;
/// Swaps in the traced half, which times daemon.swap_ms_p95: the fewest
/// that leave kMinSamplesBeyond (10) swaps beyond the p95 rank. The swap
/// rate is this count over the traced half's length, the same in every
/// phase, and each phase has exactly rate x length swaps.
constexpr std::size_t kTracedSwaps = 210;
/// Replays for serve.predict_batch_1row_us and artifact.decode_ms.
constexpr std::size_t kOneRowReplays = 4000;
constexpr std::size_t kDecodeReplays = 60;
const char* const kKeys[2] = {"infield-a", "infield-b"};

struct Setup {
  std::vector<std::uint8_t> bytes[2];
  linalg::Matrix queries;  ///< design rows, artifact column order
  std::vector<serve::IntervalPrediction> reference[2];
  std::unique_ptr<daemon::VminDaemon> daemon;  ///< artifact A installed
};

std::unique_ptr<daemon::VminDaemon> new_daemon(const Setup& s) {
  auto d = std::make_unique<daemon::VminDaemon>();
  (void)d->install_bytes(kKeys[0], s.bytes[0]);
  return d;
}

Setup set_up(std::uint64_t seed) {
  Setup s;
  // Artifact A characterizes on the paper population, artifact B on a
  // second 156-chip draw of fresh chips; then the query chips.
  Product product(kPaperChips + kQueryChips, seed);
  std::vector<std::size_t> columns;
  for (std::size_t a = 0; a < 2; ++a) {
    const auto data = core::assemble_scenario(
        a == 0 ? product.paper_population() : product.take(kPaperChips),
        kScenario);
    s.bytes[a] = artifact::encode_bundle(fit_paper_screen(kScenario, data));
    columns = data.columns;
  }
  s.queries = product.take(kQueryChips).features().take_cols(columns);
  for (std::size_t a = 0; a < 2; ++a) {
    s.reference[a] =
        serve::VminPredictor::from_bytes(s.bytes[a]).predict_batch(s.queries);
  }
  s.daemon = new_daemon(s);
  return s;
}

/// `failed` counts non-kOk responses and failed installs.
struct Phase : Tally {
  std::vector<OpenLoopRecord> records;
  std::vector<bool> ok;         ///< kOk response per request
  std::vector<double> swap_ms;  ///< install_bytes durations
  std::vector<double> late_ms;  ///< client lateness per request
  double late_us_p50 = 0.0;
  double late_us_p99 = 0.0;  ///< +inf when too few requests for a p99
  daemon::DaemonStats stats;
  std::set<std::uint64_t> epochs_served;

  /// Latency from due time per request; failures miss every limit (+inf).
  [[nodiscard]] std::vector<double> latency_ms() const {
    std::vector<double> out(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      out[i] = ok[i] ? ns_to_ms(latency_from_due_ns(records[i]))
                     : std::numeric_limits<double>::infinity();
    }
    return out;
  }
};

/// One phase on a constructed (not yet started) daemon: the daemon is
/// started, driven by the client, stopped, and every response checked bit
/// for bit against the reference of the epoch it names.
Phase run_phase(const Setup& s, daemon::VminDaemon& d, double seconds,
                double swaps_per_s, std::uint64_t phase_seed,
                Tracer* generator, Tracer* installer) {
  Phase p;
  const auto due = poisson_schedule(derive_seed(phase_seed, "arrivals"),
                                    kNominalQps, seconds);
  const auto swaps = fixed_count_schedule(
      derive_seed(phase_seed, "swaps"),
      static_cast<std::size_t>(std::llround(swaps_per_s * seconds)), seconds);
  std::vector<std::size_t> rows(due.size());
  std::uint64_t row_state = derive_seed(phase_seed, "rows");
  for (auto& row : rows) row = splitmix64(row_state) % s.queries.rows();

  // The first epoch is artifact A (installed at construction); the
  // installer alternates B, A, B, ... and records which artifact each epoch
  // carries.
  std::map<std::uint64_t, std::size_t> epoch_artifact = {
      {d.active_epoch(), 0}};
  std::uint64_t install_failures = 0;
  d.start();
  const std::int64_t start = now_ns() + 1'000'000;
  std::jthread installer_thread([&] {  // joins on unwind too
    for (std::size_t k = 0; k < swaps.size(); ++k) {
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(start + swaps[k])));
      const std::size_t which = (k + 1) % 2;
      const std::int64_t t0 = now_ns();
      try {
        const std::uint64_t epoch =
            d.install_bytes(kKeys[which], s.bytes[which]);
        const std::int64_t t1 = now_ns();
        epoch_artifact[epoch] = which;
        p.swap_ms.push_back(ns_to_ms(t1 - t0));
        if (installer != nullptr) installer->add("daemon.install", t0, t1);
      } catch (const std::exception&) {
        ++install_failures;
        p.swap_ms.push_back(std::numeric_limits<double>::infinity());
      }
    }
  });

  std::vector<daemon::Ticket> tickets(due.size());
  const std::size_t width = s.queries.cols();
  p.records = run_open_loop(
      due, start, now_ns,
      [&](std::size_t i) {
        daemon::ChipQuery query;
        const double* row = s.queries.row_ptr(rows[i]);
        query.features.assign(row, row + width);
        if (generator == nullptr) {
          tickets[i] = d.submit(std::move(query));
        } else {
          const std::int64_t t0 = now_ns();
          tickets[i] = d.submit(std::move(query));
          generator->add("daemon.submit", t0, now_ns(), Tracer::kNoParent, i);
        }
      },
      [&](std::size_t i) { return tickets[i].resolved(); });
  installer_thread.join();
  d.stop();
  p.stats = d.stats();

  p.attempted = due.size() + swaps.size();
  p.failed = install_failures;
  p.ok.assign(due.size(), false);
  std::uint64_t mismatched = 0;
  std::uint64_t unpublished = 0;
  for (std::size_t i = 0; i < due.size(); ++i) {
    const daemon::ServeResponse& response = tickets[i].wait();
    if (response.status != daemon::ServeStatus::kOk) {
      ++p.failed;
      continue;
    }
    p.ok[i] = true;
    p.epochs_served.insert(response.epoch);
    const auto it = epoch_artifact.find(response.epoch);
    if (it == epoch_artifact.end()) {
      ++unpublished;
    } else if (const auto& want = s.reference[it->second][rows[i]];
               !same_bits(response.interval.lower, want.lower) ||
               !same_bits(response.interval.upper, want.upper)) {
      ++mismatched;
    }
    if (generator != nullptr) {
      generator->add("daemon.resolve", p.records[i].submitted_ns,
                     p.records[i].done_ns, Tracer::kNoParent, i);
    }
  }
  if (unpublished != 0) {
    p.violations.push_back(std::to_string(unpublished) +
                           " responses name an epoch the installer never "
                           "published");
  }
  if (mismatched != 0) {
    p.violations.push_back(std::to_string(mismatched) +
                           " responses not bit-equal to their epoch's "
                           "reference");
  }
  p.late_ms.resize(p.records.size());
  for (std::size_t i = 0; i < p.records.size(); ++i) {
    p.late_ms[i] = ns_to_ms(p.records[i].send_ns - p.records[i].due_ns);
  }
  p.late_us_p50 = median(p.late_ms) * 1e3;
  p.late_us_p99 = percentile(p.late_ms, 0.99).value_or(
                      std::numeric_limits<double>::infinity()) *
                  1e3;
  if (p.late_us_p50 > kMaxLateUsP50 || p.late_us_p99 > kMaxLateUsP99) {
    p.violations.push_back(
        "client lateness p50 " + json_number(p.late_us_p50) + " us, p99 " +
        json_number(p.late_us_p99) + " us, over the limits (" +
        json_number(kMaxLateUsP50) + " us, " + json_number(kMaxLateUsP99) +
        " us): the client did not keep its schedule");
  }
  return p;
}

double required(const std::optional<double>& value, const char* what) {
  if (!value) {
    throw std::runtime_error(
        std::string("infield_online: too few samples for ") + what);
  }
  return *value;
}

}  // namespace

WorkloadOutput run_infield_online(const RunConfig& config) {
  WorkloadOutput out;
  WorkloadResult& r = out.result;
  const std::size_t pool_width = config.nproc > 3 ? config.nproc - 2 : 1;
  parallel::set_max_threads(pool_width);

  SetupRecord setup;
  Setup s = time_setups(setup, [&] { return set_up(config.seed); });
  const double swaps_per_s =
      static_cast<double>(kTracedSwaps) / (config.seconds / 2);
  r.config = {
      {"pool_width", std::to_string(pool_width)},
      {"nominal_qps", std::to_string(static_cast<long>(kNominalQps))},
      {"swaps_per_s", json_number(swaps_per_s)},
      {"max_late_us_p50", json_number(kMaxLateUsP50)},
      {"max_late_us_p99", json_number(kMaxLateUsP99)},
      {"query_chips", std::to_string(s.queries.rows())},
      {"design_columns", std::to_string(s.queries.cols())},
      {"chip_order_seed",
       std::to_string(derive_seed(config.seed, "chip_order"))}};

  double predict_1row_us = 0.0;
  double decode_ms = 0.0;
  if (config.trace) {
    // Replays on the same bytes at the same pool width, before any daemon
    // runs (the batcher must be the pool's only caller once one does).
    std::vector<double> one_row_us;
    std::vector<double> decode;
    const auto predictor = serve::VminPredictor::from_bytes(s.bytes[0]);
    for (std::size_t k = 0; k < kOneRowReplays; ++k) {
      const std::size_t row = k % s.queries.rows();
      const auto design = s.queries.row_block(row, row + 1);
      const std::int64_t t0 = now_ns();
      (void)predictor.predict_batch(design);
      one_row_us.push_back(ns_to_us(now_ns() - t0));
    }
    for (std::size_t k = 0; k < kDecodeReplays; ++k) {
      const std::int64_t t0 = now_ns();
      const serve::VminPredictor decoded(
          artifact::decode_bundle(s.bytes[k % 2]));
      decode.push_back(ns_to_ms(now_ns() - t0));
    }
    predict_1row_us = median(one_row_us);
    decode_ms = median(decode);
  }

  const std::uint64_t phase_seed = derive_seed(config.seed, "phases");
  const double nominal_s = config.trace ? config.seconds / 2 : config.seconds;
  const Phase nominal = run_phase(s, *s.daemon, nominal_s, swaps_per_s,
                                  phase_seed, nullptr, nullptr);
  r.absorb(nominal);
  const auto latency = nominal.latency_ms();
  const double p50_ms = median(latency);

  if (!config.trace) {
    const double p99_ms = required(percentile(latency, 0.99), "p99");
    r.config.emplace_back("queries_timed",
                          std::to_string(nominal.records.size()));
    r.config.emplace_back("swaps_timed", std::to_string(nominal.swap_ms.size()));
    double width_sum = 0.0;
    for (std::size_t i = 0; i < s.queries.rows(); ++i) {
      width_sum += s.reference[0][i].upper - s.reference[0][i].lower;
    }
    report_setup_and_rss(r, setup);
    report(r, "latency_ms_p50", "online_p50_ms", p50_ms, "ms");
    report(r, "interval_width_mv", "interval_width_mv",
           width_sum / static_cast<double>(s.queries.rows()) * 1e3, "mV");
    r.named.push_back({"online_p99_ms", p99_ms, "ms"});
    r.named.push_back({"swap_ms_p50", median(nominal.swap_ms), "ms"});
    r.named.push_back({"swap_ms_p95",
                       required(percentile(nominal.swap_ms, 0.95), "swap p95"),
                       "ms"});
    r.named.push_back({"gen_late_us_p50", nominal.late_us_p50, "us"});
    r.named.push_back({"gen_late_us_p99", nominal.late_us_p99, "us"});
    r.named.push_back({"failed_frac",
                       static_cast<double>(r.failed) /
                           static_cast<double>(r.attempted),
                       "frac"});
    return out;
  }

  Tracer generator(static_cast<std::size_t>(kNominalQps * nominal_s * 2.5));
  Tracer installer(kTracedSwaps + 1);
  auto d = new_daemon(s);
  const Phase traced = run_phase(s, *d, nominal_s, swaps_per_s, phase_seed + 1,
                                 &generator, &installer);
  r.absorb(traced);
  const double traced_p50_ms = median(traced.latency_ms());
  const auto submit_ms = generator.durations_ms("daemon.submit");
  const auto resolve_ms = generator.durations_ms("daemon.resolve");
  const auto swap_ms = installer.durations_ms("daemon.install");
  const double swap_p50 = median(swap_ms);

  out.layers = {
      {"daemon.submit_us_p50", median(submit_ms) * 1e3},
      {"daemon.submit_us_p99",
       required(percentile(submit_ms, 0.99), "submit p99") * 1e3},
      {"daemon.resolve_us_p50", median(resolve_ms) * 1e3},
      {"daemon.resolve_us_p99",
       required(percentile(resolve_ms, 0.99), "resolve p99") * 1e3},
      {"daemon.rows_per_batch",
       static_cast<double>(traced.stats.served_ok) /
           static_cast<double>(std::max<std::uint64_t>(1, traced.stats.batches))},
      {"daemon.max_queue_depth",
       static_cast<double>(traced.stats.max_queue_depth)},
      {"daemon.shed_queue_full",
       static_cast<double>(traced.stats.shed_queue_full)},
      {"daemon.internal_error",
       static_cast<double>(traced.stats.served_internal_error)},
      {"serve.predict_batch_1row_us", predict_1row_us},
      {"daemon.handoff_frac", handoff_frac(predict_1row_us, p50_ms * 1e3)},
      {"daemon.swap_ms_p50", swap_p50},
      {"daemon.swap_ms_p95", required(percentile(swap_ms, 0.95), "swap p95")},
      {"artifact.decode_ms", decode_ms},
      {"daemon.publish_us", (swap_p50 - decode_ms) * 1e3},
      {"daemon.epochs_served",
       static_cast<double>(traced.epochs_served.size())},
      {"gen.late_us_p99", traced.late_us_p99},
      // Share of the traced median not covered by the client's lateness,
      // the time inside submit and the wait for resolution.
      {"ledger_gap_frac",
       ledger_gap_frac(traced_p50_ms,
                       {traced.late_us_p50 * 1e-3, median(submit_ms),
                        median(resolve_ms)})},
      {"trace_overhead_frac", traced_p50_ms / p50_ms - 1.0},
  };
  write_trace_csv(config.trace_path,
                  {{"generator", &generator}, {"installer", &installer}});
  return out;
}

}  // namespace e2ebench
