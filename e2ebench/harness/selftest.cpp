// Self-tests of the harness's own arithmetic and client, with no library
// code in the loop. Exit code 0 when every check passes.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "open_loop.hpp"

namespace {

using namespace e2ebench;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void poisson_schedule_reproduces_from_seed() {
  const auto a = poisson_schedule(derive_seed(7, "arrivals"), 20000.0, 0.5);
  const auto b = poisson_schedule(derive_seed(7, "arrivals"), 20000.0, 0.5);
  const auto c = poisson_schedule(derive_seed(8, "arrivals"), 20000.0, 0.5);
  check(a == b, "same seed gives the same Poisson schedule");
  check(a != c, "another seed gives another schedule");
  check(derive_seed(7, "arrivals") != derive_seed(7, "swaps"),
        "streams of one seed are distinct");
  bool ascending = true;
  for (std::size_t i = 1; i < a.size(); ++i) ascending &= a[i] >= a[i - 1];
  check(ascending && a.back() < 500'000'000, "schedule ascends within horizon");
  // 10,000 expected arrivals: the count is within 5 sigma (5 x 100).
  check(std::abs(static_cast<double>(a.size()) - 10000.0) < 500.0,
        "arrival count matches the rate");
}

void fixed_count_schedule_reproduces_from_seed() {
  const auto a = fixed_count_schedule(derive_seed(7, "swaps"), 210, 5.0);
  const auto b = fixed_count_schedule(derive_seed(7, "swaps"), 210, 5.0);
  const auto c = fixed_count_schedule(derive_seed(8, "swaps"), 210, 5.0);
  check(a == b && a != c, "fixed-count schedule reproduces from its seed");
  bool ascending = a.size() == 210;
  for (std::size_t i = 1; i < a.size(); ++i) ascending &= a[i] >= a[i - 1];
  check(ascending && a.front() >= 0 && a.back() < 5'000'000'000,
        "fixed-count schedule has its count, ascends within horizon");
}

void percentile_needs_ten_beyond() {
  std::vector<double> samples;
  for (int i = 1; i <= 199; ++i) samples.push_back(i);
  check(!percentile(samples, 0.95), "p95 refused with 199 samples (9 beyond)");
  samples.push_back(200);
  const auto p95 = percentile(samples, 0.95);
  check(p95 && near(*p95, 190.0), "p95 of 1..200 is 190, 10 beyond");
  check(!percentile(std::vector<double>(999, 1.0), 0.99),
        "p99 refused with 999 samples (9 beyond)");
  check(percentile(std::vector<double>(1000, 1.0), 0.99).has_value(),
        "p99 reported with 1000 samples");
  check(!percentile({}, 0.5), "no percentile of nothing");
  check(near(median({3.0, 1.0, 2.0}), 2.0) &&
            near(median({4.0, 1.0, 3.0, 2.0}), 2.5),
        "median of odd and even counts");
}

void open_loop_times_from_due() {
  // Fake clock and server: reading the clock or polling takes 1 ns, every
  // submit 30 ns, and a request resolves 100 ns after it was submitted.
  // Requests 0..2 are all due at 0, so 1 and 2 are sent late; their latency
  // must include that.
  std::int64_t clock = 0;
  std::vector<std::int64_t> submitted;
  const std::vector<std::int64_t> due = {0, 0, 0, 1000};
  const auto records = run_open_loop(
      due, /*start_ns=*/0,
      [&] { return ++clock; },
      [&](std::size_t) {
        clock += 30;
        submitted.push_back(clock);
      },
      [&](std::size_t i) { return ++clock >= submitted[i] + 100; });
  bool from_due = true;
  bool all_done = records.size() == due.size();
  for (std::size_t i = 0; i < records.size(); ++i) {
    from_due &= latency_from_due_ns(records[i]) ==
                records[i].done_ns - due[i];
    all_done &= records[i].done_ns >= submitted[i] + 100;
  }
  check(from_due && all_done, "latency runs from the due time to completion");
  check(records[2].send_ns > records[2].due_ns &&
            latency_from_due_ns(records[2]) >
                records[2].done_ns - records[2].send_ns,
        "a late send is charged to the request it delayed");
  check(records[3].send_ns >= 1000, "no request is sent before it is due");
}

void ledger_arithmetic() {
  check(near(ledger_gap_frac(10.0, {3.0, 2.0, 4.0}), 0.1),
        "ledger gap: 1 - (3+2+4)/10 = 0.1");
  check(near(ledger_gap_frac(8.0, {8.0}), 0.0), "ledger gap of a full cover");
  check(near(handoff_frac(3.6, 18.0), 0.8), "handoff: 1 - 3.6/18 = 0.8");
  Tracer tracer;
  const std::size_t parent = tracer.add("whole", 0, 1'000'000);
  tracer.add("part", 100'000, 400'000, parent);
  tracer.add("part", 500'000, 700'000, parent);
  const auto parts = tracer.durations_ms("part");
  check(parts.size() == 2 && near(parts[0], 0.3) && near(parts[1], 0.2),
        "span durations in recording order");
  check(near(ledger_gap_frac(tracer.durations_ms("whole")[0], parts), 0.5),
        "ledger gap of fixed spans: 1 - (0.3+0.2)/1.0 = 0.5");
}

}  // namespace

int main() {
  poisson_schedule_reproduces_from_seed();
  fixed_count_schedule_reproduces_from_seed();
  percentile_needs_ten_beyond();
  open_loop_times_from_due();
  ledger_arithmetic();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
