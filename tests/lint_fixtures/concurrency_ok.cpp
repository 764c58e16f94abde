// Negative fixture for the concurrency rules: every sanctioned
// idiom the analyzer must NOT flag. Zero diagnostics expected.
#include <map>
#include <vector>

namespace demo {

// By-reference capture with per-chunk indexed writes: the contract's
// sanctioned pattern — disjoint slots, deterministic at any width.
void square_into(const std::vector<double>& xs, std::vector<double>& out) {
  parallel::parallel_for(xs.size(), 1024, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      out[i] = xs[i] * xs[i];
    }
  });
}

// By-value capture of a pointer-like handle: the handle itself is a copy,
// and each chunk writes its own slots through it (the capture-list
// false-positive case — a naive analyzer would flag any write through a
// captured handle).
void scale_through_handle(double* out, std::size_t n) {
  parallel::parallel_for(n, 1024, [out](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      out[i] = 2.0 * static_cast<double>(i);
    }
  });
}

// Deterministic reduction: accumulate into a chunk-local, let the pool
// combine partials in fixed chunk order.
double sum(const std::vector<double>& xs) {
  return parallel::parallel_deterministic_reduce(
      xs.size(), 2048, 0.0,
      [&](std::size_t b, std::size_t e) {
        double acc = 0.0;
        for (std::size_t i = b; i < e; ++i) {
          acc += xs[i];
        }
        return acc;
      },
      [](double a, double b) { return a + b; });
}

// Per-chunk RNG constructed from a chunk-derived seed: stream assignment is
// a pure function of the chunk grid, never of the schedule.
void jitter(std::uint64_t base_seed, std::vector<double>& out) {
  parallel::parallel_for(out.size(), 512, [&](std::size_t b, std::size_t e) {
    rng::Rng child(base_seed + 1000003u * b);
    for (std::size_t i = b; i < e; ++i) {
      out[i] = child.normal();
    }
  });
}

// Ordered container: iteration order is part of the value, so reductions
// over it are reproducible.
double keyed_total(const std::map<int, double>& weights) {
  double total = 0.0;
  for (const auto& kv : weights) {
    total = total + kv.second;
  }
  return total;
}

}  // namespace demo
