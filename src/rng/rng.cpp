#include "rng/rng.hpp"

#include <cmath>

namespace vmincqr::rng {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng Rng::fork() {
  // Derive the child seed from (seed, fork_counter) so that forks are
  // independent of how many draws the parent has consumed.
  std::uint64_t state = seed_ ^ 0xa02bdbf7bb3c0a7ULL;
  std::uint64_t mixed = splitmix64(state);
  state = mixed ^ (++fork_counter_);
  return Rng(splitmix64(state));
}

double Rng::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  if (stddev < 0.0) throw std::invalid_argument("Rng::normal: stddev < 0");
  // std::normal_distribution requires stddev > 0; exact zero is the
  // degenerate point-mass case.
  if (stddev == 0.0) return mean;
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::lognormal(double log_mean, double log_sigma) {
  return std::exp(normal(log_mean, log_sigma));
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

bool Rng::bernoulli(double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("Rng::bernoulli: p outside [0, 1]");
  }
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

std::vector<double> Rng::normal_vector(std::size_t n, double mean,
                                       double stddev) {
  std::vector<double> out(n);
  for (auto& v : out) v = normal(mean, stddev);
  return out;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  shuffle(idx);
  return idx;
}

void Rng::shuffle(std::vector<std::size_t>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
}

}  // namespace vmincqr::rng
