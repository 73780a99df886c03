#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace wpred {
namespace {

// SplitMix64 finaliser; good avalanche for deriving child seeds.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Rng Rng::Fork(uint64_t tag) const { return Rng(Mix64(seed_ ^ Mix64(tag))); }

double Rng::Uniform(double lo, double hi) {
  WPRED_CHECK_LE(lo, hi);
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  WPRED_CHECK_LE(lo, hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Gaussian(double mean, double stddev) {
  WPRED_CHECK_GE(stddev, 0.0);
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::Exponential(double mean) {
  WPRED_CHECK_GT(mean, 0.0);
  std::exponential_distribution<double> dist(1.0 / mean);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  WPRED_CHECK_GE(p, 0.0);
  WPRED_CHECK_LE(p, 1.0);
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

int64_t Rng::Zipf(int64_t n, double s) {
  WPRED_CHECK_GT(n, 0);
  WPRED_CHECK_GE(s, 0.0);
  if (s == 0.0) return UniformInt(0, n - 1);
  // Inverse-CDF on the harmonic tail approximated in closed form
  // (integral approximation of generalized harmonic numbers). Exact enough
  // for simulation skew; avoids O(n) tables.
  const double u = Uniform(0.0, 1.0);
  if (s == 1.0) {
    const double hn = std::log(static_cast<double>(n) + 1.0);
    return static_cast<int64_t>(std::exp(u * hn)) - 1;
  }
  const double one_minus_s = 1.0 - s;
  const double hn =
      (std::pow(static_cast<double>(n) + 1.0, one_minus_s) - 1.0) / one_minus_s;
  const double x = std::pow(u * hn * one_minus_s + 1.0, 1.0 / one_minus_s) - 1.0;
  int64_t rank = static_cast<int64_t>(x);
  if (rank < 0) rank = 0;
  if (rank >= n) rank = n - 1;
  return rank;
}

double Rng::LogNormalMedian(double median, double sigma) {
  WPRED_CHECK_GT(median, 0.0);
  WPRED_CHECK_GE(sigma, 0.0);
  std::lognormal_distribution<double> dist(std::log(median), sigma);
  return dist(engine_);
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = n; i > 1; --i) {
    const size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

}  // namespace wpred
