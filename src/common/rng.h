#ifndef WPRED_COMMON_RNG_H_
#define WPRED_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace wpred {

/// Deterministic random number generator used throughout wpred.
///
/// Every stochastic component (the simulator, model initialisation, bagging,
/// cross-validation shuffles, ...) draws from an Rng seeded by its caller, so
/// experiments, tests, and benches are reproducible run-to-run. `Fork(tag)`
/// derives an independent stream, which keeps components decoupled: inserting
/// an extra draw in one component does not perturb another.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed), seed_(seed) {}

  /// Derives a deterministic child stream from this generator's seed and a
  /// caller-chosen tag (SplitMix64-style mixing).
  Rng Fork(uint64_t tag) const;

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Gaussian with the given mean and standard deviation.
  double Gaussian(double mean = 0.0, double stddev = 1.0);

  /// Exponential with the given mean (not rate). mean > 0.
  double Exponential(double mean);

  /// Bernoulli trial with success probability p in [0, 1].
  bool Bernoulli(double p);

  /// Zipf-distributed rank in [0, n) with skew parameter s (s = 0 is uniform;
  /// larger s concentrates mass on low ranks). Uses the rejection-inversion
  /// free CDF-table-less approximation adequate for n up to ~1e6.
  int64_t Zipf(int64_t n, double s);

  /// Lognormal sample where the *resulting distribution* has the given
  /// median and a multiplicative spread sigma (sigma of underlying normal).
  double LogNormalMedian(double median, double sigma);

  /// Fisher-Yates shuffle of indices [0, n).
  std::vector<size_t> Permutation(size_t n);

  uint64_t seed() const { return seed_; }
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  uint64_t seed_;
};

}  // namespace wpred

#endif  // WPRED_COMMON_RNG_H_
