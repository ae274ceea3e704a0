#ifndef TGSIM_COMMON_RNG_H_
#define TGSIM_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "common/check.h"

namespace tgsim {

/// Deterministic pseudo-random source used throughout the library.
///
/// Every stochastic component (samplers, generators, model initialization)
/// takes an Rng so that experiments are reproducible from a single seed.
/// The class wraps std::mt19937_64 with the sampling helpers the paper's
/// algorithms need (uniform/normal draws, reservoir-free sampling with and
/// without replacement). Weighted draws live in src/sampling.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n) {
    TGSIM_CHECK_GT(n, 0);
    return static_cast<int64_t>(engine_() % static_cast<uint64_t>(n));
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    TGSIM_CHECK_LE(lo, hi);
    return lo + UniformInt(hi - lo + 1);
  }

  /// Standard normal draw.
  double Normal() { return normal_(engine_); }

  /// Normal draw with the given mean and standard deviation.
  double Normal(double mean, double stddev) {
    return mean + stddev * Normal();
  }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Geometric-ish power-law exponent sample helper: Pareto(alpha) >= 1.
  double Pareto(double alpha) {
    double u = Uniform();
    if (u <= 0.0) u = 1e-12;
    return std::pow(1.0 / u, 1.0 / alpha);
  }

  /// Samples `k` distinct values from [0, n) uniformly (Floyd's algorithm).
  /// Requires k <= n. The result is not sorted.
  std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t k);

  /// Shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(static_cast<int64_t>(i)));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Returns a child Rng seeded from this one; used to give independent
  /// deterministic streams to parallel components.
  Rng Fork() { return Rng(engine_()); }

  /// Splits off `n` child Rngs in one call. Children are deterministic
  /// given the parent's state and mutually independent (each consumes its
  /// own seed draw from the parent).
  std::vector<Rng> Split(size_t n) {
    std::vector<Rng> children;
    children.reserve(n);
    for (size_t i = 0; i < n; ++i) children.push_back(Fork());
    return children;
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace tgsim

#endif  // TGSIM_COMMON_RNG_H_
