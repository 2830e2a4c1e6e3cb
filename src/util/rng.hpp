// Deterministic seeded random number generation for workload synthesis.
//
// The library never uses std::random_device or wall-clock entropy: every
// experiment is reproducible from its seed. The core generator is
// xoshiro256**, seeded through SplitMix64 as its authors recommend.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace evolve::util {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** deterministic PRNG with convenience distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Raw 64 uniform bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Exponentially distributed value with the given rate (mean = 1/rate).
  double exponential(double rate);

  /// Standard normal via Box-Muller, then scaled.
  double normal(double mean, double stddev);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 64).
  std::int64_t poisson(double mean);

  /// Zipf-distributed rank in [0, n) with skew `s` (s=0 is uniform).
  /// Inverse CDF over the running sum of 1/i^s: the draw returns the
  /// first rank whose running sum reaches u * total, searched through a
  /// checkpoint table (DESIGN §7, "Host hot paths").
  std::int64_t zipf(std::int64_t n, double s);

  /// Log-normal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Bernoulli trial with probability p.
  bool chance(double p);

  /// Picks a random index weighted by `weights` (need not be normalized).
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Derives an independent child generator (stable across calls order).
  Rng fork();

 private:
  std::array<std::uint64_t, 4> state_{};
  // Cached Zipf table, rebuilt when (n, s) changes: the running sum of
  // 1/i^s after 0, kZipfStride, 2*kZipfStride, ... terms and after the
  // last term, which is the normalization.
  static constexpr std::int64_t kZipfStride = 16;
  std::int64_t zipf_n_ = -1;
  double zipf_s_ = -1.0;
  std::vector<double> zipf_checkpoints_;
};

}  // namespace evolve::util
