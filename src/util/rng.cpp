#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace evolve::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + static_cast<std::int64_t>(v % range);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

double Rng::exponential(double rate) {
  if (rate <= 0) throw std::invalid_argument("exponential: rate <= 0");
  double u = next_double();
  while (u == 0.0) u = next_double();
  return -std::log(u) / rate;
}

double Rng::normal(double mean, double stddev) {
  double u1 = next_double();
  while (u1 == 0.0) u1 = next_double();
  const double u2 = next_double();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

std::int64_t Rng::poisson(double mean) {
  if (mean < 0) throw std::invalid_argument("poisson: mean < 0");
  if (mean == 0) return 0;
  if (mean > 64.0) {
    const double v = normal(mean, std::sqrt(mean));
    return v < 0 ? 0 : static_cast<std::int64_t>(v + 0.5);
  }
  const double limit = std::exp(-mean);
  std::int64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= next_double();
  } while (p > limit);
  return k - 1;
}

std::int64_t Rng::zipf(std::int64_t n, double s) {
  if (n <= 0) throw std::invalid_argument("zipf: n <= 0");
  if (s == 0.0) return uniform_int(0, n - 1);
  const auto term = [s](std::int64_t i) {
    return 1.0 / std::pow(static_cast<double>(i), s);
  };
  if (n != zipf_n_ || s != zipf_s_) {
    zipf_n_ = n;
    zipf_s_ = s;
    zipf_checkpoints_.assign(1, 0.0);
    double acc = 0.0;
    for (std::int64_t i = 1; i <= n; ++i) {
      acc += term(i);
      if (i % kZipfStride == 0 || i == n) zipf_checkpoints_.push_back(acc);
    }
  }
  // Inverse CDF: the first rank whose running sum reaches the target.
  // The checkpoints are that running sum, bit for bit, and it never
  // decreases, so the first checkpoint >= target closes the block that
  // holds the answer; re-adding that block's terms from its opening
  // checkpoint finds it exactly as a scan from rank 1 would.
  const auto& cp = zipf_checkpoints_;
  const double target = next_double() * cp.back();
  // target <= cp.back(), so the search always finds a checkpoint.
  const auto hit = std::lower_bound(cp.begin() + 1, cp.end(), target);
  const std::int64_t block = hit - cp.begin() - 1;
  double acc = cp[static_cast<std::size_t>(block)];
  const std::int64_t last = std::min(n, (block + 1) * kZipfStride);
  for (std::int64_t i = block * kZipfStride + 1; i <= last; ++i) {
    acc += term(i);
    if (acc >= target) return i - 1;
  }
  return n - 1;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool Rng::chance(double p) { return next_double() < p; }

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0) throw std::invalid_argument("weighted_index: no mass");
  const double target = next_double() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (acc >= target) return i;
  }
  return weights.size() - 1;
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace evolve::util
