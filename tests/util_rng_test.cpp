#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace evolve::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntThrowsOnBadRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(11);
  const double rate = 4.0;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, NormalMeanAndStddev) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(17);
  for (double mean : {0.5, 3.0, 20.0, 100.0}) {
    const int n = 50000;
    double sum = 0;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(sum / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(1);
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, ZipfSkewPrefersLowRanks) {
  Rng rng(19);
  const int n = 100;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[static_cast<std::size_t>(rng.zipf(n, 1.2))];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 10 * counts[n - 1] / 2 + 1);
}

TEST(Rng, ZipfZeroSkewIsUniformish) {
  Rng rng(23);
  const int n = 10;
  std::vector<int> counts(n, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    ++counts[static_cast<std::size_t>(rng.zipf(n, 0.0))];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), trials / 10.0, trials * 0.01);
  }
}

TEST(Rng, ZipfBoundsRespected) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.zipf(7, 0.9);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedIndexHonorsWeights) {
  Rng rng(37);
  std::vector<double> weights = {1.0, 0.0, 9.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 20000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 20000.0, 0.9, 0.02);
}

TEST(Rng, WeightedIndexThrowsOnZeroMass) {
  Rng rng(1);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(weights), std::invalid_argument);
}

// The inverse CDF Rng::zipf used before its checkpoint table: scan the
// running sum of 1/i^s from rank 1 and return the first rank that
// reaches the target. The running sums are stored once, computed in the
// scan's own order, so each is bitwise the sum the scan reached.
class LinearScanZipf {
 public:
  explicit LinearScanZipf(std::uint64_t seed) : rng_(seed) {}

  std::int64_t draw(std::int64_t n, double s) {
    const double target = next_target(n, s);
    for (std::size_t i = 0; i < sums_.size(); ++i) {
      if (sums_[i] >= target) return static_cast<std::int64_t>(i);
    }
    return n - 1;
  }

  /// `count` consecutive draw(n, s) results in one pass. A scan for a
  /// larger target never stops at a lower rank, so visiting the targets
  /// in ascending order lets each scan resume where the last one
  /// stopped and still stop exactly where a scan from rank 1 would.
  std::vector<std::int64_t> draws(std::int64_t n, double s, int count) {
    std::vector<std::pair<double, std::size_t>> targets;
    for (int i = 0; i < count; ++i) {
      targets.emplace_back(next_target(n, s), targets.size());
    }
    std::sort(targets.begin(), targets.end());
    std::vector<std::int64_t> out(targets.size(), n - 1);
    std::size_t rank = 0;
    for (const auto& [target, index] : targets) {
      while (rank < sums_.size() && sums_[rank] < target) ++rank;
      if (rank < sums_.size()) out[index] = static_cast<std::int64_t>(rank);
    }
    return out;
  }

 private:
  double next_target(std::int64_t n, double s) {
    if (n != n_ || s != s_) {
      n_ = n;
      s_ = s;
      sums_.clear();
      double acc = 0.0;
      for (std::int64_t i = 1; i <= n; ++i) {
        acc += 1.0 / std::pow(static_cast<double>(i), s);
        sums_.push_back(acc);
      }
    }
    return rng_.next_double() * sums_.back();
  }

  Rng rng_;
  std::int64_t n_ = -1;
  double s_ = -1.0;
  std::vector<double> sums_;
};

TEST(Rng, ZipfMatchesLinearScan) {
  // Catalog sizes below, at and above the checkpoint stride, perfbench's
  // 65,536 keys, and a large n that is not a multiple of the stride.
  const std::vector<std::pair<std::int64_t, double>> params = {
      {1, 1.05}, {15, 0.9}, {16, 1.2}, {17, 1.2}, {65536, 1.05},
      {100003, 0.5}};
  for (const auto& [n, s] : params) {
    Rng rng(2024);
    const auto expected = LinearScanZipf(2024).draws(n, s, 200000);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(rng.zipf(n, s), expected[i])
          << "n=" << n << " s=" << s << " draw " << i;
    }
  }
  // One stream that changes (n, s) on every call, so the table is
  // rebuilt mid-stream.
  Rng rng(7);
  LinearScanZipf oracle(7);
  for (int i = 0; i < 60; ++i) {
    const auto& [n, s] = params[static_cast<std::size_t>(i) % params.size()];
    ASSERT_EQ(rng.zipf(n, s), oracle.draw(n, s))
        << "n=" << n << " s=" << s << " draw " << i;
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.fork();
  // Child stream should not equal the parent continuation.
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, LognormalPositive) {
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(SplitMix, KnownSequenceIsStable) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), a);
  EXPECT_EQ(splitmix64(s2), b);
}

}  // namespace
}  // namespace evolve::util
