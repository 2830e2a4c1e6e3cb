#include "metrics/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace evolve::metrics {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0);
}

TEST(Histogram, SmallValuesExact) {
  Histogram h;
  for (int i = 0; i <= 10; ++i) h.record(i);
  EXPECT_EQ(h.count(), 11);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 10);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
  EXPECT_EQ(h.p50(), 5);
}

TEST(Histogram, PercentilesMonotonic) {
  Histogram h;
  util::Rng rng(5);
  for (int i = 0; i < 10000; ++i) h.record(rng.uniform_int(0, 1000000));
  std::int64_t prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const auto v = h.percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
}

TEST(Histogram, LargeValueRelativeError) {
  Histogram h;
  const std::int64_t value = 123456789;
  h.record(value);
  const auto p = h.percentile(50);
  EXPECT_NEAR(static_cast<double>(p), static_cast<double>(value),
              static_cast<double>(value) * 0.02);
}

TEST(Histogram, MultiValuePercentileStaysNearTrueValue) {
  // Bulk at one large value, a small tail at another: the p99 must land
  // on the bulk's bucket (within the 1/64 relative bucket error), not be
  // inflated by bucket-midpoint mismatch. min/max clamping cannot rescue
  // a wrong answer here because both values are interior.
  Histogram h;
  h.record_n(30000, 9000);
  h.record_n(120000, 24);
  EXPECT_NEAR(static_cast<double>(h.p99()), 30000.0, 30000.0 / 64.0 + 1);
  EXPECT_NEAR(static_cast<double>(h.percentile(99.9)), 120000.0,
              120000.0 / 64.0 + 1);
}

TEST(Histogram, BucketRelativeErrorBoundedAcrossOctaves) {
  for (const std::int64_t value :
       {std::int64_t{100}, std::int64_t{1000}, std::int64_t{65537},
        std::int64_t{1000000}, std::int64_t{123456789012}}) {
    Histogram h;
    h.record_n(1, 50);  // half the mass far below
    h.record_n(value, 50);
    const auto p90 = h.percentile(90);
    EXPECT_NEAR(static_cast<double>(p90), static_cast<double>(value),
                static_cast<double>(value) / 64.0 + 1)
        << "value=" << value;
  }
}

TEST(Histogram, P999ReadsTheExtremeTail) {
  Histogram h;
  h.record_n(10, 9990);
  h.record_n(5000, 10);
  EXPECT_EQ(h.p50(), 10);
  EXPECT_EQ(h.p99(), 10);
  EXPECT_NEAR(static_cast<double>(h.p999()), 5000.0, 5000.0 / 64.0 + 1);
}

TEST(Histogram, NegativeClampsToZero) {
  Histogram h;
  h.record(-100);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.count(), 1);
}

TEST(Histogram, RecordNCounts) {
  Histogram h;
  h.record_n(7, 100);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.p50(), 7);
  h.record_n(9, 0);   // no-op
  h.record_n(9, -5);  // no-op
  EXPECT_EQ(h.count(), 100);
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.record(10);
  for (int i = 0; i < 100; ++i) b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 200);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_NEAR(a.mean(), 505.0, 1.0);
}

TEST(Histogram, MergeEmptyIsNoop) {
  Histogram a, b;
  a.record(5);
  a.merge(b);
  EXPECT_EQ(a.count(), 1);
  b.merge(a);
  EXPECT_EQ(b.count(), 1);
  EXPECT_EQ(b.min(), 5);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(42);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, StddevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.record(9);
  EXPECT_NEAR(h.stddev(), 0.0, 1e-9);
}

TEST(Histogram, StddevUniformApprox) {
  Histogram h;
  util::Rng rng(11);
  for (int i = 0; i < 100000; ++i) h.record(rng.uniform_int(0, 1000));
  // Uniform[0,1000] stddev ~= 1001/sqrt(12) ~= 289.
  EXPECT_NEAR(h.stddev(), 289.0, 10.0);
}

TEST(Histogram, PercentileBoundedByMinMax) {
  Histogram h;
  h.record(100);
  h.record(200);
  for (double p : {0.0, 50.0, 100.0}) {
    EXPECT_GE(h.percentile(p), 100);
    EXPECT_LE(h.percentile(p), 200);
  }
}

TEST(Histogram, SummaryMentionsCount) {
  Histogram h;
  h.record(1);
  EXPECT_NE(h.summary().find("n=1"), std::string::npos);
}

// Property sweep: quantile accuracy within ~2% relative error across
// magnitudes.
class HistogramAccuracy : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(HistogramAccuracy, SingleValueRoundTrips) {
  Histogram h;
  const std::int64_t value = GetParam();
  h.record(value);
  const auto back = h.percentile(50);
  const double tolerance = std::max<double>(1.0, static_cast<double>(value) * 0.02);
  EXPECT_NEAR(static_cast<double>(back), static_cast<double>(value), tolerance);
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, HistogramAccuracy,
                         ::testing::Values(0, 1, 63, 64, 65, 1000, 4095, 4096,
                                           1 << 20, (std::int64_t{1} << 40) + 17));

// Regression: the naive E[x^2] - E[x]^2 variance cancels catastrophically
// once values carry a large offset (ns timestamps): both terms are ~1e24
// while their difference is ~1. The Welford form must stay exact-ish.
TEST(Histogram, StddevSurvivesLargeOffsets) {
  Histogram h;
  const std::int64_t offset = 1'000'000'000'000;  // ~16 min in ns
  h.record(offset);
  h.record(offset + 1);
  h.record(offset + 2);
  // Population stddev of {0,1,2} is sqrt(2/3).
  EXPECT_NEAR(h.stddev(), 0.816496580927726, 1e-6);
}

TEST(Histogram, StddevOfConstantLargeValuesIsZero) {
  Histogram h;
  h.record_n(1'234'567'890'123, 1000);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
}

TEST(Histogram, RecordNMatchesRepeatedRecord) {
  Histogram a, b;
  const std::int64_t offset = 5'000'000'000'000;
  for (int i = 0; i < 500; ++i) a.record(offset + (i % 7));
  for (int v = 0; v < 7; ++v) {
    b.record_n(offset + v, v < 3 ? 72 : 71);  // 500 total, same multiset
  }
  ASSERT_EQ(a.count(), b.count());
  // Batched (Chan) vs sequential (Welford) accumulation differ only by
  // FP ordering; at a 5e12 offset the naive form would be off by ~2.0.
  EXPECT_NEAR(a.stddev(), b.stddev(), 1e-2);
  EXPECT_NEAR(a.mean(), b.mean(), 1e-3);
}

TEST(Histogram, MergePreservesStddevAtLargeOffsets) {
  Histogram left, right, whole;
  const std::int64_t offset = 900'000'000'000'000;
  for (int i = 0; i < 100; ++i) {
    const std::int64_t v = offset + 10 * i;
    (i % 2 ? left : right).record(v);
    whole.record(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.stddev(), whole.stddev(), 1e-6);
  // And merging an empty histogram is a no-op.
  Histogram empty;
  const double before = left.stddev();
  left.merge(empty);
  EXPECT_DOUBLE_EQ(left.stddev(), before);
}

// The old percentile: a full scan from bucket 0 over a shadow bucket
// array, with copies of the bucketing it replaced. The incremental
// cursor must give the same answer after any sequence of updates.
struct LinearScanHistogram {
  static std::size_t bucket_index(std::int64_t value) {
    if (value < 64) return static_cast<std::size_t>(value);
    const auto v = static_cast<std::uint64_t>(value);
    const int msb = 63 - std::countl_zero(v);
    const int octave = msb - 6;
    const std::int64_t sub = (value >> octave) - 64;
    return static_cast<std::size_t>(64 + octave * 64 + sub);
  }
  static std::int64_t bucket_midpoint(std::size_t index) {
    if (index < 64) return static_cast<std::int64_t>(index);
    const std::size_t rest = index - 64;
    const int octave = static_cast<int>(rest / 64);
    const auto sub = static_cast<std::int64_t>(rest % 64);
    return ((64 + sub) << octave) + (std::int64_t{1} << octave) / 2;
  }
  void record_n(std::int64_t value, std::int64_t n) {
    if (n <= 0) return;
    value = std::max<std::int64_t>(value, 0);
    const std::size_t i = bucket_index(value);
    if (i >= buckets.size()) buckets.resize(i + 1, 0);
    buckets[i] += n;
    min = count == 0 ? value : std::min(min, value);
    max = count == 0 ? value : std::max(max, value);
    count += n;
  }
  void merge(const LinearScanHistogram& other) {
    if (other.count == 0) return;
    if (other.buckets.size() > buckets.size()) {
      buckets.resize(other.buckets.size(), 0);
    }
    for (std::size_t i = 0; i < other.buckets.size(); ++i) {
      buckets[i] += other.buckets[i];
    }
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
    count += other.count;
  }
  std::int64_t percentile(double p) const {
    if (count == 0) return 0;
    p = std::clamp(p, 0.0, 100.0);
    const auto target = static_cast<std::int64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count)));
    std::int64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      seen += buckets[i];
      if (seen >= target && buckets[i] > 0) {
        return std::clamp(bucket_midpoint(i), min, max);
      }
    }
    return max;
  }
  std::vector<std::int64_t> buckets;
  std::int64_t count = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
};

TEST(Histogram, IncrementalPercentileMatchesFullScan) {
  util::Rng rng(17);
  const double ps[] = {0, 50, 95, 99.9, 100};
  Histogram h, side;
  LinearScanHistogram ref, side_ref;
  auto value = [&] {
    // Mostly one latency band (the cursor walks a few buckets), with
    // occasional outliers far above and below it, and some negatives.
    const std::int64_t roll = rng.uniform_int(0, 99);
    if (roll < 5) return rng.uniform_int(-50, 63);
    if (roll < 10) return rng.uniform_int(0, 5'000'000'000);
    return rng.uniform_int(2'000, 40'000);
  };
  int queries = 0;
  for (int step = 0; step < 60'000; ++step) {
    const std::int64_t op = rng.uniform_int(0, 999);
    if (op < 400) {
      const std::int64_t v = value();
      h.record(v);
      ref.record_n(v, 1);
    } else if (op < 550) {
      const std::int64_t v = value();
      const std::int64_t n = rng.uniform_int(-1, 6);
      h.record_n(v, n);
      ref.record_n(v, n);
    } else if (op < 560) {
      const std::int64_t v = value();
      side.record(v);
      side_ref.record_n(v, 1);
    } else if (op < 563) {
      h.merge(side);
      ref.merge(side_ref);
    } else if (op < 565) {
      h.reset();
      ref = LinearScanHistogram{};
    } else if (op < 575) {
      // A copy carries the cursor with the buckets it summarises.
      const Histogram copy = h;
      h = copy;
    } else {
      // Each p is asked a few times in a row with updates in between,
      // then the next p re-seeds the cursor.
      const double p = ps[(queries++ / 4) % 5];
      ASSERT_EQ(h.percentile(p), ref.percentile(p))
          << "step " << step << " p=" << p << " n=" << ref.count;
      const Histogram copy = h;
      ASSERT_EQ(copy.percentile(p), ref.percentile(p)) << "copy, step " << step;
    }
  }
  EXPECT_GT(queries, 20'000);
}

}  // namespace
}  // namespace evolve::metrics
