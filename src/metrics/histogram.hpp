// Log-bucketed histogram (HDR-style) for latency/size distributions.
//
// Values are bucketed with bounded relative error (~= 1/64 per octave),
// which is plenty for percentile reporting in benchmark tables.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace evolve::metrics {

class Histogram {
 public:
  Histogram();

  /// Records a non-negative sample (negative samples clamp to zero).
  void record(std::int64_t value);

  /// Records `count` occurrences of `value`.
  void record_n(std::int64_t value, std::int64_t count);

  std::int64_t count() const { return count_; }
  std::int64_t min() const;
  std::int64_t max() const;
  double mean() const;
  double stddev() const;

  /// Percentile in [0, 100]. Returns 0 on an empty histogram. Repeated
  /// queries at one `p` walk on from the last answer (see the cursor).
  std::int64_t percentile(double p) const;

  std::int64_t p50() const { return percentile(50); }
  std::int64_t p95() const { return percentile(95); }
  std::int64_t p99() const { return percentile(99); }
  std::int64_t p999() const { return percentile(99.9); }

  /// Merges another histogram into this one.
  void merge(const Histogram& other);

  void reset();

  /// One-line summary, e.g. "n=100 mean=5.2 p50=5 p95=9 p99=10 max=10".
  std::string summary() const;

 private:
  static std::size_t bucket_index(std::int64_t value);
  static std::int64_t bucket_midpoint(std::size_t index);

  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets per octave

  std::vector<std::int64_t> buckets_;
  std::int64_t count_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  double sum_ = 0;
  // Welford/Chan accumulators for the variance: mean and the centred
  // sum of squares M2 = sum((x - mean)^2). The naive E[x^2] - E[x]^2
  // form cancels catastrophically for large offsets (ns timestamps).
  double welford_mean_ = 0;
  double m2_ = 0;
  // Percentile cursor: the last clamped `p` asked (-1 = none), its answer
  // bucket, and buckets_[0..cursor_i_] summed. record_n keeps the sum
  // current; merge and reset drop the cursor. Mutable because a query
  // moves it, which is safe only in the single-threaded simulator.
  mutable double cursor_p_ = -1.0;
  mutable std::size_t cursor_i_ = 0;
  mutable std::int64_t cursor_cum_ = 0;
};

/// When to hedge a request: the p95 of the component's own latency
/// histogram (`latency_us`, in µs), floored at `min_delay`, once it
/// holds `min_samples` samples; `min_delay` before that.
util::TimeNs hedge_delay(const Histogram& latency_us, util::TimeNs min_delay,
                         std::int64_t min_samples);

}  // namespace evolve::metrics
