// Time-series of (time, value) samples plus utilization accounting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace evolve::metrics {

/// Append-only series of timestamped samples (monitoring-style).
class TimeSeries {
 public:
  struct Sample {
    util::TimeNs time;
    double value;
  };

  /// Appends a sample; `time` must be non-decreasing.
  void record(util::TimeNs time, double value);

  const std::vector<Sample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }
  std::size_t size() const { return samples_.size(); }

  double last() const;
  double min() const;
  double max() const;

  /// Time-weighted average over [first sample, `end`] treating the series
  /// as a step function. Returns 0 on an empty series.
  double time_weighted_mean(util::TimeNs end) const;

  /// Integral of the step function over [first sample, `end`]
  /// (value * seconds).
  double integral(util::TimeNs end) const;

 private:
  std::vector<Sample> samples_;
};

/// Tracks a level that goes up and down (e.g. cores in use, nodes down)
/// and computes its time integral and utilization against a capacity.
class UsageTracker {
 public:
  explicit UsageTracker(double capacity = 0) : capacity_(capacity) {}

  void set_capacity(double capacity) { capacity_ = capacity; }
  double capacity() const { return capacity_; }

  /// Adjusts the in-use level at `time` by `delta`.
  void add(util::TimeNs time, double delta);

  double current() const { return level_; }
  double peak() const { return peak_; }

  /// Integral of the level over [0, end] in level·ns; the level after
  /// the last `add` is charged up to `end`. An integer level changed at
  /// integer times sums exactly while the total stays below 2^53.
  double integral(util::TimeNs end) const;

  /// Average in-use level over [0, end]: integral(end) / end.
  double mean_usage(util::TimeNs end) const;

  /// mean_usage / capacity in [0, 1]; 0 if capacity is 0.
  double utilization(util::TimeNs end) const;

 private:
  double capacity_;
  double level_ = 0;
  double peak_ = 0;
  double weighted_sum_ = 0;  // integral of level over time (value * ns)
  util::TimeNs last_time_ = 0;
};

}  // namespace evolve::metrics
