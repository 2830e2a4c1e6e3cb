#include "metrics/timeseries.hpp"

#include <gtest/gtest.h>

#include "util/types.hpp"

namespace evolve::metrics {
namespace {

using util::seconds;

TEST(TimeSeries, RecordsAndSummarizes) {
  TimeSeries ts;
  ts.record(0, 1.0);
  ts.record(10, 5.0);
  ts.record(20, 3.0);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ts.last(), 3.0);
  EXPECT_DOUBLE_EQ(ts.min(), 1.0);
  EXPECT_DOUBLE_EQ(ts.max(), 5.0);
}

TEST(TimeSeries, RejectsBackwardsTime) {
  TimeSeries ts;
  ts.record(10, 1.0);
  EXPECT_THROW(ts.record(5, 2.0), std::invalid_argument);
}

TEST(TimeSeries, AllowsEqualTimes) {
  TimeSeries ts;
  ts.record(10, 1.0);
  ts.record(10, 2.0);
  EXPECT_EQ(ts.size(), 2u);
}

TEST(TimeSeries, TimeWeightedMeanStepFunction) {
  TimeSeries ts;
  ts.record(0, 10.0);
  ts.record(seconds(1), 20.0);
  // 10 for 1s, 20 for 1s -> mean 15 over [0, 2s].
  EXPECT_NEAR(ts.time_weighted_mean(seconds(2)), 15.0, 1e-9);
}

TEST(TimeSeries, IntegralOfStep) {
  TimeSeries ts;
  ts.record(0, 4.0);
  ts.record(seconds(2), 0.0);
  EXPECT_NEAR(ts.integral(seconds(5)), 8.0, 1e-9);
}

TEST(TimeSeries, EmptyMeansZero) {
  TimeSeries ts;
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(seconds(1)), 0.0);
  EXPECT_DOUBLE_EQ(ts.integral(seconds(1)), 0.0);
  EXPECT_DOUBLE_EQ(ts.last(), 0.0);
}

TEST(UsageTracker, TracksLevelAndPeak) {
  UsageTracker tracker(10.0);
  tracker.add(0, 4.0);
  tracker.add(seconds(1), 4.0);
  EXPECT_DOUBLE_EQ(tracker.current(), 8.0);
  EXPECT_DOUBLE_EQ(tracker.peak(), 8.0);
  tracker.add(seconds(2), -8.0);
  EXPECT_DOUBLE_EQ(tracker.current(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.peak(), 8.0);
}

TEST(UsageTracker, MeanUsageIsTimeWeighted) {
  UsageTracker tracker(10.0);
  tracker.add(0, 10.0);             // level 10 during [0, 1s)
  tracker.add(seconds(1), -10.0);   // level 0 during [1s, 2s)
  EXPECT_NEAR(tracker.mean_usage(seconds(2)), 5.0, 1e-9);
  EXPECT_NEAR(tracker.utilization(seconds(2)), 0.5, 1e-9);
}

TEST(UsageTracker, UtilizationZeroCapacity) {
  UsageTracker tracker(0.0);
  tracker.add(0, 5.0);
  EXPECT_DOUBLE_EQ(tracker.utilization(seconds(1)), 0.0);
}

TEST(UsageTracker, RejectsBackwardsTime) {
  UsageTracker tracker(1.0);
  tracker.add(10, 1.0);
  EXPECT_THROW(tracker.add(5, 1.0), std::invalid_argument);
}

TEST(UsageTracker, MeanExtendsToQueryTime) {
  UsageTracker tracker(4.0);
  tracker.add(0, 4.0);
  // Level still 4 at query time 10s even with no further samples.
  EXPECT_NEAR(tracker.mean_usage(seconds(10)), 4.0, 1e-9);
  EXPECT_NEAR(tracker.utilization(seconds(10)), 1.0, 1e-9);
}

TEST(UsageTracker, IntegralChargesOpenLevelExactly) {
  UsageTracker tracker;
  EXPECT_EQ(tracker.integral(seconds(5)), 0.0);
  tracker.add(seconds(1), 2.0);   // level 2 during [1s, 3s)
  tracker.add(seconds(3), 1.0);   // level 3 from 3s on
  EXPECT_EQ(tracker.integral(seconds(3)), 4e9);
  EXPECT_EQ(tracker.integral(seconds(4)), 7e9);  // open level charged
  // A query before the last change sees the closed part only.
  EXPECT_EQ(tracker.integral(seconds(2)), 4e9);
  EXPECT_EQ(tracker.mean_usage(seconds(4)), 7e9 / 4e9);
  // Integer levels at integer times: exact far beyond any run length.
  UsageTracker nodes;
  nodes.add(1, 1.0);
  nodes.add(seconds(86400) + 3, -1.0);
  EXPECT_EQ(nodes.integral(seconds(86400) + 7),
            static_cast<double>(seconds(86400) + 2));
}

}  // namespace
}  // namespace evolve::metrics
