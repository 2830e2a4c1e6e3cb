#include "core/unified_scheduler.hpp"

#include <gtest/gtest.h>

#include "core/siloed.hpp"
#include "workloads/trace.hpp"

namespace evolve::core {
namespace {

PlatformConfig config_for_sched() {
  PlatformConfig config;
  config.compute_nodes = 9;
  config.storage_nodes = 4;
  config.accel_nodes = 0;
  return config;
}

workloads::TraceParams small_trace() {
  workloads::TraceParams params;
  params.jobs = 40;
  params.arrivals_per_second = 1.0;
  params.batch_median_s = 10.0;
  params.service_median_s = 20.0;
  params.gang_median_s = 15.0;
  params.max_gang_width = 4;
  return params;
}

template <class Layout>
ScheduleOutcome replay(const std::vector<MixedJob>& trace) {
  sim::Simulation sim;
  Layout platform(sim, config_for_sched());
  return run_trace(platform, trace);
}

TEST(UnifiedScheduler, TraceCompletesOnUnifiedCluster) {
  util::Rng rng(7);
  const auto trace = workloads::make_mixed_trace(rng, small_trace());
  const auto outcome = replay<Platform>(trace);
  EXPECT_EQ(outcome.jobs_completed, 40);
  EXPECT_EQ(outcome.pods_failed, 0);
  EXPECT_GT(outcome.makespan, 0);
  EXPECT_GT(outcome.cpu_utilization, 0);
}

TEST(UnifiedScheduler, TraceCompletesOnSiloedCluster) {
  util::Rng rng(7);
  const auto trace = workloads::make_mixed_trace(rng, small_trace());
  const auto outcome = replay<SiloedPlatform>(trace);
  EXPECT_EQ(outcome.jobs_completed, 40);
  EXPECT_GT(outcome.makespan, 0);
}

TEST(UnifiedScheduler, UnifiedWaitsNoWorseThanSiloed) {
  // Same trace, same hardware; static partitioning can only strand
  // capacity, so unified p95 wait should not exceed siloed p95 wait.
  util::Rng rng(21);
  workloads::TraceParams params = small_trace();
  params.jobs = 80;
  params.arrivals_per_second = 2.5;  // pressure
  const auto trace = workloads::make_mixed_trace(rng, params);

  const ScheduleOutcome unified = replay<Platform>(trace);
  const ScheduleOutcome siloed = replay<SiloedPlatform>(trace);
  EXPECT_LE(unified.p95_wait, siloed.p95_wait);
  EXPECT_LE(unified.makespan, siloed.makespan + util::seconds(1));
}

TEST(MixedTrace, DeterministicForSeed) {
  util::Rng a(5), b(5);
  const auto t1 = workloads::make_mixed_trace(a, small_trace());
  const auto t2 = workloads::make_mixed_trace(b, small_trace());
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].arrival, t2[i].arrival);
    EXPECT_EQ(t1[i].kind, t2[i].kind);
    EXPECT_EQ(t1[i].pods, t2[i].pods);
    EXPECT_EQ(t1[i].duration, t2[i].duration);
  }
}

TEST(MixedTrace, ArrivalsMonotonic) {
  util::Rng rng(9);
  const auto trace = workloads::make_mixed_trace(rng, small_trace());
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
  }
}

TEST(MixedTrace, Validation) {
  util::Rng rng(1);
  workloads::TraceParams bad;
  bad.jobs = 0;
  EXPECT_THROW(workloads::make_mixed_trace(rng, bad), std::invalid_argument);
  workloads::TraceParams bad2;
  bad2.arrivals_per_second = 0;
  EXPECT_THROW(workloads::make_mixed_trace(rng, bad2), std::invalid_argument);
}

}  // namespace
}  // namespace evolve::core
