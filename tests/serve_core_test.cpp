// Unit tests for the pure serving components: batch formation, routing
// policies, CoDel-style admission, open-loop generation, and the
// latency-aware scaling signal.
#include <gtest/gtest.h>

#include <vector>

#include "serve/admission.hpp"
#include "serve/batch.hpp"
#include "serve/generator.hpp"
#include "serve/router.hpp"
#include "serve/signal.hpp"
#include "sim/simulation.hpp"
#include "util/types.hpp"

namespace evolve::serve {
namespace {

QueuedRequest queued(RequestId id, int cls, util::TimeNs enqueued) {
  QueuedRequest q;
  q.id = id;
  q.cls = cls;
  q.enqueued = enqueued;
  return q;
}

// -- BatchFormer ------------------------------------------------------

TEST(BatchFormer, ValidatesConfig) {
  EXPECT_THROW(BatchFormer({/*max_batch=*/0, util::millis(1)}),
               std::invalid_argument);
  EXPECT_THROW(BatchFormer({1, /*max_linger=*/-1}), std::invalid_argument);
}

TEST(BatchFormer, EmptyQueueHasNothingToDo) {
  BatchFormer former({8, util::millis(1)});
  BatchPlan plan;
  former.plan({}, util::millis(5), plan);
  EXPECT_FALSE(plan.ready);
  EXPECT_EQ(plan.release_at, -1);
  EXPECT_TRUE(plan.take.empty());
}

TEST(BatchFormer, FullBatchReleasesImmediately) {
  BatchFormer former({3, util::millis(10)});
  RequestQueue queue = {queued(1, 0, 0), queued(2, 0, 0),
                                     queued(3, 0, 0), queued(4, 0, 0)};
  BatchPlan plan;
  former.plan(queue, 0, plan);
  ASSERT_TRUE(plan.ready);
  EXPECT_EQ(plan.take, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(BatchFormer, ShortBatchWaitsForLingerDeadline) {
  BatchFormer former({8, util::millis(10)});
  RequestQueue queue = {queued(1, 0, util::millis(2))};
  BatchPlan early;
  former.plan(queue, util::millis(5), early);
  EXPECT_FALSE(early.ready);
  EXPECT_EQ(early.release_at, util::millis(12));
  BatchPlan late;
  former.plan(queue, util::millis(12), late);
  ASSERT_TRUE(late.ready);
  EXPECT_EQ(late.take, (std::vector<std::size_t>{0}));
}

TEST(BatchFormer, CoalescesHeadClassOnlyPreservingPositions) {
  BatchFormer former({8, util::millis(0)});
  // Head class 7; the class-3 request in the middle keeps its slot.
  RequestQueue queue = {queued(1, 7, 0), queued(2, 3, 0),
                                     queued(3, 7, 0), queued(4, 7, 0)};
  BatchPlan plan;
  former.plan(queue, 0, plan);
  ASSERT_TRUE(plan.ready);  // zero linger: always release
  EXPECT_EQ(plan.take, (std::vector<std::size_t>{0, 2, 3}));
}

TEST(BatchFormer, MaxBatchOneDisablesCoalescing) {
  BatchFormer former({1, util::millis(10)});
  RequestQueue queue = {queued(1, 0, util::millis(9)),
                                     queued(2, 0, util::millis(9))};
  BatchPlan plan;
  former.plan(queue, util::millis(9), plan);
  ASSERT_TRUE(plan.ready);  // full at size 1, no linger wait
  EXPECT_EQ(plan.take, (std::vector<std::size_t>{0}));
}

TEST(BatchFormer, ReusedPlanIsOverwritten) {
  BatchFormer former({2, util::millis(10)});
  RequestQueue queue = {queued(1, 0, 0), queued(2, 0, 0)};
  BatchPlan plan;
  former.plan(queue, 0, plan);
  ASSERT_TRUE(plan.ready);
  former.plan(RequestQueue{}, 0, plan);
  EXPECT_FALSE(plan.ready);
  EXPECT_EQ(plan.release_at, -1);
  EXPECT_TRUE(plan.take.empty());
}

// -- Router -----------------------------------------------------------

std::vector<ReplicaView> views(std::vector<std::pair<int, bool>> spec) {
  std::vector<ReplicaView> out;
  std::int64_t key = 100;
  for (const auto& [outstanding, available] : spec) {
    out.push_back({key++, outstanding, available});
  }
  return out;
}

TEST(Router, RoundRobinRotatesOverAvailable) {
  Router router(BalancePolicy::kRoundRobin);
  const auto replicas = views({{0, true}, {0, false}, {0, true}});
  EXPECT_EQ(router.pick(replicas), 0);
  EXPECT_EQ(router.pick(replicas), 2);  // skips the unavailable middle
  EXPECT_EQ(router.pick(replicas), 0);
}

TEST(Router, LeastOutstandingPicksMinDepthTieLowestKey) {
  Router router(BalancePolicy::kLeastOutstanding);
  EXPECT_EQ(router.pick(views({{5, true}, {2, true}, {9, true}})), 1);
  // Tie on depth 2: lowest key (the first) wins.
  EXPECT_EQ(router.pick(views({{2, true}, {2, true}})), 0);
  // The global minimum is unavailable: picks the best available.
  EXPECT_EQ(router.pick(views({{1, false}, {4, true}, {3, true}})), 2);
}

TEST(Router, NoAvailableReplicaReturnsMinusOne) {
  for (const auto policy :
       {BalancePolicy::kRoundRobin, BalancePolicy::kLeastOutstanding,
        BalancePolicy::kPowerOfTwo}) {
    Router router(policy);
    EXPECT_EQ(router.pick(views({{0, false}, {0, false}})), -1);
    EXPECT_EQ(router.pick({}), -1);
  }
}

TEST(Router, ExcludeForcesDistinctReplica) {
  // A hedge must not land on its primary, whatever the policy.
  for (const auto policy :
       {BalancePolicy::kRoundRobin, BalancePolicy::kLeastOutstanding,
        BalancePolicy::kPowerOfTwo}) {
    Router router(policy);
    const auto replicas = views({{0, true}, {9, true}});
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(router.pick(replicas, /*exclude=*/0), 1) << to_string(policy);
    }
    EXPECT_EQ(router.pick(views({{0, true}}), 0), -1);
  }
}

TEST(Router, PowerOfTwoPrefersShallowerOfTwoSamples) {
  // One deep replica among shallow ones: p2c picks it only when both
  // samples land on it, which the distinct-sample rule makes impossible
  // with two candidates and rare with many.
  Router router(BalancePolicy::kPowerOfTwo, /*seed=*/1234);
  const auto replicas = views({{50, true}, {0, true}, {0, true}, {0, true}});
  int deep_picks = 0;
  for (int i = 0; i < 200; ++i) {
    if (router.pick(replicas) == 0) ++deep_picks;
  }
  EXPECT_EQ(deep_picks, 0);  // the deep replica always loses its pairing
}

TEST(Router, PowerOfTwoIsSeedDeterministic) {
  const auto replicas =
      views({{3, true}, {1, true}, {4, true}, {1, true}, {5, true}});
  Router a(BalancePolicy::kPowerOfTwo, 42);
  Router b(BalancePolicy::kPowerOfTwo, 42);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.pick(replicas), b.pick(replicas));
  }
}

// -- AdmissionController ----------------------------------------------

AdmissionConfig admission_config() {
  AdmissionConfig c;
  c.enabled = true;
  c.target = util::millis(10);
  c.interval = util::millis(100);
  return c;
}

TEST(Admission, ValidatesConfig) {
  AdmissionConfig bad = admission_config();
  bad.interval = 0;
  EXPECT_THROW(AdmissionController{bad}, std::invalid_argument);
  bad = admission_config();
  bad.target = -1;
  EXPECT_THROW(AdmissionController{bad}, std::invalid_argument);
}

TEST(Admission, DisabledAlwaysAdmits) {
  AdmissionConfig config = admission_config();
  config.enabled = false;
  AdmissionController admission(config);
  for (int i = 0; i < 20; ++i) {
    admission.on_queue_delay(util::millis(i), util::seconds(1));
    EXPECT_TRUE(admission.admit(util::millis(i)));
  }
  EXPECT_EQ(admission.sheds(), 0);
}

TEST(Admission, ShedsOnlyAfterSustainedOverload) {
  AdmissionController admission(admission_config());
  // First above-target sojourn starts the clock, nothing more.
  admission.on_queue_delay(0, util::millis(50));
  EXPECT_FALSE(admission.shedding());
  EXPECT_TRUE(admission.admit(util::millis(50)));
  // Still above target but the interval has not elapsed.
  admission.on_queue_delay(util::millis(99), util::millis(50));
  EXPECT_FALSE(admission.shedding());
  // Past the interval: shedding engages.
  admission.on_queue_delay(util::millis(100), util::millis(50));
  EXPECT_TRUE(admission.shedding());
  EXPECT_FALSE(admission.admit(util::millis(100)));
}

TEST(Admission, LinearRampShrinksShedSpacing) {
  AdmissionController admission(admission_config());
  admission.on_queue_delay(0, util::millis(50));
  admission.on_queue_delay(util::millis(100), util::millis(50));
  // Shed 1 at t=100ms: next shed a full interval away.
  EXPECT_FALSE(admission.admit(util::millis(100)));
  EXPECT_TRUE(admission.admit(util::millis(150)));
  // Shed 2 at t=200ms: spacing halves to interval/2.
  EXPECT_FALSE(admission.admit(util::millis(200)));
  EXPECT_TRUE(admission.admit(util::millis(249)));
  // Shed 3 at t=250ms: spacing shrinks to interval/3.
  EXPECT_FALSE(admission.admit(util::millis(250)));
  EXPECT_TRUE(admission.admit(util::millis(283)));
  EXPECT_FALSE(admission.admit(util::millis(284)));
  EXPECT_EQ(admission.sheds(), 4);
}

TEST(Admission, OneGoodSojournEndsTheEpisode) {
  AdmissionController admission(admission_config());
  admission.on_queue_delay(0, util::millis(50));
  admission.on_queue_delay(util::millis(100), util::millis(50));
  EXPECT_FALSE(admission.admit(util::millis(100)));
  admission.on_queue_delay(util::millis(120), util::millis(1));
  EXPECT_FALSE(admission.shedding());
  EXPECT_TRUE(admission.admit(util::millis(120)));
  // Re-entering overload requires a fresh sustained interval.
  admission.on_queue_delay(util::millis(130), util::millis(50));
  EXPECT_FALSE(admission.shedding());
  admission.on_queue_delay(util::millis(230), util::millis(50));
  EXPECT_TRUE(admission.shedding());
}

// -- RequestGenerator -------------------------------------------------

GeneratorConfig generator_config() {
  GeneratorConfig c;
  c.phases = {{util::seconds(1), 200.0}};
  c.clients = {0, 1};
  c.horizon = util::seconds(1);
  c.seed = 99;
  return c;
}

TEST(Generator, ValidatesConfig) {
  sim::Simulation sim;
  auto sink = [](Request) {};
  GeneratorConfig bad = generator_config();
  bad.phases.clear();
  EXPECT_THROW(RequestGenerator(sim, bad, sink), std::invalid_argument);
  bad = generator_config();
  bad.phases = {{util::seconds(2), 100.0}, {util::seconds(1), 100.0}};
  EXPECT_THROW(RequestGenerator(sim, bad, sink), std::invalid_argument);
  bad = generator_config();
  bad.phases[0].rate_per_s = -1;
  EXPECT_THROW(RequestGenerator(sim, bad, sink), std::invalid_argument);
  bad = generator_config();
  bad.clients.clear();
  EXPECT_THROW(RequestGenerator(sim, bad, sink), std::invalid_argument);
  bad = generator_config();
  bad.horizon = 0;
  EXPECT_THROW(RequestGenerator(sim, bad, sink), std::invalid_argument);
  EXPECT_THROW(RequestGenerator(sim, generator_config(), nullptr),
               std::invalid_argument);
}

std::vector<Request> run_poisson(GeneratorConfig config) {
  sim::Simulation sim;
  std::vector<Request> out;
  RequestGenerator gen(sim, std::move(config),
                       [&out](Request r) { out.push_back(r); });
  gen.start();
  sim.run();
  return out;
}

TEST(Generator, SeedDeterminesEverything) {
  const auto a = run_poisson(generator_config());
  const auto b = run_poisson(generator_config());
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 100u);  // ~200 expected
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].client, b[i].client);
    EXPECT_EQ(a[i].cls, b[i].cls);
    EXPECT_EQ(a[i].id, static_cast<RequestId>(i + 1));
  }
  auto other = generator_config();
  other.seed = 100;
  EXPECT_NE(run_poisson(other).size(), 0u);
}

TEST(Generator, PhaseRatesShapeTheArrivals) {
  GeneratorConfig config = generator_config();
  config.phases = {{util::seconds(1), 50.0}, {util::seconds(2), 500.0}};
  config.horizon = util::seconds(2);
  const auto arrivals = run_poisson(config);
  std::size_t low = 0, high = 0;
  for (const auto& r : arrivals) {
    (r.arrival < util::seconds(1) ? low : high)++;
    EXPECT_LT(r.arrival, config.horizon);
  }
  EXPECT_GT(low, 20u);         // ~50 expected
  EXPECT_GT(high, 5 * low);    // ~10x the low phase
}

TEST(Generator, ZeroRatePhaseIsSilent) {
  GeneratorConfig config = generator_config();
  config.phases = {{util::seconds(1), 0.0}, {util::seconds(2), 100.0}};
  config.horizon = util::seconds(2);
  const auto arrivals = run_poisson(config);
  ASSERT_FALSE(arrivals.empty());
  for (const auto& r : arrivals) {
    EXPECT_GE(r.arrival, util::seconds(1));
  }
}

TEST(Generator, ClassWeightsSelectClasses) {
  GeneratorConfig config = generator_config();
  config.class_weights = {0.0, 1.0};
  for (const auto& r : run_poisson(config)) {
    EXPECT_EQ(r.cls, 1);
  }
}

TEST(Generator, StopCancelsPendingArrivals) {
  sim::Simulation sim;
  std::int64_t seen = 0;
  RequestGenerator gen(sim, generator_config(),
                       [&seen](Request) { ++seen; });
  gen.start();
  sim.run_until(util::millis(100));
  const std::int64_t at_stop = seen;
  gen.stop();
  sim.run();
  EXPECT_EQ(seen, at_stop);
  EXPECT_EQ(gen.emitted(), at_stop);
}

// -- ScalingSignal ----------------------------------------------------

ScalingSignalConfig signal_config() {
  ScalingSignalConfig c;
  c.window = util::seconds(1);
  c.delay_target = util::millis(10);
  c.capacity_per_replica = 100.0;
  c.target_inflight_per_replica = 10.0;
  return c;
}

TEST(ScalingSignal, ValidatesConfig) {
  sim::Simulation sim;
  auto bad = signal_config();
  bad.window = 0;
  EXPECT_THROW(ScalingSignal(sim, bad), std::invalid_argument);
  bad = signal_config();
  bad.capacity_per_replica = 0;
  EXPECT_THROW(ScalingSignal(sim, bad), std::invalid_argument);
}

TEST(ScalingSignal, IdleSignalIsZero) {
  sim::Simulation sim;
  ScalingSignal signal(sim, signal_config());
  EXPECT_EQ(signal.arrival_rate(), 0.0);
  EXPECT_EQ(signal.queue_delay_p99(), 0);
  EXPECT_EQ(signal.pressure(), 1.0);
  EXPECT_EQ(signal.load(), 0.0);
}

TEST(ScalingSignal, WindowedArrivalRateEvictsOldSamples) {
  sim::Simulation sim;
  ScalingSignal signal(sim, signal_config());
  for (int i = 0; i < 50; ++i) {
    sim.at(util::millis(10 * i), [&signal] { signal.on_arrival(); });
  }
  double rate_at_half = 0, rate_at_end = 0;
  sim.at(util::millis(500),
         [&] { rate_at_half = signal.arrival_rate(); });
  sim.at(util::seconds(3), [&] { rate_at_end = signal.arrival_rate(); });
  sim.run();
  // 50 arrivals in the first 500 ms: the short-history rate divides by
  // elapsed time (~100/s); 2.5 s later the window has evicted them all.
  EXPECT_NEAR(rate_at_half, 100.0, 5.0);
  EXPECT_EQ(rate_at_end, 0.0);
}

TEST(ScalingSignal, PressureInflatesDemandAndClamps) {
  sim::Simulation sim;
  ScalingSignal signal(sim, signal_config());
  sim.at(util::millis(100), [&signal] {
    for (int i = 0; i < 100; ++i) {
      signal.on_arrival();
      // p99 of the window sits at 100 ms = 10x the 10 ms target.
      signal.on_queue_delay(util::millis(100));
    }
  });
  double pressure = 0, load = 0;
  sim.at(util::millis(200), [&] {
    pressure = signal.pressure();
    load = signal.load();
  });
  sim.run_until(util::millis(300));
  EXPECT_EQ(pressure, 3.0);  // clamped at kMaxPressure
  // 100 arrivals over 200 ms of history = 500/s, inflated 3x.
  EXPECT_NEAR(load, 1500.0, 75.0);
}

TEST(ScalingSignal, BacklogFloorForcesLoadWithoutArrivals) {
  sim::Simulation sim;
  ScalingSignal signal(sim, signal_config());
  signal.set_inflight(40);
  // No arrivals at all: demand is 0, but 40 in flight against a target
  // of 10 per replica asks for 4 replicas' worth of capacity.
  EXPECT_EQ(signal.load(), 400.0);
  EXPECT_EQ(signal.inflight(), 40);
}

}  // namespace
}  // namespace evolve::serve
