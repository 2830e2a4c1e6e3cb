#include "fault/gray.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "dataflow/engine.hpp"
#include "dataflow/task_scheduler.hpp"
#include "fault/health.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "orch/scheduler.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "util/types.hpp"

namespace evolve::fault {
namespace {

using util::TimeNs;

// ---------------------------------------------------------------- gray

TEST(GrayInjector, SlowdownAppliesAndClears) {
  sim::Simulation sim;
  GrayInjector gray(sim);
  std::vector<std::pair<double, TimeNs>> events;  // (cpu factor, at)
  cluster::NodeConditions table([&](cluster::NodeId node,
                                    const cluster::NodeCondition&,
                                    const cluster::NodeCondition& after) {
    EXPECT_EQ(node, 3);
    EXPECT_EQ(after.accel_slowdown, after.cpu_slowdown);
    events.emplace_back(after.cpu_slowdown, sim.now());
  });
  gray.attach(table);
  gray.schedule_slow_node(3, 4.0, 4.0, util::seconds(1), util::seconds(2));
  sim.run_until(util::seconds(2));
  EXPECT_TRUE(gray.is_slowed(3));
  EXPECT_EQ(gray.degraded_since(3), util::seconds(1));
  sim.run();
  EXPECT_FALSE(gray.is_slowed(3));
  EXPECT_EQ(gray.degraded_since(3), -1);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], std::make_pair(4.0, util::seconds(1)));
  EXPECT_EQ(events[1], std::make_pair(1.0, util::seconds(3)));
  EXPECT_EQ(gray.degradations_injected(), 1);
}

TEST(GrayInjector, OverlappingSlowdownsCoalesce) {
  sim::Simulation sim;
  GrayInjector gray(sim);
  std::vector<std::pair<double, TimeNs>> events;
  cluster::NodeConditions table([&](cluster::NodeId,
                                    const cluster::NodeCondition&,
                                    const cluster::NodeCondition& after) {
    events.emplace_back(after.cpu_slowdown, sim.now());
  });
  gray.attach(table);
  // [1s, 3s) @ 2x and [2s, 5s) @ 6x: the stronger factor wins while they
  // overlap, and the node only returns healthy when the last interval
  // ends.
  gray.schedule_slow_node(0, 2.0, 1.0, util::seconds(1), util::seconds(2));
  gray.schedule_slow_node(0, 6.0, 1.0, util::seconds(2), util::seconds(3));
  sim.run_until(util::seconds(4));
  EXPECT_TRUE(gray.is_slowed(0));
  EXPECT_EQ(gray.degraded_since(0), util::seconds(1));
  sim.run();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events.front(), std::make_pair(2.0, util::seconds(1)));
  EXPECT_EQ(events.back(), std::make_pair(1.0, util::seconds(5)));
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_GE(events[i].first, 1.0);
  }
}

TEST(GrayInjector, NicDegradationFoldsLossIntoCapacity) {
  sim::Simulation sim;
  GrayInjector gray(sim);
  std::vector<double> factors;
  gray.on_nic([&](cluster::NodeId node, const NicDegradation& nic) {
    EXPECT_EQ(node, 1);
    factors.push_back(nic.capacity_factor());
  });
  NicDegradation nic;
  nic.bandwidth_factor = 0.5;
  nic.loss = 0.2;
  nic.extra_latency = util::millis(1);
  gray.schedule_nic_degradation(1, nic, util::seconds(1), util::seconds(1));
  sim.run();
  ASSERT_EQ(factors.size(), 2u);
  EXPECT_DOUBLE_EQ(factors[0], 0.5 * 0.8);
  EXPECT_DOUBLE_EQ(factors[1], 1.0);
  EXPECT_FALSE(gray.is_nic_degraded(1));
}

TEST(GrayInjector, BitrotFiresSeededEvent) {
  sim::Simulation sim;
  GrayInjector gray(sim);
  std::vector<std::pair<std::uint64_t, int>> events;
  gray.on_bitrot([&](std::uint64_t seed, int replicas) {
    events.emplace_back(seed, replicas);
  });
  gray.schedule_bitrot(util::millis(10), 99, 4);
  sim.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], std::make_pair(std::uint64_t{99}, 4));
  EXPECT_EQ(gray.bitrot_events(), 1);
}

// -------------------------------------------------------------- health

HealthScorerConfig fast_config() {
  HealthScorerConfig config;
  config.ewma_alpha = 0.5;
  config.min_samples = 3;
  return config;
}

TEST(HealthScorer, FlagsOutlierAgainstPeerMedian) {
  sim::Simulation sim;
  HealthScorer scorer(sim, fast_config());
  std::vector<cluster::NodeId> flagged;
  scorer.on_flag([&](cluster::NodeId node, TimeNs) {
    flagged.push_back(node);
  });
  for (int i = 0; i < 5; ++i) {
    scorer.record(0, util::millis(100));
    scorer.record(1, util::millis(100));
    scorer.record(2, util::millis(500));
  }
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], 2);
  EXPECT_TRUE(scorer.flagged(2));
  EXPECT_FALSE(scorer.flagged(0));
  EXPECT_NEAR(scorer.score(2), 5.0, 0.5);
  EXPECT_EQ(scorer.flags_raised(), 1);
}

TEST(HealthScorer, NeedsMinSamplesAndPeers) {
  sim::Simulation sim;
  HealthScorer scorer(sim, fast_config());
  int flags = 0;
  scorer.on_flag([&](cluster::NodeId, TimeNs) { ++flags; });
  // Only one peer ever reports: no median, no flag, score stays 0.
  for (int i = 0; i < 10; ++i) {
    scorer.record(0, util::millis(100));
    scorer.record(2, util::millis(900));
  }
  EXPECT_EQ(flags, 0);
  EXPECT_EQ(scorer.score(2), 0.0);
  // A second peer arrives but below min_samples: still no flag.
  scorer.record(1, util::millis(100));
  scorer.record(1, util::millis(100));
  EXPECT_EQ(flags, 0);
  scorer.record(1, util::millis(100));
  scorer.record(2, util::millis(900));
  EXPECT_EQ(flags, 1);
}

TEST(HealthScorer, HysteresisClearsOnlyBelowClearRatio) {
  sim::Simulation sim;
  HealthScorerConfig config = fast_config();
  config.flag_ratio = 2.0;
  config.clear_ratio = 1.3;
  HealthScorer scorer(sim, config);
  int clears = 0;
  scorer.on_clear([&](cluster::NodeId node, TimeNs) {
    EXPECT_EQ(node, 2);
    ++clears;
  });
  for (int i = 0; i < 5; ++i) {
    scorer.record(0, util::millis(100));
    scorer.record(1, util::millis(100));
    scorer.record(2, util::millis(400));
  }
  ASSERT_TRUE(scorer.flagged(2));
  // Recovery: fast samples pull the EWMA down. Between clear_ratio and
  // flag_ratio the flag must hold (hysteresis), below clear_ratio it
  // clears.
  while (scorer.flagged(2)) {
    ASSERT_GT(scorer.score(2), config.clear_ratio);
    scorer.record(2, util::millis(100));
  }
  EXPECT_EQ(clears, 1);
  EXPECT_LE(scorer.score(2), config.clear_ratio);
  EXPECT_EQ(scorer.flags_cleared(), 1);
}

TEST(HealthScorer, ResetNodeForgetsSilently) {
  sim::Simulation sim;
  HealthScorer scorer(sim, fast_config());
  int clears = 0;
  scorer.on_clear([&](cluster::NodeId, TimeNs) { ++clears; });
  for (int i = 0; i < 5; ++i) {
    scorer.record(0, util::millis(100));
    scorer.record(1, util::millis(100));
    scorer.record(2, util::millis(500));
  }
  ASSERT_TRUE(scorer.flagged(2));
  scorer.reset_node(2);
  EXPECT_FALSE(scorer.flagged(2));
  EXPECT_EQ(scorer.samples(2), 0);
  EXPECT_EQ(clears, 0);  // silent: no subscriber callback
}

// ---------------------------------------------------------- quarantine

struct QuarantineFixture {
  QuarantineFixture()
      : scorer(sim, fast_config()),
        controller(sim, scorer),
        table([this](cluster::NodeId, const cluster::NodeCondition&,
                     const cluster::NodeCondition& after) {
          changes.emplace_back(after.quarantined ? "q" : "r", sim.now());
        }) {
    controller.attach(table);
  }

  // Drives node 2's score above flag_ratio with healthy peers 0 and 1.
  void flag_node_2() {
    for (int i = 0; i < 5; ++i) {
      scorer.record(0, util::millis(100));
      scorer.record(1, util::millis(100));
      scorer.record(2, util::millis(500));
    }
  }

  sim::Simulation sim;
  HealthScorer scorer;
  QuarantineController controller;
  cluster::NodeConditions table;
  std::vector<std::pair<std::string, TimeNs>> changes;
};

TEST(QuarantineController, FlagQuarantinesThenProbesBackIn) {
  QuarantineFixture f;
  f.flag_node_2();
  EXPECT_TRUE(f.controller.is_quarantined(2));
  EXPECT_EQ(f.controller.quarantines(), 1);
  f.sim.run();  // probe delay elapses
  EXPECT_FALSE(f.controller.is_quarantined(2));
  EXPECT_EQ(f.controller.probes(), 1);
  // The probe resets the node's history so fresh samples decide.
  EXPECT_EQ(f.scorer.samples(2), 0);
  ASSERT_EQ(f.changes.size(), 2u);
  EXPECT_EQ(f.changes[0].first, "q");
  EXPECT_EQ(f.changes[1].first, "r");
  EXPECT_EQ(f.changes[1].second - f.changes[0].second,
            kProbeDelay);
}

TEST(QuarantineController, RequarantineDoublesProbeDelay) {
  QuarantineFixture f;
  f.flag_node_2();
  f.sim.run();  // first probe releases node 2
  ASSERT_EQ(f.changes.size(), 2u);
  f.flag_node_2();  // still slow: re-flagged right after the probe
  EXPECT_TRUE(f.controller.is_quarantined(2));
  f.sim.run();
  ASSERT_EQ(f.changes.size(), 4u);
  const TimeNs first_delay = f.changes[1].second - f.changes[0].second;
  const TimeNs second_delay = f.changes[3].second - f.changes[2].second;
  EXPECT_EQ(second_delay, 2 * first_delay);
  EXPECT_EQ(f.controller.probes(), 2);
}

TEST(QuarantineController, ScoreRecoveryReleasesWithoutProbe) {
  QuarantineFixture f;
  f.flag_node_2();
  ASSERT_TRUE(f.controller.is_quarantined(2));
  // Running work drains fast: the score clears before the probe fires.
  while (f.scorer.flagged(2)) f.scorer.record(2, util::millis(100));
  EXPECT_FALSE(f.controller.is_quarantined(2));
  f.sim.run();  // the cancelled probe must not fire
  EXPECT_EQ(f.controller.probes(), 0);
  ASSERT_EQ(f.changes.size(), 2u);
  EXPECT_EQ(f.changes[1].first, "r");
}

TEST(QuarantineController, RecordsTimeToQuarantine) {
  QuarantineFixture f;
  f.sim.at(util::millis(100), [&] {
    f.controller.note_degradation_start(2, f.sim.now());
  });
  f.sim.at(util::millis(600), [&] { f.flag_node_2(); });
  f.sim.run_until(util::millis(700));
  EXPECT_TRUE(f.controller.is_quarantined(2));
  EXPECT_NEAR(f.controller.mean_time_to_quarantine_ms(), 500.0, 1e-6);
  f.sim.run();
}

TEST(QuarantineController, NoTimeToQuarantineWithoutKnownStart) {
  QuarantineFixture f;
  f.flag_node_2();
  EXPECT_EQ(f.controller.mean_time_to_quarantine_ms(), -1.0);
  f.sim.run();
}

// -------------------------------------------------------------- wiring

TEST(GrayWiring, TaskSchedulerQuarantineBlocksAssignment) {
  dataflow::TaskScheduler* scheduler = nullptr;
  cluster::NodeConditions conditions(
      [&scheduler](cluster::NodeId node, const cluster::NodeCondition& before,
                   const cluster::NodeCondition&) {
        scheduler->node_changed(node, !before.quarantined);
      });
  dataflow::TaskScheduler sched(0, &conditions);
  scheduler = &sched;
  sched.add_executor(5, 2);
  conditions.set_quarantined(5, true);
  EXPECT_FALSE(sched.node_available(5));
  sched.enqueue(1, {}, 0);
  EXPECT_TRUE(sched.assign(0).empty());
  conditions.set_quarantined(5, false);
  const auto assignments = sched.assign(0);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(sched.executor_node(assignments[0].executor), 5);
}

TEST(GrayWiring, OrchestratorQuarantineDrainsAndRejoins) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(1, 0, 0);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec spec;
  spec.name = "svc";
  spec.request = cluster::cpu_mem(1000, util::kGiB);
  const auto running = orch.submit(spec, /*duration=*/-1);
  sim.run();
  EXPECT_EQ(orch.pod(running).phase, orch::PodPhase::kRunning);

  orch.conditions().set_quarantined(0, true);
  EXPECT_TRUE(orch.is_quarantined(0));
  EXPECT_FALSE(orch.is_cordoned(0));  // distinct mechanisms
  // Draining: the running pod keeps running (unlike fail_node).
  EXPECT_EQ(orch.pod(running).phase, orch::PodPhase::kRunning);
  // New pods can't land on the quarantined node.
  spec.name = "pending";
  const auto waiting = orch.submit(spec, util::seconds(1));
  sim.run();
  EXPECT_EQ(orch.pod(waiting).phase, orch::PodPhase::kPending);

  orch.conditions().set_quarantined(0, false);
  orch.schedule_now();
  sim.run();
  EXPECT_EQ(orch.pod(waiting).phase, orch::PodPhase::kSucceeded);
}

TEST(GrayWiring, NicDegradationSlowsTransfersAndRestores) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(4, 0, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  GrayInjector gray(sim);
  connect(gray, fabric);

  const util::Bytes bytes = 125 * util::kMiB;
  const double solo_s =
      static_cast<double>(bytes) / net::kHostLinkBytesPerS;

  NicDegradation nic;
  nic.bandwidth_factor = 0.5;
  nic.loss = 0.2;  // capacity factor 0.4 -> 2.5x slower
  gray.schedule_nic_degradation(0, nic, 0, util::seconds(30));

  TimeNs degraded_done = -1;
  fabric.transfer(0, 2, bytes, [&] { degraded_done = sim.now(); });
  sim.run_until(util::seconds(30));
  ASSERT_GT(degraded_done, 0);
  EXPECT_NEAR(util::to_seconds(degraded_done), solo_s / 0.4,
              0.02 * solo_s / 0.4 + 1e-3);

  sim.run();  // degradation clears
  const TimeNs start = sim.now();
  TimeNs healthy_done = -1;
  fabric.transfer(0, 2, bytes, [&] { healthy_done = sim.now(); });
  sim.run();
  ASSERT_GT(healthy_done, 0);
  EXPECT_NEAR(util::to_seconds(healthy_done - start), solo_s,
              0.02 * solo_s + 1e-3);
}

TEST(GrayWiring, NicExtraLatencyDelaysTransfers) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(4, 0, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  GrayInjector gray(sim);
  connect(gray, fabric);

  NicDegradation nic;
  nic.extra_latency = util::millis(5);
  gray.schedule_nic_degradation(0, nic, 0, util::seconds(30));
  sim.run_until(util::millis(1));  // degradation is applied
  const TimeNs start = sim.now();
  TimeNs done = -1;
  fabric.transfer(0, 2, 0, [&] { done = sim.now(); });
  sim.run_until(util::seconds(30));
  EXPECT_EQ(done - start, topology.latency(0, 2) + util::millis(5));
  sim.run();
}

TEST(GrayWiring, EngineSlowdownStretchesTaskServiceTime) {
  auto run_once = [](double factor) {
    sim::Simulation sim;
    auto cluster = cluster::make_testbed(2, 2, 0);
    net::Topology topology(cluster);
    net::Fabric fabric(sim, topology);
    storage::IoSubsystem io(sim, cluster);
    storage::ObjectStore store(sim, cluster, fabric, io,
                               cluster.nodes_with_label("role=storage"));
    storage::DatasetCatalog catalog(store);
    catalog.define(storage::DatasetSpec{"in", 4, 64 * util::kMiB});
    catalog.preload("in", /*warm_cache=*/true);
    dataflow::DataflowConfig config;
    config.locality_wait = 0;
    dataflow::DataflowEngine engine(sim, cluster, fabric, io, catalog,
                                    config);
    GrayInjector gray(sim);
    connect(gray, engine);
    if (factor > 1.0) {
      for (auto node : cluster.nodes_with_label("role=compute")) {
        gray.schedule_slow_node(node, factor, factor, 0, util::seconds(600));
      }
    }
    dataflow::LogicalPlan plan;
    plan.add_sink(plan.add_map(plan.add_source("in"), "crunch", 1.0, 20.0),
                  "out");
    std::vector<dataflow::ExecutorSpec> execs;
    for (auto node : cluster.nodes_with_label("role=compute")) {
      execs.push_back(dataflow::ExecutorSpec{node, 2});
    }
    dataflow::JobStats stats;
    engine.run(plan, execs,
               [&](const dataflow::JobStats& s) { stats = s; });
    sim.run_until(util::seconds(600));
    return stats.duration;
  };
  const TimeNs healthy = run_once(1.0);
  const TimeNs slowed = run_once(4.0);
  ASSERT_GT(healthy, 0);
  // Compute-dominated plan on a uniformly 4x-slowed cluster: the job
  // takes materially longer (not necessarily exactly 4x — I/O is not
  // slowed).
  EXPECT_GT(slowed, 2 * healthy);
}

TEST(GrayWiring, EngineFeedsScorerThroughTaskObserver) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(4, 2, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"));
  storage::DatasetCatalog catalog(store);
  catalog.define(storage::DatasetSpec{"in", 16, 64 * util::kMiB});
  catalog.preload("in", /*warm_cache=*/true);
  dataflow::DataflowConfig config;
  config.locality_wait = 0;
  dataflow::DataflowEngine engine(sim, cluster, fabric, io, catalog, config);
  HealthScorer scorer(sim, fast_config());
  connect(engine, scorer);
  dataflow::LogicalPlan plan;
  plan.add_sink(plan.add_map(plan.add_source("in"), "m", 1.0, 1.0), "out");
  std::vector<dataflow::ExecutorSpec> execs;
  for (auto node : cluster.nodes_with_label("role=compute")) {
    execs.push_back(dataflow::ExecutorSpec{node, 2});
  }
  engine.run(plan, execs, [](const dataflow::JobStats&) {});
  sim.run();
  int sampled_nodes = 0;
  for (auto node : cluster.nodes_with_label("role=compute")) {
    if (scorer.samples(node) > 0) ++sampled_nodes;
  }
  EXPECT_GE(sampled_nodes, 2);
}

}  // namespace
}  // namespace evolve::fault
