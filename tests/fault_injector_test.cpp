#include "fault/fault_injector.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

namespace evolve::fault {
namespace {

/// A table whose handler reports each write's `down` and node.
cluster::NodeConditions::Handler on_down(
    std::function<void(cluster::NodeId, bool)> fn) {
  return [fn = std::move(fn)](cluster::NodeId node,
                              const cluster::NodeCondition&,
                              const cluster::NodeCondition& after) {
    fn(node, after.down);
  };
}

TEST(FaultInjector, ScheduledOutageFiresSubscribersInOrder) {
  sim::Simulation sim;
  FaultInjector injector(sim);
  std::vector<std::pair<std::string, util::TimeNs>> events;
  const auto log = [&](const char* table) {
    return on_down([&events, &sim, table](cluster::NodeId node, bool down) {
      std::string event = down ? "fail-" : "up-";
      event += table;
      events.emplace_back(util::numbered(event + ":", node), sim.now());
    });
  };
  cluster::NodeConditions a(log("a"));
  cluster::NodeConditions b(log("b"));
  injector.attach(a);
  injector.attach(b);
  injector.schedule_outage(3, util::seconds(1), util::seconds(2));
  sim.run();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0], std::make_pair(std::string("fail-a:3"),
                                      util::seconds(1)));
  EXPECT_EQ(events[1], std::make_pair(std::string("fail-b:3"),
                                      util::seconds(1)));
  EXPECT_EQ(events[2], std::make_pair(std::string("up-a:3"),
                                      util::seconds(3)));
  EXPECT_EQ(events[3], std::make_pair(std::string("up-b:3"),
                                      util::seconds(3)));
  EXPECT_TRUE(a[3] == cluster::NodeCondition{});
  EXPECT_EQ(injector.failures_injected(), 1);
  EXPECT_EQ(injector.recoveries(), 1);
  EXPECT_EQ(injector.down_count(), 0);
}

TEST(FaultInjector, KillAndRestoreAreIdempotent) {
  sim::Simulation sim;
  FaultInjector injector(sim);
  int failures = 0;
  int recoveries = 0;
  cluster::NodeConditions table(on_down([&](cluster::NodeId, bool down) {
    ++(down ? failures : recoveries);
  }));
  injector.attach(table);
  injector.kill(0);
  injector.kill(0);  // already down: no-op
  EXPECT_TRUE(injector.is_down(0));
  EXPECT_EQ(failures, 1);
  injector.restore(0);
  injector.restore(0);  // already up: no-op
  EXPECT_FALSE(injector.is_down(0));
  EXPECT_EQ(recoveries, 1);
}

TEST(FaultInjector, DowntimeAccountingIncludesOpenIntervals) {
  sim::Simulation sim;
  FaultInjector injector(sim);
  injector.schedule_outage(0, util::seconds(1), util::seconds(2));
  injector.schedule_failure(1, util::seconds(2));
  sim.run_until(util::seconds(5));
  // Node 0: down [1s, 3s) = 2 node-s. Node 1: down [2s, now=5s) = 3 node-s.
  EXPECT_NEAR(injector.downtime_node_seconds(), 5.0, 1e-9);
  EXPECT_EQ(injector.down_count(), 1);
  injector.restore_all();
  EXPECT_EQ(injector.down_count(), 0);
  EXPECT_NEAR(injector.downtime_node_seconds(), 5.0, 1e-9);
}

TEST(FaultInjector, OverlappingOutagesCoalesce) {
  sim::Simulation sim;
  FaultInjector injector(sim);
  std::vector<std::pair<bool, util::TimeNs>> events;  // (down, at)
  cluster::NodeConditions table(on_down([&](cluster::NodeId, bool down) {
    events.emplace_back(down, sim.now());
  }));
  injector.attach(table);
  // [1s, 3s) and [2s, 5s) overlap: one failure at 1s, one recovery at
  // 5s, downtime = the union [1s, 5s) = 4 node-s (not 2 + 3 = 5).
  injector.schedule_outage(7, util::seconds(1), util::seconds(2));
  injector.schedule_outage(7, util::seconds(2), util::seconds(3));
  sim.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], std::make_pair(true, util::seconds(1)));
  EXPECT_EQ(events[1], std::make_pair(false, util::seconds(5)));
  EXPECT_EQ(injector.failures_injected(), 1);
  EXPECT_EQ(injector.recoveries(), 1);
  EXPECT_NEAR(injector.downtime_node_seconds(), 4.0, 1e-9);
}

TEST(FaultInjector, NestedOutageDoesNotRestoreEarly) {
  sim::Simulation sim;
  FaultInjector injector(sim);
  // [1s, 6s) fully contains [2s, 3s): the inner recovery must not bring
  // the node back at 3s.
  injector.schedule_outage(0, util::seconds(1), util::seconds(5));
  injector.schedule_outage(0, util::seconds(2), util::seconds(1));
  sim.run_until(util::seconds(4));
  EXPECT_TRUE(injector.is_down(0));
  sim.run();
  EXPECT_FALSE(injector.is_down(0));
  EXPECT_EQ(injector.failures_injected(), 1);
  EXPECT_EQ(injector.recoveries(), 1);
  EXPECT_NEAR(injector.downtime_node_seconds(), 5.0, 1e-9);
}

TEST(FaultInjector, RandomProcessIsDeterministicPerSeed) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulation sim;
    FaultInjector injector(sim, FaultInjectorConfig{seed});
    injector.random_process({0, 1, 2, 3}, /*mtbf_s=*/3.0, /*mttr_s=*/1.0,
                            util::seconds(60));
    sim.run();
    return std::make_pair(injector.failures_injected(),
                          injector.downtime_node_seconds());
  };
  const auto a = run_once(7);
  const auto b = run_once(7);
  const auto c = run_once(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_GT(a.first, 0);
}

TEST(FaultInjector, RackOutageDownsEveryHostInTheRackTogether) {
  sim::Simulation sim;
  FaultInjector injector(sim);
  // 2 compute + 4 storage across 2 racks: rack = node index % 2.
  const auto cluster = cluster::make_testbed(2, 4, 0, /*racks=*/2);
  injector.schedule_rack_outage(cluster, /*rack=*/1, util::seconds(1),
                                util::seconds(2));
  sim.run_until(util::seconds(2));
  for (cluster::NodeId node = 0; node < cluster.size(); ++node) {
    EXPECT_EQ(injector.is_down(node), cluster.node(node).rack == 1)
        << "node " << node;
  }
  sim.run();
  EXPECT_EQ(injector.down_count(), 0);
  EXPECT_EQ(injector.rack_outages_scheduled(), 1);
  EXPECT_EQ(injector.failures_injected(), 3);  // 1 compute + 2 storage
  EXPECT_EQ(injector.recoveries(), 3);
}

TEST(FaultInjector, RackOutageCoalescesWithNodeOutages) {
  sim::Simulation sim;
  FaultInjector injector(sim);
  const auto cluster = cluster::make_testbed(0, 4, 0, /*racks=*/2);
  // Node 0 (rack 0) is already down when its rack dies; it stays down
  // until the later of the two recoveries.
  injector.schedule_outage(0, util::seconds(1), util::seconds(4));
  injector.schedule_rack_outage(cluster, /*rack=*/0, util::seconds(2),
                                util::seconds(1));
  sim.run_until(util::seconds(4));
  EXPECT_TRUE(injector.is_down(0));   // node outage still holds it
  EXPECT_FALSE(injector.is_down(2));  // rack recovery at 3s released it
  sim.run();
  EXPECT_EQ(injector.down_count(), 0);
  EXPECT_EQ(injector.failures_injected(), 2);  // node 0 once, node 2 once
}

TEST(FaultInjector, RackOutageRejectsBadRack) {
  sim::Simulation sim;
  FaultInjector injector(sim);
  const auto cluster = cluster::make_testbed(2, 2, 0, /*racks=*/2);
  EXPECT_THROW(injector.schedule_rack_outage(cluster, 2, util::seconds(1),
                                             util::seconds(1)),
               std::invalid_argument);
  EXPECT_THROW(injector.schedule_rack_outage(cluster, -1, util::seconds(1),
                                             util::seconds(1)),
               std::invalid_argument);
}

TEST(FaultInjector, RandomProcessDrainsAfterHorizon) {
  sim::Simulation sim;
  FaultInjector injector(sim, FaultInjectorConfig{42});
  injector.random_process({0, 1, 2}, /*mtbf_s=*/2.0, /*mttr_s=*/0.5,
                          util::seconds(30));
  sim.run();  // no failures initiated past the horizon => queue drains
  EXPECT_EQ(injector.down_count(), 0);
  EXPECT_EQ(injector.failures_injected(), injector.recoveries());
}

}  // namespace
}  // namespace evolve::fault
