#include "fault/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/fault_injector.hpp"
#include "fault/health.hpp"
#include "net/fabric.hpp"
#include "reference/ref_fabric.hpp"
#include "sim/simulation.hpp"
#include "util/types.hpp"

namespace evolve::fault {
namespace {

using util::Bytes;
using util::TimeNs;

// Either fabric engine on a 4-host, 2-rack testbed.
template <typename FabricT>
struct FabricFixture {
  FabricFixture()
      : cluster(cluster::make_testbed(4, 0, 0, 2)),
        topology(cluster),
        fabric(sim, topology) {}

  sim::Simulation sim;
  cluster::Cluster cluster;
  net::Topology topology;
  FabricT fabric;
};

struct PartitionFixture : FabricFixture<net::Fabric> {
  PartitionInjector injector{sim, fabric};
};

// make_testbed(4, 0, 0, 2) round-robins hosts over racks: hosts 0, 2 in
// rack 0 and hosts 1, 3 in rack 1 (see cluster::make_testbed). Derive
// the sides instead of hard-coding them so the test survives layout
// changes.
std::vector<cluster::NodeId> rack_hosts(const net::Topology& topo, int rack) {
  std::vector<cluster::NodeId> hosts;
  for (cluster::NodeId h = 0; h < topo.host_count(); ++h) {
    if (topo.rack_of(h) == rack) hosts.push_back(h);
  }
  return hosts;
}

TEST(Fabric, ReachabilityDefaultsToOpen) {
  PartitionFixture f;
  EXPECT_TRUE(f.fabric.reachable(0, 3));
  EXPECT_EQ(f.fabric.parked_flows(), 0);
}

TEST(Fabric, TransferAcrossPartitionParksUntilHeal) {
  PartitionFixture f;
  const auto side_a = rack_hosts(f.topology, 0);
  const auto side_b = rack_hosts(f.topology, 1);
  const PartitionId id = f.injector.split({side_a, side_b});

  EXPECT_FALSE(f.fabric.reachable(side_a[0], side_b[0]));
  EXPECT_TRUE(f.fabric.reachable(side_a[0], side_a[1]));
  EXPECT_TRUE(f.fabric.reachable(side_a[0], side_a[0]));  // loopback exempt

  TimeNs done = -1;
  f.fabric.transfer(side_a[0], side_b[0], util::kMiB,
                    [&] { done = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(done, -1);  // parked, not failed
  EXPECT_EQ(f.fabric.parked_flows(), 1);
  EXPECT_EQ(f.fabric.stats().flows_parked, 1);
  EXPECT_EQ(f.fabric.stats().flows_in_flight, 1);

  f.injector.heal(id);
  f.sim.run();
  EXPECT_GT(done, 0);
  EXPECT_EQ(f.fabric.parked_flows(), 0);
  EXPECT_EQ(f.fabric.stats().flows_resumed, 1);
  EXPECT_EQ(f.fabric.stats().flows_completed, 1);
  EXPECT_EQ(f.fabric.stats().flows_in_flight, 0);
}

TEST(Fabric, MidTransferPartitionStallsForItsDuration) {
  // Same flow with and without a mid-transfer partition: the partition
  // should push completion out by (almost exactly) its duration.
  const Bytes bytes = 1250 * util::kMiB;  // ~1.05 s solo
  TimeNs solo = -1;
  {
    PartitionFixture f;
    f.fabric.transfer(0, 1, bytes, [&] { solo = f.sim.now(); });
    f.sim.run();
  }
  ASSERT_GT(solo, 0);

  PartitionFixture f;
  const TimeNs cut = util::millis(200);
  const TimeNs heal = util::millis(700);
  TimeNs done = -1;
  f.fabric.transfer(0, 1, bytes, [&] { done = f.sim.now(); });
  f.sim.at(cut, [&] { f.injector.split({{0}, {1}}); });
  f.sim.at(heal, [&] { f.injector.heal_all(); });
  f.sim.run();
  ASSERT_GT(done, 0);
  EXPECT_NEAR(util::to_seconds(done), util::to_seconds(solo + (heal - cut)),
              0.002);
  EXPECT_EQ(f.fabric.stats().flows_parked, 1);
  EXPECT_EQ(f.fabric.stats().flows_resumed, 1);
}

// Two flows parked by a 0|1 split at 100 ms and resumed by the heal at
// 400 ms, on either fabric engine; returns the first flow's completion.
// The mask is installed through the engine's own calls because
// PartitionInjector drives only net::Fabric: hosts 0 and 1 are classes 0
// and 1, cut off from each other, and hosts 2 and 3 (class 2) bridge.
template <typename FabricT>
TimeNs park_and_heal() {
  FabricFixture<FabricT> f;
  TimeNs done = -1;
  f.fabric.transfer(0, 1, 500 * util::kMiB, [&] { done = f.sim.now(); });
  f.fabric.transfer(0, 1, 100 * util::kMiB, [] {});
  f.sim.at(util::millis(100), [&] {
    f.fabric.set_reachability({0, 1, 2, 2},
                              {{0, 1, 0}, {1, 0, 0}, {0, 0, 0}});
  });
  f.sim.at(util::millis(400), [&] { f.fabric.clear_partitions(); });
  f.sim.run();
  EXPECT_EQ(f.fabric.stats().flows_parked, 2);
  EXPECT_EQ(f.fabric.stats().flows_resumed, 2);
  EXPECT_EQ(f.fabric.stats().flows_in_flight, 0);
  return done;
}

TEST(Fabric, ReferenceSolverParksIdentically) {
  const TimeNs done_grouped = park_and_heal<net::Fabric>();
  const TimeNs done_ref = park_and_heal<reference::RefFabric>();
  ASSERT_GT(done_grouped, 0);
  // The two solvers settle rates with different arithmetic orders;
  // completion must agree to within the solvers' usual tolerance.
  EXPECT_NEAR(util::to_seconds(done_grouped), util::to_seconds(done_ref),
              0.001);
}

// A malformed mask is rejected by both engines before it is installed,
// instead of indexing out of bounds on the next reachability check.
template <typename FabricT>
void expect_mask_rejected(std::vector<int> host_group,
                          std::vector<std::vector<char>> blocked) {
  FabricFixture<FabricT> f;
  EXPECT_THROW(f.fabric.set_reachability(host_group, blocked),
               std::invalid_argument);
  // The fabric stays fully connected: a transfer runs, nothing parks.
  bool done = false;
  f.fabric.transfer(0, 1, util::kMiB, [&] { done = true; });
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(f.fabric.stats().flows_parked, 0);
}

void expect_mask_rejected_by_both(std::vector<int> host_group,
                                  std::vector<std::vector<char>> blocked) {
  expect_mask_rejected<net::Fabric>(host_group, blocked);
  expect_mask_rejected<reference::RefFabric>(host_group, blocked);
}

TEST(Fabric, ReachabilityRejectsGroupIdPastTheMatrix) {
  expect_mask_rejected_by_both({0, 1, 2, 1}, {{0, 1}, {1, 0}});
}

TEST(Fabric, ReachabilityRejectsNegativeGroupId) {
  expect_mask_rejected_by_both({0, -1, 1, 1}, {{0, 1}, {1, 0}});
}

TEST(Fabric, ReachabilityRejectsShortRow) {
  expect_mask_rejected_by_both({0, 1, 0, 1}, {{0, 1}, {1}});
}

TEST(Fabric, ReachabilityRejectsHostGroupSizeMismatch) {
  expect_mask_rejected_by_both({0, 1, 0}, {{0, 1}, {1, 0}});
}

TEST(Fabric, CancelParkedFlowDropsIt) {
  PartitionFixture f;
  f.injector.split({{0}, {1}});
  bool fired = false;
  const net::FlowId id =
      f.fabric.transfer(0, 1, util::kMiB, [&] { fired = true; });
  EXPECT_EQ(f.fabric.parked_flows(), 1);
  EXPECT_TRUE(f.fabric.cancel(id));
  EXPECT_EQ(f.fabric.parked_flows(), 0);
  EXPECT_EQ(f.fabric.stats().flows_in_flight, 0);
  f.injector.heal_all();
  f.sim.run();
  EXPECT_FALSE(fired);
}

TEST(Fabric, ZeroByteTransferAlsoParks) {
  PartitionFixture f;
  const PartitionId id = f.injector.split({{0}, {1}});
  TimeNs done = -1;
  f.fabric.transfer(0, 1, 0, [&] { done = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(done, -1);
  const TimeNs heal_at = util::millis(50);
  f.sim.at(heal_at, [&] { f.injector.heal(id); });
  f.sim.run();
  EXPECT_EQ(done, heal_at + f.topology.latency(0, 1));
}

TEST(PartitionInjector, BridgeNodesStillReachBothSides) {
  PartitionFixture f;
  // Hosts 0 and 1 split; hosts 2 and 3 are listed in no side, so they
  // bridge: a partial partition.
  f.injector.split({{0}, {1}});
  EXPECT_FALSE(f.fabric.reachable(0, 1));
  EXPECT_FALSE(f.fabric.reachable(1, 0));
  EXPECT_TRUE(f.fabric.reachable(0, 2));
  EXPECT_TRUE(f.fabric.reachable(2, 1));
  EXPECT_TRUE(f.fabric.reachable(3, 2));
}

TEST(PartitionInjector, IsolateRackCutsOnlyCrossRackPairs) {
  PartitionFixture f;
  f.injector.isolate_rack(0);
  const auto in_rack = rack_hosts(f.topology, 0);
  const auto out_rack = rack_hosts(f.topology, 1);
  ASSERT_GE(in_rack.size(), 2u);
  ASSERT_GE(out_rack.size(), 2u);
  EXPECT_FALSE(f.fabric.reachable(in_rack[0], out_rack[0]));
  EXPECT_FALSE(f.fabric.reachable(out_rack[0], in_rack[0]));
  EXPECT_TRUE(f.fabric.reachable(in_rack[0], in_rack[1]));  // intra-rack ok
  EXPECT_TRUE(f.fabric.reachable(out_rack[0], out_rack[1]));
}

TEST(PartitionInjector, AsymmetricBlocksOneDirectionOnly) {
  PartitionFixture f;
  const PartitionId id = f.injector.asymmetric({0}, {1});
  EXPECT_FALSE(f.fabric.reachable(0, 1));
  EXPECT_TRUE(f.fabric.reachable(1, 0));  // the reverse path still works
  EXPECT_TRUE(f.fabric.reachable(0, 2));

  TimeNs fwd = -1;
  TimeNs rev = -1;
  f.fabric.transfer(0, 1, util::kMiB, [&] { fwd = f.sim.now(); });
  f.fabric.transfer(1, 0, util::kMiB, [&] { rev = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(fwd, -1);
  EXPECT_GT(rev, 0);
  f.injector.heal(id);
  f.sim.run();
  EXPECT_GT(fwd, 0);
}

TEST(PartitionInjector, OverlappingEdictsComposeAndHealIndependently) {
  PartitionFixture f;
  const auto rack0 = rack_hosts(f.topology, 0);
  const auto rack1 = rack_hosts(f.topology, 1);
  const PartitionId rack_cut = f.injector.isolate_rack(0);
  const PartitionId node_cut = f.injector.isolate({rack1[0]});
  EXPECT_EQ(f.injector.active_partitions(), 2);

  // Both edicts in force: rack 0 cut off, and rack1[0] cut off from its
  // own rack-mate too.
  EXPECT_FALSE(f.fabric.reachable(rack0[0], rack1[0]));
  EXPECT_FALSE(f.fabric.reachable(rack1[0], rack1[1]));
  EXPECT_TRUE(f.fabric.reachable(rack0[0], rack0[1]));

  // Healing the rack cut must leave the node isolation intact.
  f.injector.heal(rack_cut);
  EXPECT_TRUE(f.fabric.reachable(rack0[0], rack1[1]));
  EXPECT_FALSE(f.fabric.reachable(rack1[0], rack1[1]));
  EXPECT_FALSE(f.fabric.reachable(rack0[0], rack1[0]));

  f.injector.heal(node_cut);
  EXPECT_TRUE(f.fabric.reachable(rack1[0], rack1[1]));
  EXPECT_FALSE(f.injector.active());
  EXPECT_EQ(f.injector.heals(), 2);
}

TEST(PartitionInjector, PartitionSecondsCoversTheUnion) {
  PartitionFixture f;
  // Two overlapping edicts: [1s, 4s] and [2s, 6s] -> union is 5 seconds.
  f.injector.schedule_rack_isolation(0, util::seconds(1), util::seconds(3));
  f.injector.schedule_split({{0}, {1}}, util::seconds(2), util::seconds(4));
  int starts = 0;
  int heals = 0;
  f.injector.on_partition([&](TimeNs) { ++starts; });
  f.injector.on_heal([&](TimeNs) { ++heals; });
  f.sim.run();
  EXPECT_EQ(starts, 2);
  EXPECT_EQ(heals, 2);
  EXPECT_NEAR(f.injector.partition_seconds(), 5.0, 1e-9);
  EXPECT_EQ(f.injector.partitions_injected(), 2);
}

TEST(PartitionInjector, RandomProcessIsSeededAndDeterministic) {
  auto run = [](std::uint64_t seed) {
    PartitionInjectorConfig config;
    config.seed = seed;
    sim::Simulation sim;
    auto cluster = cluster::make_testbed(4, 0, 0, 2);
    net::Topology topo(cluster);
    net::Fabric fabric(sim, topo);
    PartitionInjector injector(sim, fabric, config);
    injector.random_partitions(2.0, 1.0, util::seconds(60));
    sim.run();
    EXPECT_FALSE(injector.active());  // every injected partition healed
    return std::make_pair(injector.partitions_injected(),
                          injector.partition_seconds());
  };
  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(8);
  EXPECT_GT(a.first, 0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// -- Satellite: FaultInjector overlap composition ----------------------

TEST(FaultInjector, OverlappingOutagesCoalesceWithPartitionsActive) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(4, 0, 0, 2);
  net::Topology topo(cluster);
  net::Fabric fabric(sim, topo);
  FaultInjector faults(sim);
  PartitionInjector partitions(sim, fabric);

  std::vector<std::pair<cluster::NodeId, bool>> transitions;
  cluster::NodeConditions table(
      [&](cluster::NodeId node, const cluster::NodeCondition&,
          const cluster::NodeCondition& after) {
        transitions.emplace_back(node, !after.down);
      });
  faults.attach(table);

  // Node 0 lives in rack 0. Rack outage [1s, 5s] overlaps a per-node
  // outage [3s, 7s]; a concurrent network partition [2s, 6s] must not
  // perturb the crash accounting at all (different failure planes).
  const int rack0 = topo.rack_of(0);
  faults.schedule_rack_outage(cluster, rack0, util::seconds(1),
                              util::seconds(4));
  faults.schedule_outage(0, util::seconds(3), util::seconds(4));
  partitions.schedule_rack_isolation(1, util::seconds(2), util::seconds(4));
  sim.run();

  // One failure and one recovery per rack-0 node: the overlapping
  // per-node outage extends node 0's downtime instead of double-firing.
  int node0_failures = 0;
  int node0_recoveries = 0;
  for (const auto& [node, up] : transitions) {
    if (node != 0) continue;
    up ? ++node0_recoveries : ++node0_failures;
  }
  EXPECT_EQ(node0_failures, 1);
  EXPECT_EQ(node0_recoveries, 1);
  EXPECT_EQ(faults.down_count(), 0);

  // Downtime union: node 0 down [1s, 7s] = 6s; its rack-mates down
  // [1s, 5s] = 4s each.
  const int rack_mates = static_cast<int>(
      std::count_if(transitions.begin(), transitions.end(),
                    [](const auto& t) { return !t.second; }));
  const double expected = 6.0 + 4.0 * (rack_mates - 1);
  EXPECT_NEAR(faults.downtime_node_seconds(), expected, 1e-9);
  EXPECT_NEAR(partitions.partition_seconds(), 4.0, 1e-9);
}

// -- Satellite: peer-median health regression --------------------------

TEST(HealthScorer, DownNodesDropOutOfPeerMedian) {
  sim::Simulation sim;
  HealthScorerConfig config;
  config.min_samples = 1;
  config.ewma_alpha = 1.0;  // score tracks the latest sample exactly
  HealthScorer scorer(sim, config);

  // Nodes 1..3 are slow history (100 ms); node 0 runs at 10 ms.
  for (cluster::NodeId n = 1; n <= 3; ++n) {
    scorer.record(n, util::millis(100));
  }
  scorer.record(0, util::millis(10));
  EXPECT_NEAR(scorer.score(0), 0.1, 1e-9);

  // Nodes 2 and 3 die. Without the down-exclusion their frozen 100 ms
  // EWMAs would keep the median at 100 ms and node 1 (now also at
  // 10 ms) would look healthy against dead peers; with it, the median
  // is formed from live nodes only.
  scorer.conditions().set_down(2, true);
  scorer.conditions().set_down(3, true);
  scorer.record(0, util::millis(10));
  scorer.record(1, util::millis(10));
  // Live peers of node 1: just node 0 -> below kMinPeers, so unknown.
  EXPECT_EQ(scorer.score(1), 0.0);

  // A third live node restores the median from live data.
  scorer.conditions().set_down(2, false);
  scorer.record(2, util::millis(10));
  EXPECT_NEAR(scorer.score(1), 1.0, 1e-9);
  EXPECT_FALSE(scorer.is_node_down(2));
  EXPECT_TRUE(scorer.is_node_down(3));
}

}  // namespace
}  // namespace evolve::fault
