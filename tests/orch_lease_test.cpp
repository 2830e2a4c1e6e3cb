#include "orch/lease.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/fault_injector.hpp"
#include "fault/health.hpp"
#include "fault/partition.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "orch/scheduler.hpp"
#include "sim/simulation.hpp"
#include "storage/io_model.hpp"
#include "storage/object_store.hpp"
#include "util/types.hpp"

namespace evolve::orch {
namespace {

using cluster::cpu_mem;
using util::TimeNs;

PodSpec small_pod(const std::string& name) {
  PodSpec spec;
  spec.name = name;
  spec.request = cpu_mem(1000, util::kGiB);
  return spec;
}

struct LeaseFixture {
  explicit LeaseFixture(int compute = 4, LeaseManagerConfig config = {})
      : cluster(cluster::make_testbed(compute, 0, 0, 2)),
        topology(cluster),
        fabric(sim, topology),
        orch(sim, cluster, SchedulingPolicy::spreading(cluster)),
        partitions(sim, fabric),
        leases(sim, fabric, orch, config) {}

  void stop_at(TimeNs when) {
    sim.at(when, [this] { leases.stop(); });
  }

  sim::Simulation sim;
  cluster::Cluster cluster;
  net::Topology topology;
  net::Fabric fabric;
  Orchestrator orch;
  fault::PartitionInjector partitions;
  LeaseManager leases;
};

TEST(LeaseManager, HealthyNodesNeverExpire) {
  LeaseFixture f;
  f.leases.start();
  f.stop_at(util::seconds(30));
  f.sim.run();
  EXPECT_EQ(f.leases.expiries(), 0);
  EXPECT_EQ(f.leases.unreachable_count(), 0);
  EXPECT_EQ(f.fabric.stats().flows_in_flight, 0);
  for (const cluster::NodeId node : f.orch.managed_nodes()) {
    EXPECT_EQ(f.leases.epoch(node), 1);
  }
}

TEST(LeaseManager, ShortPartitionHealsWithoutEviction) {
  LeaseFixture f;
  f.orch.cordon(0);  // keep the pod off the lease leader
  const PodId pod = f.orch.submit(small_pod("p"), -1);
  f.leases.start();

  cluster::NodeId victim = cluster::kInvalidNode;
  f.sim.at(util::seconds(1), [&] {
    victim = f.orch.pod(pod).node;
    ASSERT_NE(victim, cluster::kInvalidNode);
    ASSERT_NE(victim, 0);
  });
  fault::PartitionId cut = 0;
  f.sim.at(util::seconds(5), [&] { cut = f.partitions.isolate({victim}); });
  // Grace is 10 s; heal at 9 s, well inside it.
  f.sim.at(util::seconds(9), [&] { f.partitions.heal(cut); });

  bool was_unreachable_mid_partition = false;
  bool pod_survived_mid_partition = false;
  f.sim.at(util::seconds(8), [&] {
    was_unreachable_mid_partition = f.leases.is_unreachable(victim) &&
                                    f.orch.is_unreachable(victim);
    pod_survived_mid_partition = f.orch.pod(pod).phase == PodPhase::kRunning;
  });
  f.stop_at(util::seconds(20));
  f.sim.run();

  EXPECT_TRUE(was_unreachable_mid_partition);
  EXPECT_TRUE(pod_survived_mid_partition);
  EXPECT_EQ(f.leases.expiries(), 1);
  EXPECT_EQ(f.leases.reconnects(), 1);
  EXPECT_EQ(f.leases.evictions(), 0);
  EXPECT_EQ(f.orch.pod(pod).phase, PodPhase::kRunning);  // no pod massacre
  EXPECT_FALSE(f.orch.is_unreachable(victim));
  EXPECT_EQ(f.leases.epoch(victim), 2);  // fencing epoch bumped anyway
  EXPECT_GT(f.leases.unreachable_node_seconds(), 1.0);
}

TEST(LeaseManager, GraceElapsedEvictsFencedPods) {
  LeaseManagerConfig config;
  config.grace = util::seconds(3);
  LeaseFixture f(4, config);
  f.orch.cordon(0);
  const PodId pod = f.orch.submit(small_pod("p"), -1);
  f.leases.start();

  cluster::NodeId victim = cluster::kInvalidNode;
  int evict_events = 0;
  f.leases.on_evict(
      [&](cluster::NodeId, std::int64_t, TimeNs) { ++evict_events; });
  f.sim.at(util::seconds(1), [&] { victim = f.orch.pod(pod).node; });
  fault::PartitionId cut = 0;
  f.sim.at(util::seconds(5), [&] { cut = f.partitions.isolate({victim}); });
  // Expiry lands by ~7 s, grace ends by ~10 s; heal long after, at 15 s.
  f.sim.at(util::seconds(15), [&] { f.partitions.heal(cut); });
  f.stop_at(util::seconds(25));
  f.sim.run();

  EXPECT_EQ(f.leases.expiries(), 1);
  EXPECT_EQ(f.leases.evictions(), 1);
  EXPECT_EQ(evict_events, 1);
  EXPECT_EQ(f.orch.pod(pod).phase, PodPhase::kFailed);
  // The healed node reconnected and is schedulable again.
  EXPECT_EQ(f.leases.reconnects(), 1);
  EXPECT_FALSE(f.orch.is_unreachable(victim));
}

TEST(Orchestrator, UnreachableGatesSchedulingWithoutEvicting) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(1, 0, 0, 1);
  Orchestrator orch(sim, cluster, SchedulingPolicy::spreading(cluster));

  // A running pod survives the transition to Unreachable (unlike
  // fail_node, which evicts).
  const PodId running = orch.submit(small_pod("survivor"), -1);
  sim.run();
  ASSERT_EQ(orch.pod(running).phase, PodPhase::kRunning);
  orch.conditions().set_unreachable(0, true, 2);
  EXPECT_TRUE(orch.is_unreachable(0));
  EXPECT_EQ(orch.pod(running).phase, PodPhase::kRunning);

  // New pods cannot land on an Unreachable node.
  const PodId pending = orch.submit(small_pod("blocked"), -1);
  sim.run();
  EXPECT_EQ(orch.pod(pending).phase, PodPhase::kPending);

  orch.conditions().set_unreachable(0, false, 2);
  sim.run();
  EXPECT_EQ(orch.pod(pending).phase, PodPhase::kRunning);

  // Only a node still Unreachable can be grace-evicted.
  orch.expire_unreachable(0);
  EXPECT_EQ(orch.pod(running).phase, PodPhase::kRunning);
}

TEST(LeaseManager, CrashPausesLeaseInsteadOfExpiring) {
  LeaseFixture f;
  fault::FaultInjector faults(f.sim);
  fault::connect(faults, f.orch);
  fault::connect(faults, f.leases);
  f.leases.start();

  faults.schedule_outage(2, util::seconds(3), util::seconds(5));
  f.stop_at(util::seconds(20));
  f.sim.run();

  // The downed node never became Unreachable: the crash path owned it.
  EXPECT_EQ(f.leases.expiries(), 0);
  EXPECT_EQ(f.leases.evictions(), 0);
  EXPECT_EQ(f.leases.epoch(2), 1);
  EXPECT_FALSE(f.orch.is_unreachable(2));
}

// A node that crashes while its lease is expired stays Unreachable
// through the outage; once it is back and a heartbeat lands, every
// expiry is matched by exactly one reconnect. Recovering while still
// partitioned is not a reconnect.
TEST(LeaseManager, CrashDuringExpiryReconnectsOnceBack) {
  for (const bool heal_first : {true, false}) {
    SCOPED_TRACE(heal_first ? "heal before restore" : "restore before heal");
    LeaseFixture f;
    fault::FaultInjector faults(f.sim);
    fault::connect(faults, f.orch);
    fault::connect(faults, f.leases);
    std::set<cluster::NodeId> expired;
    cluster::NodeConditions table([&](cluster::NodeId node,
                                      const cluster::NodeCondition&,
                                      const cluster::NodeCondition& after) {
      if (after.unreachable) {
        EXPECT_TRUE(expired.insert(node).second);
      } else {
        EXPECT_EQ(expired.erase(node), 1u);
      }
    });
    f.leases.attach(table);
    f.leases.start();

    fault::PartitionId cut = 0;
    f.sim.at(util::seconds(5), [&] { cut = f.partitions.isolate({2}); });
    // Down at 9 s, after the lease expired; back at 15 s.
    faults.schedule_outage(2, util::seconds(9), util::seconds(6));
    const TimeNs heal = util::seconds(heal_first ? 12 : 20);
    f.sim.at(heal, [&] { f.partitions.heal(cut); });
    std::int64_t reconnects_before_heal = -1;
    f.sim.at(util::seconds(18), [&] {
      reconnects_before_heal = f.leases.reconnects();
    });
    f.stop_at(util::seconds(40));
    f.sim.run();

    EXPECT_EQ(f.leases.expiries(), 1);
    EXPECT_EQ(f.leases.reconnects(), 1);
    EXPECT_EQ(reconnects_before_heal, heal_first ? 1 : 0);
    EXPECT_TRUE(expired.empty());
    EXPECT_FALSE(f.orch.is_unreachable(2));
    EXPECT_TRUE(f.orch.is_ready(2));
  }
}

// A node that crashes and recovers while its lease stays expired is
// still out of the health scorer's peer medians: crash and lease expiry
// are two conditions, and clearing one leaves the other.
TEST(LeaseManager, ScorerKeepsLeaseExpiredNodeOutAfterCrash) {
  LeaseFixture f;
  fault::FaultInjector faults(f.sim);
  fault::HealthScorerConfig config;
  config.min_samples = 1;
  fault::HealthScorer scorer(f.sim, config);
  fault::connect(faults, f.leases);
  fault::connect(faults, scorer);
  fault::connect(f.leases, scorer);
  // Node 1's stale history is slow; nodes 2 and 3 are healthy.
  scorer.record(1, util::millis(100));
  scorer.record(2, util::millis(10));
  scorer.record(3, util::millis(10));
  f.leases.start();
  f.sim.at(util::seconds(1), [&] { f.partitions.isolate({1}); });
  faults.schedule_outage(1, util::seconds(5), util::seconds(1));
  std::vector<std::pair<bool, bool>> seen;  // (lease expired, excluded)
  for (const TimeNs at : {util::millis(7500), util::millis(20'500)}) {
    f.sim.at(at, [&] {
      seen.emplace_back(f.leases.is_unreachable(1), scorer.is_node_down(1));
    });
  }
  f.stop_at(util::seconds(21));
  f.sim.run();

  ASSERT_EQ(seen.size(), 2u);
  for (const auto& [expired, excluded] : seen) {
    EXPECT_TRUE(expired);
    EXPECT_TRUE(excluded);
  }
  // Without node 1, node 2 has a single live peer: no median yet.
  EXPECT_EQ(scorer.score(2), 0.0);
}

TEST(LeaseManager, ZombieWriteIsFencedByStaleEpoch) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(2, 3, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"));
  store.create_bucket("data");
  Orchestrator orch(sim, cluster, SchedulingPolicy::spreading(cluster));
  fault::PartitionInjector partitions(sim, fabric);
  LeaseManager leases(sim, fabric, orch, {});
  fault::connect(leases, store);
  leases.start();

  // Writer node 1 takes its pre-partition epoch with it to the far side.
  const std::int64_t stale_epoch = leases.epoch(1);
  fault::PartitionId cut = 0;
  sim.at(util::seconds(2), [&] { cut = partitions.isolate({1}); });
  sim.at(util::seconds(12), [&] { partitions.heal(cut); });
  sim.at(util::seconds(20), [&] { leases.stop(); });
  sim.run();
  ASSERT_EQ(leases.expiries(), 1);
  ASSERT_EQ(leases.epoch(1), stale_epoch + 1);

  // The zombie write arrives stamped with the old epoch: rejected
  // synchronously, no bytes move, no callback fires.
  bool zombie_completed = false;
  EXPECT_FALSE(store.put_fenced(1, stale_epoch,
                                storage::ObjectKey{"data", "zombie"},
                                util::kMiB, [&] { zombie_completed = true; }));
  sim.run();
  EXPECT_FALSE(zombie_completed);
  EXPECT_FALSE(store.exists(storage::ObjectKey{"data", "zombie"}));
  EXPECT_EQ(store.writes_fenced(), 1);
  EXPECT_EQ(store.fence_epoch(1), stale_epoch + 1);

  // The same writer at the current epoch (post-reconnect) goes through.
  bool fresh_completed = false;
  EXPECT_TRUE(store.put_fenced(1, leases.epoch(1),
                               storage::ObjectKey{"data", "fresh"}, util::kMiB,
                               [&] { fresh_completed = true; }));
  sim.run();
  EXPECT_TRUE(fresh_completed);
  EXPECT_TRUE(store.exists(storage::ObjectKey{"data", "fresh"}));
}

}  // namespace
}  // namespace evolve::orch
