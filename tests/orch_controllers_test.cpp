#include "orch/controllers.hpp"

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "sim/simulation.hpp"
#include "util/types.hpp"

namespace evolve::orch {
namespace {

using cluster::cpu_mem;

struct CtrlFixture {
  explicit CtrlFixture(int compute = 2, OrchestratorConfig config = {})
      : cluster(cluster::make_testbed(compute, 0, 0)),
        orch(sim, cluster, SchedulingPolicy::spreading(cluster), config) {}

  sim::Simulation sim;
  cluster::Cluster cluster;
  Orchestrator orch;
};

PodSpec web_pod() {
  PodSpec spec;
  spec.name = "web";
  spec.request = cpu_mem(1000, util::kGiB);
  return spec;
}

TEST(DeploymentController, MaintainsReplicas) {
  CtrlFixture f;
  DeploymentController deploy(f.orch, "web", web_pod(), 3);
  f.sim.run();
  EXPECT_EQ(deploy.live(), 3);
  EXPECT_EQ(f.orch.running_count(), 3);
}

TEST(DeploymentController, ScaleUpAndDown) {
  CtrlFixture f;
  DeploymentController deploy(f.orch, "web", web_pod(), 2);
  f.sim.run();
  deploy.scale(5);
  f.sim.run();
  EXPECT_EQ(f.orch.running_count(), 5);
  deploy.scale(1);
  f.sim.run();
  EXPECT_EQ(f.orch.running_count(), 1);
  EXPECT_THROW(deploy.scale(-1), std::invalid_argument);
}

TEST(DeploymentController, RestartsEvictedReplica) {
  OrchestratorConfig config;
  config.enable_preemption = true;
  CtrlFixture f(1, config);
  PodSpec big = web_pod();
  big.request = cpu_mem(16000, 32 * util::kGiB);
  DeploymentController deploy(f.orch, "svc", big, 2);  // fills the node
  f.sim.run();
  EXPECT_EQ(deploy.live(), 2);
  // A high-priority pod preempts one replica; the controller recreates it
  // once the high-priority pod finishes.
  PodSpec high = web_pod();
  high.request = cpu_mem(16000, 32 * util::kGiB);
  high.priority = 100;
  f.orch.submit(high, util::seconds(1));
  f.sim.run();
  EXPECT_GT(deploy.restarts(), 0);
  EXPECT_EQ(f.orch.running_count(), 2);  // both replicas live again
}

TEST(DeploymentController, StopTerminatesAll) {
  CtrlFixture f;
  DeploymentController deploy(f.orch, "web", web_pod(), 3);
  f.sim.run();
  deploy.stop();
  f.sim.run();
  EXPECT_EQ(deploy.live(), 0);
  EXPECT_EQ(f.orch.running_count(), 0);
}

TEST(DeploymentController, ScaleDownEvictsCompromisedReplicasFirst) {
  CtrlFixture f(3);
  PodSpec pod = web_pod();
  pod.anti_affinity_group = "web";  // one replica per node
  DeploymentController deploy(f.orch, "web", pod, 3);
  f.sim.run();
  ASSERT_EQ(f.orch.running_count(), 3);
  for (cluster::NodeId n = 0; n < 3; ++n) {
    ASSERT_EQ(f.orch.node_status(n).pod_count(), 1);
  }
  f.orch.cordon(0);
  f.orch.conditions().set_quarantined(1, true);
  // Quarantined ranks worse than cordoned: node 1 loses its replica
  // first, then node 0; the healthy node keeps its replica throughout.
  deploy.scale(2);
  f.sim.run();
  EXPECT_EQ(f.orch.node_status(1).pod_count(), 0);
  EXPECT_EQ(f.orch.node_status(0).pod_count(), 1);
  deploy.scale(1);
  f.sim.run();
  EXPECT_EQ(f.orch.node_status(0).pod_count(), 0);
  EXPECT_EQ(f.orch.node_status(2).pod_count(), 1);
}

TEST(DeploymentController, ScaleDownEvictsUnreachableReplicaFirst) {
  CtrlFixture f(2);
  PodSpec pod = web_pod();
  pod.anti_affinity_group = "web";  // one replica per node
  DeploymentController deploy(f.orch, "web", pod, 2);
  f.sim.run();
  ASSERT_EQ(f.orch.node_status(0).pod_count(), 1);
  ASSERT_EQ(f.orch.node_status(1).pod_count(), 1);
  // Node 1's lease expired: its replica is fenced, not healthy. Among
  // healthy replicas the oldest (node 0's) would go first.
  f.orch.conditions().set_unreachable(1, true, 2);
  deploy.scale(1);
  f.sim.run();
  EXPECT_EQ(f.orch.node_status(1).pod_count(), 0);
  EXPECT_EQ(f.orch.node_status(0).pod_count(), 1);
}

TEST(DeploymentController, HealthyScaleDownIsDeterministic) {
  CtrlFixture f(2);
  DeploymentController deploy(f.orch, "web", web_pod(), 3);
  f.sim.run();
  // All replicas healthy: the tie breaks to the lowest (oldest) pod id,
  // so repeated runs always evict the same replica.
  deploy.scale(2);
  f.sim.run();
  EXPECT_EQ(f.orch.running_count(), 2);
  EXPECT_EQ(deploy.live(), 2);
}

TEST(DeploymentController, ObserverReplaysRunningReplicas) {
  CtrlFixture f(2);
  DeploymentController deploy(f.orch, "web", web_pod(), 2);
  f.sim.run();
  std::vector<std::pair<PodId, bool>> events;
  deploy.set_replica_observer(
      [&events](PodId pod, cluster::NodeId, bool up) {
        events.emplace_back(pod, up);
      });
  // Late subscription: both running replicas replayed as `up`.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[0].second);
  EXPECT_TRUE(events[1].second);
  EXPECT_EQ(deploy.running(), 2);

  deploy.scale(3);
  f.sim.run();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(events[2].second);
  deploy.scale(2);
  f.sim.run();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_FALSE(events[3].second);  // the evicted replica went down
  EXPECT_EQ(deploy.running(), 2);
}

TEST(DeploymentController, ObserverSeesEvictionAndRestart) {
  CtrlFixture f(3);  // a third node hosts the anti-affine replacement
  PodSpec pod = web_pod();
  pod.anti_affinity_group = "web";
  DeploymentController deploy(f.orch, "web", pod, 2);
  f.sim.run();
  int ups = 0, downs = 0;
  deploy.set_replica_observer([&](PodId, cluster::NodeId, bool up) {
    up ? ++ups : ++downs;
  });
  ASSERT_EQ(ups, 2);  // replay
  f.orch.drain(0);
  f.sim.run();
  // The drained replica went down and its replacement came up.
  EXPECT_EQ(downs, 1);
  EXPECT_EQ(ups, 3);
  EXPECT_EQ(deploy.running(), 2);
}

}  // namespace
}  // namespace evolve::orch
