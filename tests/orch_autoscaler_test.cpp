#include "orch/autoscaler.hpp"

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "sim/simulation.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

namespace evolve::orch {
namespace {

using cluster::cpu_mem;

struct HpaFixture {
  HpaFixture()
      : cluster(cluster::make_testbed(8, 0, 0)),
        orch(sim, cluster, SchedulingPolicy::spreading(cluster)) {
    PodSpec pod;
    pod.name = "web";
    pod.request = cpu_mem(1000, util::kGiB);
    deploy = std::make_unique<DeploymentController>(orch, "web", pod, 1);
  }

  AutoscalerConfig config() {
    AutoscalerConfig c;
    c.capacity_per_replica = 100.0;
    c.target_utilization = 1.0;
    c.min_replicas = 1;
    c.max_replicas = 10;
    c.interval = util::seconds(10);
    c.scale_down_window = util::seconds(30);
    return c;
  }

  sim::Simulation sim;
  cluster::Cluster cluster;
  Orchestrator orch;
  std::unique_ptr<DeploymentController> deploy;
  double load = 0;
};

TEST(Autoscaler, ValidatesConfig) {
  HpaFixture f;
  auto bad = f.config();
  bad.capacity_per_replica = 0;
  EXPECT_THROW(HorizontalAutoscaler(f.sim, *f.deploy, [] { return 0.0; }, bad),
               std::invalid_argument);
  auto bad2 = f.config();
  bad2.target_utilization = 1.5;
  EXPECT_THROW(
      HorizontalAutoscaler(f.sim, *f.deploy, [] { return 0.0; }, bad2),
      std::invalid_argument);
  auto bad3 = f.config();
  bad3.max_replicas = 0;
  bad3.min_replicas = 2;
  EXPECT_THROW(
      HorizontalAutoscaler(f.sim, *f.deploy, [] { return 0.0; }, bad3),
      std::invalid_argument);
  EXPECT_THROW(HorizontalAutoscaler(f.sim, *f.deploy, {}, f.config()),
               std::invalid_argument);
}

TEST(Autoscaler, ScalesUpWithLoad) {
  HpaFixture f;
  HorizontalAutoscaler hpa(f.sim, *f.deploy, [&f] { return f.load; },
                           f.config());
  hpa.start();
  f.load = 450.0;  // needs 5 replicas at 100/replica
  f.sim.run_until(util::seconds(25));
  EXPECT_EQ(f.deploy->desired(), 5);
  EXPECT_GT(hpa.scale_ups(), 0);
  hpa.stop();
  f.sim.run();
}

TEST(Autoscaler, RespectsMaxReplicas) {
  HpaFixture f;
  HorizontalAutoscaler hpa(f.sim, *f.deploy, [] { return 1e9; }, f.config());
  hpa.start();
  f.sim.run_until(util::seconds(25));
  EXPECT_EQ(f.deploy->desired(), 10);
  hpa.stop();
  f.sim.run();
}

TEST(Autoscaler, ScaleDownWaitsForStabilizationWindow) {
  HpaFixture f;
  HorizontalAutoscaler hpa(f.sim, *f.deploy, [&f] { return f.load; },
                           f.config());
  hpa.start();
  f.load = 800.0;
  f.sim.run_until(util::seconds(15));
  EXPECT_EQ(f.deploy->desired(), 8);
  // Load drops; scale-down must wait out the 30s window that still
  // contains the high recommendation.
  f.load = 100.0;
  f.sim.run_until(util::seconds(35));
  EXPECT_EQ(f.deploy->desired(), 8);  // held by stabilization
  f.sim.run_until(util::seconds(75));
  EXPECT_EQ(f.deploy->desired(), 1);  // window drained -> scaled down
  EXPECT_GT(hpa.scale_downs(), 0);
  hpa.stop();
  f.sim.run();
}

TEST(Autoscaler, TransientDipDoesNotFlap) {
  HpaFixture f;
  HorizontalAutoscaler hpa(f.sim, *f.deploy, [&f] { return f.load; },
                           f.config());
  hpa.start();
  f.load = 500.0;
  f.sim.run_until(util::seconds(15));
  const int before = f.deploy->desired();
  f.load = 50.0;  // one-interval dip
  f.sim.run_until(util::seconds(25));
  f.load = 500.0;
  f.sim.run_until(util::seconds(55));
  EXPECT_EQ(f.deploy->desired(), before);  // never scaled down
  hpa.stop();
  f.sim.run();
}

TEST(Autoscaler, StabilizationWindowBoundaryIsInclusive) {
  // The scale-down window keeps samples with t >= now - window: a high
  // recommendation exactly one window old still blocks the scale-down;
  // one tick past, it is evicted.
  HpaFixture f;
  HorizontalAutoscaler hpa(f.sim, *f.deploy, [&f] { return f.load; },
                           f.config());
  f.sim.at(0, [&] {
    f.load = 800.0;
    hpa.reconcile();
  });
  f.sim.run();
  EXPECT_EQ(f.deploy->desired(), 8);
  f.sim.at(util::seconds(30), [&] {
    f.load = 100.0;
    hpa.reconcile();  // the t=0 sample sits exactly on the boundary
  });
  f.sim.run();
  EXPECT_EQ(f.deploy->desired(), 8);  // still held
  f.sim.at(util::seconds(30) + 1, [&] { hpa.reconcile(); });
  f.sim.run();
  EXPECT_EQ(f.deploy->desired(), 1);  // boundary sample evicted
}

TEST(Autoscaler, RecommendationCeilingAtExactCapacity) {
  HpaFixture f;
  HorizontalAutoscaler hpa(f.sim, *f.deploy, [&f] { return f.load; },
                           f.config());
  // 100/replica at utilization 1: 300 is exactly 3 replicas, a hair
  // more must round up to 4.
  f.load = 300.0;
  hpa.reconcile();
  EXPECT_EQ(hpa.last_recommendation(), 3);
  f.load = 300.5;
  hpa.reconcile();
  EXPECT_EQ(hpa.last_recommendation(), 4);
}

TEST(Autoscaler, ZeroLoadClampsToMinNeverZero) {
  HpaFixture f;
  HorizontalAutoscaler hpa(f.sim, *f.deploy, [&f] { return f.load; },
                           f.config());
  hpa.start();
  f.load = 500.0;
  f.sim.run_until(util::seconds(15));
  EXPECT_EQ(f.deploy->desired(), 5);
  // Load vanishes entirely: after the stabilization window drains the
  // deployment settles at min_replicas, not zero.
  f.load = 0.0;
  f.sim.run_until(util::seconds(60));
  EXPECT_EQ(f.deploy->desired(), 1);
  EXPECT_EQ(hpa.last_recommendation(), 1);
  hpa.stop();
  f.sim.run();
}

TEST(Autoscaler, NegativeLoadTreatedAsMin) {
  HpaFixture f;
  HorizontalAutoscaler hpa(f.sim, *f.deploy, [] { return -50.0; },
                           f.config());
  hpa.reconcile();
  EXPECT_EQ(hpa.last_recommendation(), 1);
  EXPECT_EQ(f.deploy->desired(), 1);
}

TEST(Autoscaler, MinEqualsMaxPinsTheDeployment) {
  HpaFixture f;
  auto config = f.config();
  config.min_replicas = 4;
  config.max_replicas = 4;
  HorizontalAutoscaler hpa(f.sim, *f.deploy, [&f] { return f.load; }, config);
  hpa.start();
  f.load = 0.0;
  f.sim.run_until(util::seconds(15));
  EXPECT_EQ(f.deploy->desired(), 4);
  f.load = 1e6;
  f.sim.run_until(util::seconds(35));
  EXPECT_EQ(f.deploy->desired(), 4);
  hpa.stop();
  f.sim.run();
}

TEST(Autoscaler, HonorsMinReplicas) {
  HpaFixture f;
  auto config = f.config();
  config.min_replicas = 3;
  HorizontalAutoscaler hpa(f.sim, *f.deploy, [] { return 0.0; }, config);
  hpa.reconcile();
  EXPECT_EQ(hpa.last_recommendation(), 3);
}

TEST(OrchestratorDrain, CordonBlocksPlacement) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(2, 0, 0);
  Orchestrator orch(sim, cluster, SchedulingPolicy::spreading(cluster));
  orch.cordon(0);
  EXPECT_TRUE(orch.is_cordoned(0));
  for (int i = 0; i < 4; ++i) {
    PodSpec pod;
    pod.name = util::numbered("p", i);
    pod.request = cpu_mem(1000, util::kGiB);
    cluster::NodeId placed = cluster::kInvalidNode;
    orch.submit(pod, -1, [&](PodId, cluster::NodeId n) { placed = n; });
    sim.run();
    EXPECT_EQ(placed, 1);
  }
}

TEST(OrchestratorDrain, UncordonRestores) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(1, 0, 0);
  Orchestrator orch(sim, cluster, SchedulingPolicy::spreading(cluster));
  orch.cordon(0);
  PodSpec pod;
  pod.name = "p";
  pod.request = cpu_mem(1000, util::kGiB);
  bool started = false;
  orch.submit(pod, -1, [&](PodId, cluster::NodeId) { started = true; });
  sim.run();
  EXPECT_FALSE(started);
  orch.uncordon(0);
  sim.run();
  EXPECT_TRUE(started);
}

TEST(OrchestratorDrain, DrainEvictsAndDeploymentSelfHeals) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(3, 0, 0);
  Orchestrator orch(sim, cluster, SchedulingPolicy::spreading(cluster));
  PodSpec pod;
  pod.name = "web";
  pod.request = cpu_mem(4000, 8 * util::kGiB);
  DeploymentController deploy(orch, "web", pod, 6);
  sim.run();
  EXPECT_EQ(orch.running_count(), 6);

  // Find a node hosting replicas and drain it.
  cluster::NodeId victim = cluster::kInvalidNode;
  for (cluster::NodeId n = 0; n < cluster.size(); ++n) {
    if (orch.node_status(n).pod_count() > 0) {
      victim = n;
      break;
    }
  }
  ASSERT_NE(victim, cluster::kInvalidNode);
  orch.drain(victim);
  sim.run();
  // All replicas live again, none on the drained node.
  EXPECT_EQ(orch.running_count(), 6);
  EXPECT_EQ(orch.node_status(victim).pod_count(), 0);
  EXPECT_GT(deploy.restarts(), 0);
  EXPECT_GT(orch.metrics().counter("evictions"), 0);
}

TEST(OrchestratorDrain, CordonValidatesNode) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(2, 0, 0);
  OrchestratorConfig config;
  config.nodes = {0};
  Orchestrator orch(sim, cluster, SchedulingPolicy::spreading(cluster),
                    config);
  EXPECT_THROW(orch.cordon(1), std::out_of_range);
}

}  // namespace
}  // namespace evolve::orch
