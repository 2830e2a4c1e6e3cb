// Batch gangs: whole-node HPC jobs with a walltime estimate on the
// orchestrator — EASY backfill, checkpointed restart as a unit, and the
// queue order they share with every other pod.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "orch/fairshare.hpp"
#include "orch/scheduler.hpp"
#include "sim/simulation.hpp"
#include "util/types.hpp"

namespace evolve::orch {
namespace {

using util::seconds;

OrchestratorConfig instant_start(bool preemption = false) {
  OrchestratorConfig config;
  config.scheduling_interval = 0;
  config.bind_latency = 0;
  config.enable_preemption = preemption;
  return config;
}

/// An orchestrator over `nodes` compute nodes that starts pods the moment
/// they are placed, like a batch system. Jobs are gangs of whole-node
/// pods; `starts` and `order` record each job's first start.
struct BatchFixture {
  explicit BatchFixture(int nodes, bool preemption = false)
      : cluster(cluster::make_testbed(nodes, 0, 0)),
        orch(sim, cluster, SchedulingPolicy::spreading(cluster),
             instant_start(preemption)) {}

  PodSpec whole_node(int priority = 0) const {
    const cluster::Resources node = cluster.node(0).allocatable();
    PodSpec pod;
    pod.request = cluster::cpu_mem(node.cpu_millicores, node.memory_bytes);
    pod.priority = priority;
    return pod;
  }

  /// A batch gang; `walltime_s` 0 defaults to the runtime.
  std::vector<PodId> job(const std::string& name, int nodes,
                         double runtime_s, double walltime_s = 0,
                         int priority = 0, std::string tenant = "default") {
    PodSpec pod = whole_node(priority);
    pod.tenant = std::move(tenant);
    BatchSpec batch;
    batch.walltime = seconds(walltime_s > 0 ? walltime_s : runtime_s);
    return orch.submit_gang(
        std::vector<PodSpec>(static_cast<std::size_t>(nodes), pod),
        seconds(runtime_s), track(name), {}, batch);
  }

  Orchestrator::StartFn track(const std::string& name) {
    return [this, name](PodId, cluster::NodeId) {
      if (starts.emplace(name, sim.now()).second) order.push_back(name);
    };
  }

  sim::Simulation sim;
  cluster::Cluster cluster;
  Orchestrator orch;
  std::map<std::string, util::TimeNs> starts;
  std::vector<std::string> order;
};

TEST(BatchGang, RejectsNegativeTimes) {
  BatchFixture f(4);
  const std::vector<PodSpec> gang(1, f.whole_node());
  for (BatchSpec bad : {BatchSpec{-1, 0, 0}, BatchSpec{seconds(1), -1, 0},
                        BatchSpec{seconds(1), 0, -1}}) {
    EXPECT_THROW(f.orch.submit_gang(gang, seconds(1), {}, {}, bad),
                 std::invalid_argument);
  }
  // Restarting needs to know how much work is left.
  EXPECT_THROW(f.orch.submit_gang(gang, -1, {}, {}, BatchSpec{seconds(1)}),
               std::invalid_argument);
  EXPECT_EQ(f.orch.pending_count(), 0);
}

TEST(BatchGang, RunsImmediatelyWhenFree) {
  BatchFixture f(4);
  std::vector<cluster::NodeId> assigned;
  int finished = 0;
  f.orch.submit_gang(
      std::vector<PodSpec>(2, f.whole_node()), seconds(10),
      [&](PodId, cluster::NodeId node) { assigned.push_back(node); },
      [&](PodId, PodPhase) { ++finished; }, BatchSpec{seconds(10)});
  f.sim.run();
  ASSERT_EQ(assigned.size(), 2u);
  EXPECT_NE(assigned[0], assigned[1]);
  EXPECT_EQ(finished, 2);
  EXPECT_EQ(f.sim.now(), seconds(10));
}

TEST(BatchGang, EasyBackfillsShortJob) {
  BatchFixture f(4);
  f.job("running", 3, 100);
  f.job("bighead", 4, 10);
  // Short job fits in the free node and ends before the head's shadow
  // time (t=100) -> backfills immediately.
  f.job("short", 1, 5);
  f.sim.run();
  ASSERT_EQ(f.order.size(), 3u);
  EXPECT_EQ(f.order[1], "short");
  EXPECT_LT(f.starts["short"], seconds(1));
  EXPECT_GT(f.orch.metrics().counter("backfills"), 0);
}

TEST(BatchGang, BackfillNeverDelaysHead) {
  BatchFixture f(4);
  f.job("running", 3, 100);
  f.job("bighead", 4, 10);
  // This job would end after the shadow (t=100) and uses the reserved
  // node -> must NOT backfill.
  f.job("long", 1, 500);
  f.sim.run();
  EXPECT_EQ(f.starts["bighead"], seconds(100));
}

TEST(BatchGang, BackfillAllowedWhenSparingReservation) {
  BatchFixture f(8);
  // 6 nodes busy until t=50; head needs 8; two nodes free now.
  f.job("running", 6, 50);
  f.job("head", 8, 10);
  // Long 2-node job: runs past the shadow (t=50) BUT the shadow frees 6
  // nodes; 2 free - 2 + 6 = 6 < 8 -> would delay head. Must wait.
  f.job("long", 2, 500);
  f.sim.run();
  EXPECT_EQ(f.starts["head"], seconds(50));
  EXPECT_GE(f.starts["long"], f.starts["head"]);
}

TEST(BatchGang, WalltimelessPodCannotTakeReservedCapacity) {
  BatchFixture f(4);
  f.job("running", 3, 100);
  f.job("head", 4, 10);
  // A plain pod has no walltime, so it can only start where the head
  // still fits at its shadow time: 1 free - 1 + 3 < 4 -> it waits.
  util::TimeNs pod_start = -1;
  f.orch.submit(f.whole_node(), seconds(5),
                [&](PodId, cluster::NodeId) { pod_start = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(f.starts["head"], seconds(100));
  EXPECT_GE(pod_start, seconds(110));
  EXPECT_EQ(f.orch.metrics().counter("backfills"), 0);
}

TEST(BatchGang, DrainRestartsGangAsUnit) {
  BatchFixture f(4);
  std::vector<cluster::NodeId> nodes;
  std::map<PodId, int> finishes;
  const auto ids = f.orch.submit_gang(
      std::vector<PodSpec>(2, f.whole_node()), seconds(10),
      [&](PodId, cluster::NodeId node) { nodes.push_back(node); },
      [&](PodId id, PodPhase phase) {
        ++finishes[id];
        EXPECT_EQ(phase, PodPhase::kSucceeded);
        EXPECT_EQ(f.sim.now(), seconds(11));
      },
      BatchSpec{seconds(20), seconds(2), 0});
  f.sim.at(seconds(5), [&] {
    f.orch.drain(nodes.at(0));
    // Both members are back in the queue, neither failed.
    EXPECT_EQ(f.orch.pod(ids[0]).phase, PodPhase::kPending);
    EXPECT_EQ(f.orch.pod(ids[1]).phase, PodPhase::kPending);
    EXPECT_EQ(f.orch.running_count(), 0);
  });
  f.sim.run();
  // 4 s checkpointed: the restart at t=5 runs the last 6 s.
  ASSERT_EQ(nodes.size(), 4u);  // on_start at every start
  EXPECT_NE(nodes[2], nodes[0]);
  EXPECT_NE(nodes[3], nodes[0]);
  EXPECT_EQ(finishes.size(), 2u);
  for (const auto& [id, count] : finishes) EXPECT_EQ(count, 1) << id;
  EXPECT_EQ(f.orch.metrics().counter("gang_restarts"), 1);
  EXPECT_EQ(f.orch.metrics().counter("gang_kills"), 0);
}

TEST(BatchGang, PreemptedGangRestartsAsUnit) {
  BatchFixture f(2, /*preemption=*/true);
  std::map<PodId, int> finishes;
  int starts = 0;
  const auto ids = f.orch.submit_gang(
      std::vector<PodSpec>(2, f.whole_node()), seconds(10),
      [&](PodId, cluster::NodeId) { ++starts; },
      [&](PodId id, PodPhase phase) {
        ++finishes[id];
        EXPECT_EQ(phase, PodPhase::kSucceeded);
      },
      BatchSpec{seconds(20)});
  // A high-priority pod preempts one member at t=5: the gang gives up
  // both nodes, waits for the pod and reruns from scratch.
  f.sim.at(seconds(5), [&] { f.orch.submit(f.whole_node(10), seconds(3)); });
  f.sim.run();
  EXPECT_EQ(f.orch.metrics().counter("preemptions"), 1);
  EXPECT_EQ(f.orch.metrics().counter("gang_restarts"), 1);
  EXPECT_EQ(starts, 4);
  EXPECT_EQ(finishes.size(), 2u);
  for (const auto& [id, count] : finishes) EXPECT_EQ(count, 1) << id;
  EXPECT_EQ(f.orch.pod(ids[0]).finish_time, seconds(18));
  EXPECT_EQ(f.orch.metrics().histogram("work_lost_ms").p50(), 5000);
}

TEST(BatchGang, FailureAtTheEndCompletesTheGang) {
  BatchFixture f(2);
  // The drain fires at t=10 before the members' own finish timers: the
  // run time is up, so the gang completes instead of restarting on a
  // machine that no longer has room for it.
  f.sim.at(seconds(10), [&] { f.orch.drain(0); });
  int succeeded = 0;
  f.orch.submit_gang(std::vector<PodSpec>(2, f.whole_node()), seconds(10),
                     {},
                     [&](PodId, PodPhase phase) {
                       if (phase == PodPhase::kSucceeded) ++succeeded;
                     },
                     BatchSpec{seconds(10)});
  f.sim.run();
  EXPECT_EQ(succeeded, 2);
  EXPECT_EQ(f.orch.metrics().counter("gang_restarts"), 0);
  EXPECT_EQ(f.orch.pending_count(), 0);
}

TEST(BatchGang, WaitTimesRecorded) {
  BatchFixture f(2);
  f.job("a", 2, 10);
  f.job("b", 2, 10);
  f.sim.run();
  const auto& hist = f.orch.metrics().histogram("pod_wait_ms");
  EXPECT_EQ(hist.count(), 4);  // one per pod
  EXPECT_GE(hist.max(), 10000);
}

TEST(BatchGang, UtilizationReflectsLoad) {
  BatchFixture f(4);
  f.job("half", 2, 10);
  f.sim.run();
  EXPECT_NEAR(f.orch.cpu_utilization(), 0.5, 0.01);
}

TEST(BatchGang, NodesFreedAfterCompletion) {
  BatchFixture f(4);
  f.job("a", 4, 1);
  f.sim.run();
  for (cluster::NodeId n = 0; n < f.cluster.size(); ++n) {
    EXPECT_TRUE(f.orch.node_status(n).allocated().is_zero());
  }
  EXPECT_EQ(f.orch.running_count(), 0);
  EXPECT_EQ(f.orch.pending_count(), 0);
}

TEST(BatchGang, PodStatusLifecycle) {
  BatchFixture f(2);
  const PodId id = f.job("a", 1, 3).at(0);
  EXPECT_EQ(f.orch.pod(id).phase, PodPhase::kPending);
  f.sim.run();
  const PodStatus& status = f.orch.pod(id);
  EXPECT_EQ(status.phase, PodPhase::kSucceeded);
  EXPECT_EQ(status.finish_time - status.start_time, seconds(3));
  EXPECT_THROW(f.orch.pod(999), std::out_of_range);
}

TEST(BatchGang, HigherPriorityJumpsQueue) {
  BatchFixture f(2);
  f.job("running", 2, 10);
  f.sim.run_until(seconds(1));  // blocker is on the nodes
  f.job("low", 2, 1, 0, 0);
  f.job("high", 2, 1, 0, 5);
  f.sim.run();
  ASSERT_EQ(f.order.size(), 3u);
  EXPECT_EQ(f.order[0], "running");
  EXPECT_EQ(f.order[1], "high");
  EXPECT_EQ(f.order[2], "low");
}

TEST(BatchGang, EqualPriorityStaysFifo) {
  BatchFixture f(2);
  f.job("running", 2, 10);
  f.job("first", 2, 1);
  f.job("second", 2, 1);
  f.sim.run();
  ASSERT_EQ(f.order.size(), 3u);
  EXPECT_EQ(f.order[1], "first");
  EXPECT_EQ(f.order[2], "second");
}

TEST(BatchGang, FairOrderRunsStarvedTenantFirst) {
  BatchFixture f(4);
  PoolTree tree;
  f.orch.attach_pool_tree(&tree);
  // Tenant a takes the whole machine and queues two more jobs; tenant
  // b's job arrives last but runs first once a node frees up, because
  // a is far over its share and b has none.
  for (int i = 0; i < 4; ++i) {
    f.job("a-run" + std::to_string(i), 1, 2 + i, 0, 0, "a");
  }
  f.sim.run_until(seconds(1));
  f.job("a5", 1, 1, 0, 0, "a");
  f.job("a6", 1, 1, 0, 0, "a");
  f.job("b1", 1, 1, 0, 0, "b");
  f.sim.run();
  ASSERT_EQ(f.order.size(), 7u);
  EXPECT_EQ(f.order[4], "b1");
}

}  // namespace
}  // namespace evolve::orch
