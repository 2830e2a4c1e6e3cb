#include "orch/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

namespace evolve::orch {
namespace {

using cluster::cpu_mem;

struct OrchFixture {
  explicit OrchFixture(int compute = 2, OrchestratorConfig config = {})
      : cluster(cluster::make_testbed(compute, 0, 0)),
        orch(sim, cluster, SchedulingPolicy::spreading(cluster), config) {}

  sim::Simulation sim;
  cluster::Cluster cluster;
  Orchestrator orch;
};

PodSpec small_pod(const std::string& name) {
  PodSpec spec;
  spec.name = name;
  spec.request = cpu_mem(1000, util::kGiB);
  return spec;
}

TEST(SelectNode, PicksFeasibleBestScore) {
  OrchFixture f;
  std::vector<NodeStatus> nodes;
  for (cluster::NodeId n = 0; n < f.cluster.size(); ++n) {
    nodes.emplace_back(n, f.cluster.node(n).allocatable());
  }
  const auto policy = SchedulingPolicy::spreading(f.cluster);
  // Load node 0 heavily -> spreading should pick node 1.
  nodes[0].bind(99, cpu_mem(30000, 100 * util::kGiB));
  EXPECT_EQ(select_node(small_pod("p"), f.cluster, nodes, policy), 1);
}

TEST(SelectNode, ReturnsInvalidWhenNothingFits) {
  OrchFixture f;
  std::vector<NodeStatus> nodes;
  for (cluster::NodeId n = 0; n < f.cluster.size(); ++n) {
    nodes.emplace_back(n, f.cluster.node(n).allocatable());
  }
  PodSpec huge = small_pod("huge");
  huge.request = cpu_mem(1'000'000, util::kGiB);
  EXPECT_EQ(select_node(huge, f.cluster, nodes,
                        SchedulingPolicy::spreading(f.cluster)),
            cluster::kInvalidNode);
}

PodSpec random_pod(util::Rng& rng, const cluster::Cluster& cluster) {
  static const char* kSelectors[] = {"role=compute", "role=storage",
                                     "role=accel"};
  PodSpec spec;
  spec.request = cpu_mem(rng.uniform_int(1, 32) * 500,
                         rng.uniform_int(1, 64) * util::kGiB);
  if (rng.chance(0.2)) {
    spec.node_selector = {kSelectors[rng.uniform_int(0, 2)]};
  }
  if (rng.chance(0.3)) {
    spec.preferred_nodes = {
        static_cast<cluster::NodeId>(rng.uniform_int(0, cluster.size() - 1))};
  }
  if (rng.chance(0.3)) {
    spec.anti_affinity_group = util::numbered("g", rng.uniform_int(0, 2));
  }
  return spec;
}

// Placement must not move when the scheduler is restructured: this
// hashes select_node choices for both policies over randomized loads,
// preferred nodes, selectors, anti-affinity groups and node conditions.
// The pinned value was recorded before the filter/score plugins were
// folded into one eligibility rule and one scoring function.
TEST(SelectNode, PlacementDigestIsPinned) {
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a
  const auto mix = [&digest](std::int64_t value) {
    digest ^= static_cast<std::uint64_t>(value);
    digest *= 1099511628211ull;
  };
  const auto cluster = cluster::make_testbed(5, 2, 2, 3);
  for (int round = 0; round < 40; ++round) {
    util::Rng rng(static_cast<std::uint64_t>(round) + 1);
    const SchedulingPolicy policy = round % 2 == 0
                                        ? SchedulingPolicy::spreading(cluster)
                                        : SchedulingPolicy::binpacking(cluster);
    // Bare node states: random loads only.
    std::vector<NodeStatus> nodes;
    for (cluster::NodeId n = 0; n < cluster.size(); ++n) {
      nodes.emplace_back(n, cluster.node(n).allocatable());
      const auto pods = rng.uniform_int(0, 3);
      for (PodId pod = 1; pod <= pods; ++pod) {
        const auto load = cpu_mem(rng.uniform_int(1, 16) * 1000,
                                  rng.uniform_int(1, 32) * util::kGiB);
        if (nodes.back().fits(load)) nodes.back().bind(pod, load);
      }
    }
    for (int probe = 0; probe < 20; ++probe) {
      mix(select_node(random_pod(rng, cluster), cluster, nodes, policy));
    }

    // An orchestrator's nodes: running pods (anti-affinity groups
    // included) and every node condition.
    sim::Simulation sim;
    Orchestrator orch(sim, cluster, policy);
    for (int i = 0; i < 14; ++i) orch.submit(random_pod(rng, cluster), -1);
    sim.run();
    for (cluster::NodeId n = 0; n < cluster.size(); ++n) {
      switch (rng.uniform_int(0, 7)) {
        case 0: orch.cordon(n); break;
        case 1: orch.fail_node(n); break;
        case 2: orch.quarantine(n); break;
        case 3: orch.mark_unreachable(n); break;
        default: break;
      }
    }
    sim.run();
    for (int probe = 0; probe < 30; ++probe) {
      const PodSpec spec = random_pod(rng, cluster);
      const auto exclude =
          rng.chance(0.5) ? cluster::kInvalidNode
                          : static_cast<cluster::NodeId>(
                                rng.uniform_int(0, cluster.size() - 1));
      mix(orch.feasible_node_for(spec, exclude));
    }
    mix(orch.running_count());
  }
  EXPECT_EQ(digest, 5434823029558592523ull);
}

TEST(Orchestrator, PodRunsAndFinishes) {
  OrchFixture f;
  std::vector<std::string> events;
  const PodId id = f.orch.submit(
      small_pod("p"), util::seconds(1),
      [&](PodId, cluster::NodeId) { events.push_back("start"); },
      [&](PodId, PodPhase phase) {
        events.push_back(std::string("finish:") + to_string(phase));
      });
  ASSERT_NE(id, kInvalidPod);
  EXPECT_EQ(f.orch.pod(id).phase, PodPhase::kPending);
  f.sim.run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], "start");
  EXPECT_EQ(events[1], "finish:Succeeded");
  EXPECT_EQ(f.orch.pod(id).phase, PodPhase::kSucceeded);
  EXPECT_GE(f.orch.pod(id).finish_time,
            f.orch.pod(id).start_time + util::seconds(1));
}

TEST(Orchestrator, ManualFinishForOpenEndedPod) {
  OrchFixture f;
  bool started = false;
  const PodId id = f.orch.submit(
      small_pod("svc"), /*duration=*/-1,
      [&](PodId, cluster::NodeId) { started = true; });
  f.sim.run();
  EXPECT_TRUE(started);
  EXPECT_EQ(f.orch.pod(id).phase, PodPhase::kRunning);
  EXPECT_EQ(f.orch.running_count(), 1);
  f.orch.finish(id);
  EXPECT_EQ(f.orch.pod(id).phase, PodPhase::kSucceeded);
  EXPECT_EQ(f.orch.running_count(), 0);
}

TEST(Orchestrator, ResourcesReleasedAfterFinish) {
  OrchFixture f(1);
  const auto capacity = f.cluster.node(0).allocatable();
  const PodId id = f.orch.submit(small_pod("p"), util::seconds(1));
  f.sim.run();
  EXPECT_EQ(f.orch.pod(id).phase, PodPhase::kSucceeded);
  EXPECT_TRUE(f.orch.node_status(0).allocated().is_zero());
  EXPECT_EQ(f.orch.node_status(0).free(), capacity);
}

TEST(Orchestrator, QueuesWhenFullThenRunsLater) {
  OrchFixture f(1);
  // Node has 32 cores; each pod takes 20 -> only one fits at a time.
  PodSpec big = small_pod("big");
  big.request = cpu_mem(20000, util::kGiB);
  std::vector<util::TimeNs> finish_times;
  for (int i = 0; i < 2; ++i) {
    f.orch.submit(big, util::seconds(1), {},
                  [&](PodId, PodPhase) { finish_times.push_back(f.sim.now()); });
  }
  f.sim.run();
  ASSERT_EQ(finish_times.size(), 2u);
  // Second pod had to wait for the first to finish.
  EXPECT_GE(finish_times[1] - finish_times[0], util::seconds(1));
  EXPECT_GT(f.orch.metrics().histogram("pod_wait_ms").max(), 900);
}

TEST(Orchestrator, NodeSelectorRestrictsPlacement) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(2, 1, 0);
  Orchestrator orch(sim, cluster, SchedulingPolicy::spreading(cluster));
  PodSpec spec = small_pod("storage-only");
  spec.node_selector = {"role=storage"};
  cluster::NodeId placed = cluster::kInvalidNode;
  orch.submit(spec, util::seconds(1),
              [&](PodId, cluster::NodeId n) { placed = n; });
  sim.run();
  ASSERT_NE(placed, cluster::kInvalidNode);
  EXPECT_TRUE(cluster.node(placed).has_label("role=storage"));
}

TEST(Orchestrator, GangSchedulesAllOrNothing) {
  OrchFixture f(2);  // 2 nodes x 32 cores
  // Gang of 4 pods x 20 cores cannot fit (needs 80 of 64 cores).
  std::vector<PodSpec> gang;
  for (int i = 0; i < 4; ++i) {
    PodSpec spec = small_pod("gang-" + std::to_string(i));
    spec.request = cpu_mem(20000, util::kGiB);
    gang.push_back(spec);
  }
  int started = 0;
  const auto ids = f.orch.submit_gang(gang, util::seconds(1),
                                      [&](PodId, cluster::NodeId) { ++started; });
  ASSERT_EQ(ids.size(), 4u);
  f.sim.run();
  EXPECT_EQ(started, 0);  // none started: all-or-nothing held
  EXPECT_EQ(f.orch.pending_count(), 4);
  EXPECT_GT(f.orch.metrics().counter("gang_placement_failures"), 0);
}

TEST(Orchestrator, GangRunsWhenItFits) {
  OrchFixture f(2);
  std::vector<PodSpec> gang;
  for (int i = 0; i < 4; ++i) {
    PodSpec spec = small_pod("gang-" + std::to_string(i));
    spec.request = cpu_mem(10000, util::kGiB);
    gang.push_back(spec);
  }
  int started = 0, finished = 0;
  f.orch.submit_gang(gang, util::seconds(1),
                     [&](PodId, cluster::NodeId) { ++started; },
                     [&](PodId, PodPhase) { ++finished; });
  f.sim.run();
  EXPECT_EQ(started, 4);
  EXPECT_EQ(finished, 4);
}

TEST(Orchestrator, GangWaitsForResourcesThenRuns) {
  OrchFixture f(1);
  // Fill the node with a 1-second blocker, then submit a gang that only
  // fits once the blocker finishes.
  PodSpec blocker = small_pod("blocker");
  blocker.request = cpu_mem(30000, util::kGiB);
  f.orch.submit(blocker, util::seconds(1));
  std::vector<PodSpec> gang(2, small_pod("g"));
  for (auto& spec : gang) spec.request = cpu_mem(15000, util::kGiB);
  int started = 0;
  f.orch.submit_gang(gang, util::seconds(1),
                     [&](PodId, cluster::NodeId) { ++started; });
  f.sim.run();
  EXPECT_EQ(started, 2);
}

TEST(Orchestrator, PreemptionEvictsLowerPriority) {
  OrchestratorConfig config;
  config.enable_preemption = true;
  OrchFixture f(1, config);
  // Fill the node with low-priority pods.
  PodSpec low = small_pod("low");
  low.request = cpu_mem(16000, 32 * util::kGiB);
  low.priority = 0;
  std::vector<PodPhase> low_phases(2, PodPhase::kPending);
  for (int i = 0; i < 2; ++i) {
    f.orch.submit(low, /*duration=*/-1, {},
                  [&low_phases, i](PodId, PodPhase p) { low_phases[static_cast<std::size_t>(i)] = p; });
  }
  f.sim.run();
  // High-priority pod needs half the node.
  PodSpec high = small_pod("high");
  high.request = cpu_mem(16000, 32 * util::kGiB);
  high.priority = 10;
  bool high_started = false;
  f.orch.submit(high, util::seconds(1),
                [&](PodId, cluster::NodeId) { high_started = true; });
  f.sim.run();
  EXPECT_TRUE(high_started);
  EXPECT_GT(f.orch.metrics().counter("preemptions"), 0);
  const int failed = static_cast<int>(std::count(low_phases.begin(),
                                                 low_phases.end(),
                                                 PodPhase::kFailed));
  EXPECT_EQ(failed, 1);  // minimal victim set
}

TEST(Orchestrator, NoPreemptionWhenDisabled) {
  OrchFixture f(1);  // default config: preemption off
  PodSpec low = small_pod("low");
  low.request = cpu_mem(32000, 64 * util::kGiB);
  f.orch.submit(low, /*duration=*/-1);
  f.sim.run();
  PodSpec high = small_pod("high");
  high.request = cpu_mem(16000, 16 * util::kGiB);
  high.priority = 10;
  bool high_started = false;
  f.orch.submit(high, util::seconds(1),
                [&](PodId, cluster::NodeId) { high_started = true; });
  f.sim.run();
  EXPECT_FALSE(high_started);
  EXPECT_EQ(f.orch.metrics().counter("preemptions"), 0);
}

TEST(Orchestrator, HigherPriorityScheduledFirst) {
  OrchFixture f(1);
  PodSpec filler = small_pod("filler");
  filler.request = cpu_mem(30000, util::kGiB);
  std::vector<std::string> start_order;
  // Both pending behind the filler; high priority should start first.
  f.orch.submit(filler, util::seconds(1));
  PodSpec lo = small_pod("lo");
  lo.request = cpu_mem(25000, util::kGiB);
  PodSpec hi = small_pod("hi");
  hi.request = cpu_mem(25000, util::kGiB);
  hi.priority = 5;
  f.orch.submit(lo, util::seconds(1),
                [&](PodId, cluster::NodeId) { start_order.push_back("lo"); });
  f.orch.submit(hi, util::seconds(1),
                [&](PodId, cluster::NodeId) { start_order.push_back("hi"); });
  f.sim.run();
  ASSERT_EQ(start_order.size(), 2u);
  EXPECT_EQ(start_order[0], "hi");
}

TEST(Orchestrator, UtilizationTracked) {
  OrchFixture f(1);
  PodSpec spec = small_pod("u");
  spec.request = cpu_mem(16000, 64 * util::kGiB);  // half of everything
  f.orch.submit(spec, util::seconds(10));
  f.sim.run();
  // Utilization should be near 0.5 over the pod's lifetime.
  EXPECT_NEAR(f.orch.cpu_utilization(), 0.5, 0.05);
  EXPECT_NEAR(f.orch.memory_utilization(), 0.5, 0.05);
}

TEST(Orchestrator, WaitTimeIncludesSchedulingDelay) {
  OrchFixture f;
  const PodId id = f.orch.submit(small_pod("p"), util::seconds(1));
  f.sim.run();
  const auto& status = f.orch.pod(id);
  EXPECT_GE(status.start_time - status.submit_time,
            OrchestratorConfig{}.scheduling_interval);
}

TEST(Orchestrator, MetricsCountLifecycle) {
  OrchFixture f;
  f.orch.submit(small_pod("a"), util::seconds(1));
  f.orch.submit(small_pod("b"), util::seconds(1));
  f.sim.run();
  EXPECT_EQ(f.orch.metrics().counter("pods_submitted"), 2);
  EXPECT_EQ(f.orch.metrics().counter("pods_started"), 2);
  EXPECT_EQ(f.orch.metrics().counter("pods_succeeded"), 2);
}

}  // namespace
}  // namespace evolve::orch
