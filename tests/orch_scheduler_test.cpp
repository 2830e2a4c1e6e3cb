#include "orch/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
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

// Gang lifecycles must not move when the orchestrator's gang bookkeeping
// is restructured: a seeded mix of single pods, plain gangs (members of
// mixed priority) and checkpointed batch gangs under node crashes, a
// drain and priority preemption, with gang members among the victims.
// The digest folds every on_start and on_finish call in order, then each
// pod's final status; the pinned value was recorded before gangs got one
// record each. Batch gangs run at one priority here: a batch gang
// preempted in the pass that placed it is the case of
// BatchGang.PreemptedInItsPlacingPassQueuesOnce.
TEST(Orchestrator, GangLifecycleDigestIsPinned) {
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a
  const auto mix = [&digest](std::int64_t value) {
    digest ^= static_cast<std::uint64_t>(value);
    digest *= 1099511628211ull;
  };
  std::int64_t restarts = 0, kills = 0, preemptions = 0, backfills = 0;
  for (int round = 0; round < 8; ++round) {
    util::Rng rng(static_cast<std::uint64_t>(round) + 101);
    sim::Simulation sim;
    const auto cluster = cluster::make_testbed(6, 0, 0);
    OrchestratorConfig config;
    config.enable_preemption = true;
    Orchestrator orch(sim, cluster, SchedulingPolicy::spreading(cluster),
                      config);

    const Orchestrator::StartFn on_start = [&](PodId id, cluster::NodeId n) {
      mix(1);
      mix(id);
      mix(n);
      mix(sim.now());
    };
    const Orchestrator::FinishFn on_finish = [&](PodId id, PodPhase phase) {
      mix(2);
      mix(id);
      mix(static_cast<std::int64_t>(phase));
      mix(sim.now());
    };
    const auto pod = [&rng] {
      PodSpec spec;
      spec.tenant = std::string(1, rng.chance(0.5) ? 'a' : 'b');
      spec.request = cpu_mem(rng.uniform_int(2, 16) * 1000,
                             rng.uniform_int(4, 48) * util::kGiB);
      spec.priority = static_cast<int>(rng.uniform_int(0, 3));
      return spec;
    };
    for (int i = 0; i < 70; ++i) {
      const util::TimeNs at = util::millis(rng.uniform_int(0, 40'000));
      const util::TimeNs duration = util::millis(rng.uniform_int(500, 12'000));
      const int kind = static_cast<int>(rng.uniform_int(0, 9));
      if (kind < 4) {  // single pod, some open-ended and finished later
        PodSpec spec = pod();
        const bool open = rng.chance(0.2);
        const util::TimeNs end = at + duration + util::seconds(1);
        sim.at(at, [&, spec, open, duration, end] {
          const PodId id =
              orch.submit(spec, open ? -1 : duration, on_start, on_finish);
          if (open) sim.at(end, [&orch, id] { orch.finish(id); });
        });
      } else if (kind == 4) {  // a high-priority pod that preempts
        PodSpec spec = pod();
        spec.priority = 8;
        spec.request = cpu_mem(24000, 64 * util::kGiB);
        sim.at(at, [&, spec, duration] {
          orch.submit(spec, duration, on_start, on_finish);
        });
      } else {  // a gang: kinds 5-7 plain, 8-9 batch
        std::vector<PodSpec> members;
        const auto size = rng.uniform_int(2, 4);
        for (int m = 0; m < size; ++m) members.push_back(pod());
        BatchSpec batch;
        if (kind >= 8) {
          // A batch job runs at one priority.
          for (PodSpec& member : members) {
            member.priority = members.front().priority;
          }
          batch.walltime = duration + util::millis(rng.uniform_int(0, 5000));
          batch.checkpoint_interval =
              rng.chance(0.3) ? 0 : util::millis(rng.uniform_int(500, 3000));
          batch.restart_cost = util::millis(rng.uniform_int(0, 1000));
        }
        sim.at(at, [&, members, duration, batch] {
          orch.submit_gang(members, duration, on_start, on_finish, batch);
        });
      }
    }
    const auto node = [&rng, &cluster] {
      return static_cast<cluster::NodeId>(
          rng.uniform_int(0, cluster.size() - 1));
    };
    for (int crash = 0; crash < 2; ++crash) {
      const cluster::NodeId n = node();
      const util::TimeNs at = util::millis(rng.uniform_int(2000, 30'000));
      sim.at(at, [&orch, n] { orch.fail_node(n); });
      sim.at(at + util::seconds(5), [&orch, n] { orch.recover_node(n); });
    }
    const cluster::NodeId drained = node();
    const util::TimeNs drain_at = util::millis(rng.uniform_int(5000, 25'000));
    sim.at(drain_at, [&orch, drained] { orch.drain(drained); });
    sim.at(drain_at + util::seconds(10),
           [&orch, drained] { orch.uncordon(drained); });

    sim.run_until(util::seconds(300));
    orch.shutdown();
    sim.run();
    const auto& m = orch.metrics();
    for (PodId id = 1; id <= m.counter("pods_submitted"); ++id) {
      const PodStatus& status = orch.pod(id);
      mix(id);
      mix(status.node);
      mix(status.start_time);
      mix(status.finish_time);
      mix(static_cast<std::int64_t>(status.phase));
    }
    restarts += m.counter("gang_restarts");
    kills += m.counter("gang_kills");
    preemptions += m.counter("preemptions");
    backfills += m.counter("backfills");
  }
  // The scenario exercises every gang path it claims to.
  EXPECT_GT(restarts, 0);
  EXPECT_GT(kills, 0);
  EXPECT_GT(preemptions, 0);
  EXPECT_GT(backfills, 0);
  EXPECT_EQ(digest, 60618432789210989ull);
}

// Callbacks hold what they capture only while the pod or gang can still
// call them: once the last on_finish returns, the orchestrator drops its
// copies, so a captured shared_ptr is back to its one owner.
TEST(Orchestrator, FinishedCallbacksAreReleased) {
  OrchFixture f;
  const auto token = std::make_shared<int>(0);
  f.orch.submit(small_pod("p"), util::seconds(1),
                [token](PodId, cluster::NodeId) { ++*token; },
                [token](PodId, PodPhase) { ++*token; });
  f.orch.submit_gang(std::vector<PodSpec>(3, small_pod("g")),
                     util::seconds(1),
                     [token](PodId, cluster::NodeId) { ++*token; },
                     [token](PodId, PodPhase) { ++*token; });
  EXPECT_GT(token.use_count(), 1);
  f.sim.run();
  EXPECT_EQ(*token, 8);  // 4 starts, 4 finishes
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace evolve::orch
