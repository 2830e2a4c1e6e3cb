// Hierarchical fair share: pool-tree math, fair queue ordering, minimal
// preemption victim sets, disruption budgets, and the background
// rebalancer.
#include "orch/fairshare.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "orch/controllers.hpp"
#include "orch/rebalancer.hpp"
#include "orch/scheduler.hpp"
#include "sim/simulation.hpp"
#include "util/types.hpp"

namespace evolve::orch {
namespace {

using cluster::cpu_mem;

cluster::Resources cores(std::int64_t n) { return cpu_mem(n * 1000, 0); }

PoolTree make_tree(std::int64_t capacity_cores) {
  PoolTree tree;
  tree.set_capacity(cpu_mem(capacity_cores * 1000, 1024 * util::kGiB));
  return tree;
}

TEST(PoolTree, EqualWeightsSplitEvenly) {
  PoolTree tree = make_tree(100);
  tree.add_pool({.name = "a"});
  tree.add_pool({.name = "b"});
  tree.assign_tenant("a", "a");
  tree.assign_tenant("b", "b");
  tree.add_demand("a", cores(100));
  tree.add_demand("b", cores(100));
  tree.recompute();
  EXPECT_NEAR(tree.fair_fraction("a"), 0.5, 1e-9);
  EXPECT_NEAR(tree.fair_fraction("b"), 0.5, 1e-9);
}

TEST(PoolTree, WeightsSkewTheSplit) {
  PoolTree tree = make_tree(100);
  tree.add_pool({.name = "a", .weight = 3.0});
  tree.add_pool({.name = "b", .weight = 1.0});
  tree.add_demand("a", cores(100));
  tree.add_demand("b", cores(100));
  tree.recompute();
  EXPECT_NEAR(tree.fair_fraction("a"), 0.75, 1e-9);
  EXPECT_NEAR(tree.fair_fraction("b"), 0.25, 1e-9);
}

TEST(PoolTree, IdlePoolDonatesToBusyOne) {
  PoolTree tree = make_tree(100);
  tree.add_pool({.name = "a"});
  tree.add_pool({.name = "b"});
  tree.add_demand("a", cores(10));  // wants far less than its half
  tree.add_demand("b", cores(200));
  tree.recompute();
  EXPECT_NEAR(tree.fair_fraction("a"), 0.1, 1e-9);
  EXPECT_NEAR(tree.fair_fraction("b"), 0.9, 1e-9);
}

TEST(PoolTree, GuaranteeFloorsTheShare) {
  PoolTree tree = make_tree(100);
  tree.add_pool({.name = "a", .weight = 1.0, .guarantee = cores(60)});
  tree.add_pool({.name = "b", .weight = 9.0});
  tree.add_demand("a", cores(100));
  tree.add_demand("b", cores(100));
  tree.recompute();
  // Weight alone would give "a" 10%; the guarantee floors it at 60%.
  EXPECT_GE(tree.fair_fraction("a"), 0.6 - 1e-9);
  EXPECT_NEAR(tree.fair_fraction("b"), 1.0 - tree.fair_fraction("a"), 1e-9);
}

TEST(PoolTree, LimitCapsTheShare) {
  PoolTree tree = make_tree(100);
  tree.add_pool({.name = "a", .limit = cores(20)});
  tree.add_pool({.name = "b"});
  tree.add_demand("a", cores(100));
  tree.add_demand("b", cores(100));
  tree.recompute();
  EXPECT_NEAR(tree.fair_fraction("a"), 0.2, 1e-9);
  EXPECT_NEAR(tree.fair_fraction("b"), 0.8, 1e-9);
}

TEST(PoolTree, HierarchySplitsWithinParent) {
  PoolTree tree = make_tree(100);
  tree.add_pool({.name = "prod", .weight = 3.0});
  tree.add_pool({.name = "research", .weight = 1.0});
  tree.add_pool({.name = "web", .parent = "prod", .weight = 1.0});
  tree.add_pool({.name = "api", .parent = "prod", .weight = 2.0});
  tree.assign_tenant("web", "web");
  tree.assign_tenant("api", "api");
  tree.assign_tenant("phd", "research");
  tree.add_demand("web", cores(100));
  tree.add_demand("api", cores(100));
  tree.add_demand("phd", cores(100));
  tree.recompute();
  // prod gets 75%, split 1:2 between web and api.
  EXPECT_NEAR(tree.fair_fraction("web"), 0.25, 1e-9);
  EXPECT_NEAR(tree.fair_fraction("api"), 0.5, 1e-9);
  EXPECT_NEAR(tree.fair_fraction("phd"), 0.25, 1e-9);
}

TEST(PoolTree, WithinLimitWalksAncestors) {
  PoolTree tree = make_tree(100);
  tree.add_pool({.name = "org", .limit = cores(30)});
  tree.add_pool({.name = "team", .parent = "org"});
  tree.assign_tenant("t", "team");
  EXPECT_TRUE(tree.within_limit("t", cores(30)));
  tree.charge("t", cores(25));
  EXPECT_TRUE(tree.within_limit("t", cores(5)));
  EXPECT_FALSE(tree.within_limit("t", cores(6)));  // org's 30-core cap
}

TEST(PoolTree, ScheduleKeyOrdersStarvedPoolsFirst) {
  PoolTree tree = make_tree(100);
  tree.add_pool({.name = "a"});
  tree.add_pool({.name = "b"});
  tree.add_demand("a", cores(50));
  tree.add_demand("b", cores(50));
  tree.charge("a", cores(80));
  tree.charge("b", cores(10));
  tree.recompute();
  EXPECT_LT(tree.schedule_key("b"), tree.schedule_key("a"));
  EXPECT_TRUE(tree.over_fair_share("a"));
  EXPECT_FALSE(tree.over_fair_share("b"));
  // Headroom for usage about to be released flips the verdict.
  EXPECT_FALSE(tree.over_fair_share("a", cores(40)));
}

TEST(PoolTree, UnknownTenantAutoCreatesPool) {
  PoolTree tree = make_tree(100);
  tree.add_pool({.name = "a"});
  tree.charge("walk-in", cores(10));
  EXPECT_TRUE(tree.has_pool("walk-in"));
  EXPECT_EQ(tree.pool_of("walk-in"), "walk-in");
  EXPECT_NEAR(tree.usage_fraction("walk-in"), 0.1, 1e-9);
}

// ---------------------------------------------------------------------
// Orchestrator integration.

struct FairFixture {
  explicit FairFixture(int compute = 1, OrchestratorConfig config = {})
      : cluster(cluster::make_testbed(compute, 0, 0)),
        orch(sim, cluster, SchedulingPolicy::spreading(cluster), config) {}

  sim::Simulation sim;
  cluster::Cluster cluster;
  Orchestrator orch;
};

PodSpec tenant_pod(const std::string& name, const std::string& tenant,
                   std::int64_t millicores) {
  PodSpec spec;
  spec.name = name;
  spec.tenant = tenant;
  spec.request = cpu_mem(millicores, util::kGiB);
  return spec;
}

TEST(FairScheduling, StarvedTenantJumpsTheQueue) {
  FairFixture f(1);
  PoolTree tree;
  f.orch.attach_pool_tree(&tree);
  // Tenant A holds 20 of 32 cores; only one of the two queued 10-core
  // pods fits now. A's pod was submitted first, but A is already well
  // over its fair share, so fair ordering runs B's pod first.
  f.orch.submit(tenant_pod("a-big", "a", 20000), /*duration=*/-1);
  f.sim.run();
  std::vector<std::string> order;
  auto record = [&order](const char* who) {
    return [&order, who](PodId, cluster::NodeId) { order.push_back(who); };
  };
  f.orch.submit(tenant_pod("a-next", "a", 10000), util::seconds(1),
                record("a"));
  f.orch.submit(tenant_pod("b-first", "b", 10000), util::seconds(1),
                record("b"));
  f.sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "b");
  EXPECT_EQ(order[1], "a");
}

TEST(Preemption, EvictsMinimalVictimSet) {
  OrchestratorConfig config;
  config.enable_preemption = true;
  FairFixture f(1, config);
  // Node: 32 cores. Victims: 4 + 4 + 24 cores of priority 0. A 20-core
  // high-priority pod must evict exactly the 24-core pod, not the small
  // ones the old largest-request-last ordering would have taken first.
  std::vector<PodPhase> phases(3, PodPhase::kPending);
  const std::int64_t sizes[] = {4000, 4000, 24000};
  for (int i = 0; i < 3; ++i) {
    f.orch.submit(tenant_pod("low-" + std::to_string(i), "low", sizes[i]),
                  /*duration=*/-1, {},
                  [&phases, i](PodId, PodPhase p) {
                    phases[static_cast<std::size_t>(i)] = p;
                  });
  }
  f.sim.run();
  PodSpec high = tenant_pod("high", "hi", 20000);
  high.priority = 5;
  bool high_started = false;
  f.orch.submit(high, util::seconds(1),
                [&](PodId, cluster::NodeId) { high_started = true; });
  f.sim.run();
  EXPECT_TRUE(high_started);
  EXPECT_EQ(f.orch.metrics().counter("preemptions"), 1);
  EXPECT_EQ(phases[0], PodPhase::kPending);  // still running (no finish)
  EXPECT_EQ(phases[1], PodPhase::kPending);
  EXPECT_EQ(phases[2], PodPhase::kFailed);   // only the 24-core victim
}

TEST(Preemption, NewestVictimEvictedOnTies) {
  OrchestratorConfig config;
  config.enable_preemption = true;
  FairFixture f(1, config);
  std::vector<PodPhase> phases(2, PodPhase::kPending);
  for (int i = 0; i < 2; ++i) {
    f.orch.submit(tenant_pod("twin-" + std::to_string(i), "low", 16000),
                  /*duration=*/-1, {},
                  [&phases, i](PodId, PodPhase p) {
                    phases[static_cast<std::size_t>(i)] = p;
                  });
  }
  f.sim.run();
  PodSpec high = tenant_pod("high", "hi", 16000);
  high.priority = 5;
  f.orch.submit(high, util::seconds(1));
  f.sim.run();
  EXPECT_EQ(phases[0], PodPhase::kPending);  // older twin survives
  EXPECT_EQ(phases[1], PodPhase::kFailed);   // newest goes first
}

// Preemption asks the same eligibility rule as placement: a node the
// pod can never use (quarantined, or missing a selector label) is not
// worth a victim.
TEST(Preemption, SkipsNodesThePodCannotUse) {
  OrchestratorConfig config;
  config.enable_preemption = true;
  {
    FairFixture f(2, config);
    const cluster::Resources full = f.cluster.node(0).allocatable();
    PodSpec low = tenant_pod("low", "low", 0);
    low.request = full;
    const PodId on_0 = f.orch.submit(low, /*duration=*/-1);
    const PodId on_1 = f.orch.submit(low, /*duration=*/-1);
    f.sim.run();
    ASSERT_EQ(f.orch.pod(on_0).node, 0);
    ASSERT_EQ(f.orch.pod(on_1).node, 1);
    f.orch.conditions().set_quarantined(0, true);
    PodSpec high = tenant_pod("high", "hi", 0);
    high.request = full;
    high.priority = 10;
    const PodId winner = f.orch.submit(high, /*duration=*/-1);
    f.sim.run();
    EXPECT_EQ(f.orch.metrics().counter("preemptions"), 1);
    EXPECT_EQ(f.orch.pod(on_0).phase, PodPhase::kRunning);
    EXPECT_EQ(f.orch.pod(on_1).phase, PodPhase::kFailed);
    EXPECT_EQ(f.orch.pod(winner).node, 1);
  }
  {
    // Node 0 is a compute node, node 1 a storage node.
    sim::Simulation sim;
    const auto cluster = cluster::make_testbed(1, 1, 0);
    Orchestrator orch(sim, cluster, SchedulingPolicy::spreading(cluster),
                      config);
    std::vector<PodId> low;
    for (cluster::NodeId n = 0; n < 2; ++n) {
      PodSpec spec = tenant_pod("low", "low", 0);
      spec.request = cluster.node(n).allocatable();
      spec.node_selector = {n == 0 ? "role=compute" : "role=storage"};
      low.push_back(orch.submit(spec, /*duration=*/-1));
    }
    sim.run();
    PodSpec high = tenant_pod("high", "hi", 4000);
    high.priority = 10;
    high.node_selector = {"role=storage"};
    const PodId winner = orch.submit(high, /*duration=*/-1);
    sim.run();
    EXPECT_EQ(orch.metrics().counter("preemptions"), 1);
    EXPECT_EQ(orch.pod(low[0]).phase, PodPhase::kRunning);
    EXPECT_EQ(orch.pod(low[1]).phase, PodPhase::kFailed);
    EXPECT_EQ(orch.pod(winner).node, 1);
  }
}

TEST(Preemption, FairShareEvictsOverShareTenant) {
  OrchestratorConfig config;
  config.enable_preemption = true;
  config.enable_fair_preemption = true;
  FairFixture f(1, config);
  PoolTree tree;
  f.orch.attach_pool_tree(&tree);
  // Tenant A fills the node with equal-priority pods; tenant B arrives
  // with nothing. Priority preemption alone would never fire (equal
  // priorities); fair-share preemption reclaims B's half.
  std::vector<PodPhase> phases(2, PodPhase::kPending);
  for (int i = 0; i < 2; ++i) {
    f.orch.submit(tenant_pod("a-" + std::to_string(i), "a", 16000),
                  /*duration=*/-1, {},
                  [&phases, i](PodId, PodPhase p) {
                    phases[static_cast<std::size_t>(i)] = p;
                  });
  }
  f.sim.run();
  bool b_started = false;
  f.orch.submit(tenant_pod("b-0", "b", 16000), /*duration=*/-1,
                [&](PodId, cluster::NodeId) { b_started = true; });
  f.sim.run();
  EXPECT_TRUE(b_started);
  const int evicted =
      static_cast<int>(std::count(phases.begin(), phases.end(),
                                  PodPhase::kFailed));
  EXPECT_EQ(evicted, 1);  // minimal: half the node suffices
}

TEST(DisruptionBudget, MinAvailableHoldsTheFloor) {
  FairFixture f(1);
  std::vector<PodId> pods;
  for (int i = 0; i < 3; ++i) {
    PodSpec spec = tenant_pod("r-" + std::to_string(i), "t", 1000);
    spec.budget_group = "web";
    pods.push_back(f.orch.submit(spec, /*duration=*/-1));
  }
  f.sim.run();
  DisruptionBudget budget;
  budget.max_evictions_per_window = 10;
  budget.min_available = 2;
  f.orch.set_disruption_budget("web", budget);
  EXPECT_TRUE(f.orch.evict_for_rebalance(pods[0]));
  // Two replicas left: the floor refuses further voluntary evictions.
  EXPECT_FALSE(f.orch.evict_for_rebalance(pods[1]));
  EXPECT_EQ(f.orch.pod(pods[1]).phase, PodPhase::kRunning);
}

TEST(DisruptionBudget, WindowCapRefillsOverTime) {
  FairFixture f(1);
  std::vector<PodId> pods;
  for (int i = 0; i < 3; ++i) {
    PodSpec spec = tenant_pod("r-" + std::to_string(i), "t", 1000);
    spec.budget_group = "web";
    pods.push_back(f.orch.submit(spec, /*duration=*/-1));
  }
  f.sim.run();
  DisruptionBudget budget;
  budget.max_evictions_per_window = 1;
  budget.window = util::seconds(1);
  f.orch.set_disruption_budget("web", budget);
  EXPECT_TRUE(f.orch.evict_for_rebalance(pods[0]));
  EXPECT_FALSE(f.orch.evict_for_rebalance(pods[1]));  // window cap hit
  f.sim.after(util::seconds(2), [] {});
  f.sim.run();
  EXPECT_TRUE(f.orch.evict_for_rebalance(pods[1]));  // window rolled off
}

TEST(Preemption, GangKillReleasesQuotaExactlyOnce) {
  OrchestratorConfig config;
  config.enable_preemption = true;
  FairFixture f(2, config);
  // Gang of two 16-core members, one per node (spreading).
  std::vector<PodSpec> gang(2);
  for (int i = 0; i < 2; ++i) {
    gang[i] = tenant_pod("g-" + std::to_string(i), "mpi", 16000);
  }
  int finished = 0;
  const auto ids = f.orch.submit_gang(gang, /*duration=*/-1, {},
                                      [&](PodId, PodPhase) { ++finished; });
  ASSERT_EQ(ids.size(), 2u);
  f.sim.run();
  // A full-node high-priority pod preempts one member; the all-or-
  // nothing cascade kills the other. Each member's node allocation is
  // released exactly once: a double release throws, and a missed one
  // would either block the full-node pod or strand the other node's.
  PodSpec high = tenant_pod("high", "hi", 32000);
  high.priority = 10;
  bool high_started = false;
  f.orch.submit(high, util::seconds(1),
                [&](PodId, cluster::NodeId) { high_started = true; });
  f.sim.run();
  EXPECT_TRUE(high_started);
  EXPECT_EQ(finished, 2);
  for (PodId id : ids) EXPECT_EQ(f.orch.pod(id).phase, PodPhase::kFailed);
  for (cluster::NodeId node : f.orch.managed_nodes()) {
    EXPECT_TRUE(f.orch.node_status(node).allocated().is_zero()) << node;
  }
  EXPECT_EQ(f.orch.running_count(), 0);
  // The tenant can immediately resubmit the same gang.
  EXPECT_EQ(f.orch.submit_gang(gang, util::seconds(1)).size(), 2u);
}

TEST(Rebalancer, SwapUnblocksStarvedPod) {
  FairFixture f(2);
  // web's 8-core replica lands on node 0; a pinned (budget-less)
  // 16-core pod takes node 1. A 28-core pod then fits nowhere, but
  // moving the web replica to node 1 frees node 0 for it.
  DeploymentController web(f.orch, "web",
                           tenant_pod("web", "web", 8000), 1);
  f.sim.run();
  f.orch.submit(tenant_pod("pinned", "ops", 16000), /*duration=*/-1);
  f.sim.run();
  bool big_started = false;
  cluster::NodeId big_node = cluster::kInvalidNode;
  f.orch.submit(tenant_pod("big", "ml", 28000), /*duration=*/-1,
                [&](PodId, cluster::NodeId n) {
                  big_started = true;
                  big_node = n;
                });
  f.sim.run();
  ASSERT_FALSE(big_started);  // fragmented: 24 + 16 free, needs 28

  RebalancerConfig config;
  config.starvation_threshold = 0;
  Rebalancer rebalancer(f.sim, f.orch, config);
  EXPECT_EQ(rebalancer.round_now(), 1);
  f.sim.run();
  EXPECT_TRUE(big_started);
  EXPECT_EQ(big_node, 0);
  EXPECT_EQ(web.running(), 1);  // replica recreated on the other node
  EXPECT_EQ(f.orch.metrics().counter("rebalance_evictions"), 1);
}

// SwapUnblocksStarvedPod with the swap's target node quarantined: the
// starved pod could not use the freed node, so nothing is evicted.
TEST(Rebalancer, SkipsNodesTheStarvedPodCannotUse) {
  FairFixture f(2);
  DeploymentController web(f.orch, "web",
                           tenant_pod("web", "web", 8000), 1);
  f.sim.run();
  f.orch.submit(tenant_pod("pinned", "ops", 16000), /*duration=*/-1);
  f.sim.run();
  bool big_started = false;
  f.orch.submit(tenant_pod("big", "ml", 28000), /*duration=*/-1,
                [&](PodId, cluster::NodeId) { big_started = true; });
  f.sim.run();
  ASSERT_FALSE(big_started);
  f.orch.conditions().set_quarantined(0, true);

  RebalancerConfig config;
  config.starvation_threshold = 0;
  Rebalancer rebalancer(f.sim, f.orch, config);
  EXPECT_EQ(rebalancer.round_now(), 0);
  f.sim.run();
  EXPECT_FALSE(big_started);
  EXPECT_EQ(web.running(), 1);
  EXPECT_EQ(f.orch.metrics().counter("rebalance_evictions"), 0);
}

TEST(Rebalancer, RefusesWhenVictimFitsNowhereElse) {
  FairFixture f(1);
  DeploymentController web(f.orch, "web",
                           tenant_pod("web", "web", 16000), 1);
  f.sim.run();
  bool big_started = false;
  f.orch.submit(tenant_pod("big", "ml", 20000), /*duration=*/-1,
                [&](PodId, cluster::NodeId) { big_started = true; });
  f.sim.run();
  RebalancerConfig config;
  config.starvation_threshold = 0;
  Rebalancer rebalancer(f.sim, f.orch, config);
  // One node: the victim has no destination, so no eviction happens.
  EXPECT_EQ(rebalancer.round_now(), 0);
  f.sim.run();
  EXPECT_FALSE(big_started);
  EXPECT_EQ(web.running(), 1);
}

TEST(PoolTree, HistoricalUsageDecaysWithHalflife) {
  PoolTree tree = make_tree(100);
  tree.add_pool({.name = "a"});
  tree.add_pool({.name = "b"});
  tree.assign_tenant("a", "a");
  tree.assign_tenant("b", "b");
  tree.set_usage_halflife(util::seconds(10));

  // Tenant a bursts to the whole cluster for a while...
  tree.charge("a", cores(100));
  tree.advance_time(util::seconds(0));
  tree.advance_time(util::seconds(40));  // EWMA converges toward 1.0
  EXPECT_GT(tree.historical_fraction("a"), 0.9);
  EXPECT_NEAR(tree.historical_fraction("b"), 0.0, 1e-9);

  // ... then releases everything. Instantaneous usage is 0, but the
  // EWMA remembers the burst and halves every halflife.
  tree.release("a", cores(100));
  tree.advance_time(util::seconds(50));
  const double after_one = tree.historical_fraction("a");
  EXPECT_GT(after_one, 0.40);
  EXPECT_LT(after_one, 0.55);
  tree.advance_time(util::seconds(60));
  const double after_two = tree.historical_fraction("a");
  EXPECT_NEAR(after_two, after_one / 2.0, 0.05);
  tree.advance_time(util::seconds(200));
  EXPECT_LT(tree.historical_fraction("a"), 0.01);
}

TEST(PoolTree, ScheduleKeyChargesHistoricalUsageUntilItDecays) {
  PoolTree tree = make_tree(100);
  tree.add_pool({.name = "a"});
  tree.add_pool({.name = "b"});
  tree.set_usage_halflife(util::seconds(10));
  tree.add_demand("a", cores(50));
  tree.add_demand("b", cores(50));

  // a bursts, then goes idle; b never ran.
  tree.charge("a", cores(100));
  tree.advance_time(util::seconds(0));
  tree.advance_time(util::seconds(40));
  tree.release("a", cores(100));
  tree.advance_time(util::seconds(41));
  tree.recompute();

  // Without history both pools would tie at usage 0; with it, the
  // burster orders strictly after the tenant that never ran...
  EXPECT_GT(tree.schedule_key("a"), tree.schedule_key("b"));

  // ... and parity returns once the burst has decayed away.
  tree.advance_time(util::seconds(400));
  tree.recompute();
  EXPECT_NEAR(tree.schedule_key("a"), tree.schedule_key("b"), 1e-6);
}

TEST(PoolTree, ZeroHalflifeKeepsInstantaneousBehavior) {
  PoolTree tree = make_tree(100);
  tree.add_pool({.name = "a"});
  tree.charge("a", cores(80));
  tree.advance_time(util::seconds(100));  // no-op with halflife 0
  EXPECT_NEAR(tree.historical_fraction("a"), 0.0, 1e-12);
}

}  // namespace
}  // namespace evolve::orch
