// The placement rule's two halves: orch::eligible (node conditions,
// node selector, anti-affinity) plus a free-capacity fit, and the
// weighted terms of orch::node_score, each probed with its weight alone.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "orch/scheduler.hpp"
#include "util/types.hpp"

namespace evolve::orch {
namespace {

using cluster::cpu_mem;

struct PlacementFixture {
  PlacementFixture() : cluster(cluster::make_testbed(2, 1, 1)) {
    for (cluster::NodeId n = 0; n < cluster.size(); ++n) {
      nodes.emplace_back(n, cluster.node(n).allocatable());
    }
  }
  double score(const PodSpec& pod, cluster::NodeId node,
               const SchedulingPolicy& weights) const {
    return node_score(pod, cluster, nodes[static_cast<std::size_t>(node)],
                      weights);
  }
  bool eligible_on(const PodSpec& pod, cluster::NodeId node) const {
    return eligible(pod, cluster.node(node),
                    nodes[static_cast<std::size_t>(node)], conditions[node]);
  }
  cluster::Cluster cluster;
  std::vector<NodeStatus> nodes;
  cluster::NodeConditions conditions;
};

TEST(ResourceFitFilter, ChecksFreeCapacity) {
  PlacementFixture f;
  const auto policy = SchedulingPolicy::spreading(f.cluster);
  PodSpec pod;
  pod.request = cpu_mem(32000, util::kGiB);
  EXPECT_EQ(select_node(pod, f.cluster, {f.nodes[0]}, f.conditions, policy),
            0);
  f.nodes[0].bind(1, cpu_mem(31000, 0));
  EXPECT_EQ(select_node(pod, f.cluster, {f.nodes[0]}, f.conditions, policy),
            cluster::kInvalidNode);
}

TEST(NodeSelectorFilter, MatchesLabels) {
  PlacementFixture f;
  PodSpec pod;
  pod.node_selector = {"role=accel"};
  EXPECT_FALSE(f.eligible_on(pod, 0));
  const auto accel_nodes = f.cluster.nodes_with_label("role=accel");
  ASSERT_EQ(accel_nodes.size(), 1u);
  EXPECT_TRUE(f.eligible_on(pod, accel_nodes[0]));
}

TEST(NodeSelectorFilter, EmptySelectorMatchesAll) {
  PlacementFixture f;
  PodSpec pod;
  for (cluster::NodeId n = 0; n < f.cluster.size(); ++n) {
    EXPECT_TRUE(f.eligible_on(pod, n));
  }
}

TEST(Eligible, ConditionsAndAntiAffinityExclude) {
  PlacementFixture f;
  PodSpec pod;
  pod.anti_affinity_group = "web";
  f.nodes[0].cordoned = true;
  f.conditions.set_down(1, true);
  f.conditions.set_quarantined(2, true);
  f.conditions.set_unreachable(3, true, 2);
  for (cluster::NodeId n = 0; n < f.cluster.size(); ++n) {
    EXPECT_FALSE(f.eligible_on(pod, n)) << n;
  }
  f.nodes[0].cordoned = false;
  EXPECT_TRUE(f.eligible_on(pod, 0));
  f.nodes[0].bind(1, cpu_mem(1000, util::kGiB), "web");
  EXPECT_FALSE(f.eligible_on(pod, 0));
  PodSpec other = pod;
  other.anti_affinity_group = "db";
  EXPECT_TRUE(f.eligible_on(other, 0));
  f.nodes[0].unbind(1, cpu_mem(1000, util::kGiB), "web");
  EXPECT_TRUE(f.eligible_on(pod, 0));
}

TEST(LeastAllocatedScore, PrefersEmptyNode) {
  PlacementFixture f;
  const SchedulingPolicy weights{.least_allocated = 1.0};
  PodSpec pod;
  pod.request = cpu_mem(1000, util::kGiB);
  const double empty = f.score(pod, 0, weights);
  f.nodes[1].bind(1, cpu_mem(16000, 64 * util::kGiB));
  const double busy = f.score(pod, 1, weights);
  EXPECT_GT(empty, busy);
}

TEST(MostAllocatedScore, PrefersBusyNode) {
  PlacementFixture f;
  const SchedulingPolicy weights{.most_allocated = 1.0};
  PodSpec pod;
  pod.request = cpu_mem(1000, util::kGiB);
  const double empty = f.score(pod, 0, weights);
  f.nodes[1].bind(1, cpu_mem(16000, 64 * util::kGiB));
  const double busy = f.score(pod, 1, weights);
  EXPECT_LT(empty, busy);
}

TEST(BalancedAllocationScore, PenalizesSkew) {
  PlacementFixture f;
  const SchedulingPolicy weights{.balanced = 1.0};
  PodSpec balanced;
  balanced.request = cpu_mem(16000, 64 * util::kGiB);  // 50% cpu, 50% mem
  PodSpec skewed;
  skewed.request = cpu_mem(32000, 0);  // 100% cpu, 0% mem
  EXPECT_GT(f.score(balanced, 0, weights), f.score(skewed, 0, weights));
}

TEST(LocalityScore, ExactRackAndNone) {
  PlacementFixture f;
  const SchedulingPolicy weights{.locality = 1.0};
  PodSpec pod;
  pod.preferred_nodes = {0};  // rack 0
  EXPECT_DOUBLE_EQ(f.score(pod, 0, weights), 1.0);
  // Node 2 is in rack 0 (round-robin: 0->r0, 1->r1, 2->r0, 3->r1).
  EXPECT_DOUBLE_EQ(f.score(pod, 2, weights), 0.5);
  EXPECT_DOUBLE_EQ(f.score(pod, 1, weights), 0.0);
}

TEST(LocalityScore, NoPreferenceScoresZero) {
  PlacementFixture f;
  PodSpec pod;
  EXPECT_DOUBLE_EQ(f.score(pod, 0, {.locality = 1.0}), 0.0);
}

TEST(PodSpreadScore, DecaysWithPodCount) {
  PlacementFixture f;
  const SchedulingPolicy weights{.pod_spread = 1.0};
  PodSpec pod;
  const double empty = f.score(pod, 0, weights);
  f.nodes[0].bind(1, cpu_mem(1, 1));
  f.nodes[0].bind(2, cpu_mem(1, 1));
  const double busy = f.score(pod, 0, weights);
  EXPECT_GT(empty, busy);
  EXPECT_DOUBLE_EQ(empty, 1.0);
}

TEST(SchedulingPolicy, FactoriesNameTheWeightSets) {
  PlacementFixture f;
  const auto spread = SchedulingPolicy::spreading(f.cluster);
  EXPECT_EQ(spread.least_allocated, 1.0);
  EXPECT_EQ(spread.most_allocated, 0.0);
  EXPECT_EQ(spread.balanced, 0.5);
  EXPECT_EQ(spread.locality, 2.0);
  EXPECT_EQ(spread.pod_spread, 0.25);
  const auto pack = SchedulingPolicy::binpacking(f.cluster);
  EXPECT_EQ(pack.least_allocated, 0.0);
  EXPECT_EQ(pack.most_allocated, 1.0);
  EXPECT_EQ(pack.balanced, 0.0);
  EXPECT_EQ(pack.locality, 2.0);
  EXPECT_EQ(pack.pod_spread, 0.0);
}

}  // namespace
}  // namespace evolve::orch
