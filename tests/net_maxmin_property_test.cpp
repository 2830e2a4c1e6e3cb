// Property tests for the fabric's max-min fair allocation: capacity
// conservation on every link, non-zero progress for every flow, and
// bottleneck-share lower bounds, across randomized flow sets.
#include <gtest/gtest.h>

#include <map>

#include "cluster/cluster.hpp"
#include "net/fabric.hpp"
#include "reference/ref_fabric.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace evolve::net {
namespace {

class MaxMinProperty : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinProperty, CapacityConservedAndWorkConserving) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed));
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(12, 0, 0, 3);
  Topology topology(cluster);
  Fabric fabric(sim, topology);

  // Random live flow set (big payloads so nothing completes during the
  // check), including some loopback flows.
  struct Live {
    FlowId id;
    cluster::NodeId src;
    cluster::NodeId dst;
  };
  std::vector<Live> flows;
  const int count = static_cast<int>(rng.uniform_int(3, 24));
  for (int i = 0; i < count; ++i) {
    const auto src = static_cast<cluster::NodeId>(rng.uniform_int(0, 11));
    const auto dst = static_cast<cluster::NodeId>(rng.uniform_int(0, 11));
    const FlowId id = fabric.transfer(src, dst, 100 * util::kGiB, [] {});
    flows.push_back(Live{id, src, dst});
  }

  // 1. Every flow makes progress.
  for (const Live& flow : flows) {
    EXPECT_GT(fabric.flow_rate(flow.id), 0.0);
  }

  // 2. No link is oversubscribed; 3. loaded links that bound some flow
  // are fully used (work conservation at the bottleneck).
  std::map<LinkId, double> link_load;
  std::map<LinkId, int> link_flows;
  for (const Live& flow : flows) {
    for (LinkId l : topology.path(flow.src, flow.dst)) {
      link_load[l] += fabric.flow_rate(flow.id);
      ++link_flows[l];
    }
  }
  for (const auto& [link, load] : link_load) {
    const double capacity = topology.link(link).capacity_bytes_per_s;
    EXPECT_LE(load, capacity * (1 + 1e-9))
        << "link " << topology.link(link).name << " oversubscribed";
  }

  // 4. Max-min lower bound: every network flow gets at least the worst
  // equal share along its path (capacity / flows on that link).
  for (const Live& flow : flows) {
    const auto path = topology.path(flow.src, flow.dst);
    if (path.empty()) continue;  // loopback: fixed rate
    double worst_share = 1e30;
    for (LinkId l : path) {
      worst_share = std::min(worst_share,
                             topology.link(l).capacity_bytes_per_s /
                                 link_flows[l]);
    }
    EXPECT_GE(fabric.flow_rate(flow.id), worst_share * (1 - 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinProperty,
                         ::testing::Range(1, 21));  // 20 random flow sets

// Multi-path topologies: a larger testbed (24 hosts over 6 racks) where
// cross-rack flows traverse 4 links (host up, ToR up, ToR down, host down)
// and contend on rack uplinks as well as host links. The incremental
// grouped solver must satisfy the same fairness invariants, and must agree
// with the from-scratch reference solver on every rate.
class MaxMinMultiPath : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinMultiPath, InvariantsAndReferenceAgreement) {
  const int seed = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
  sim::Simulation sim;
  sim::Simulation ref_sim;
  auto cluster = cluster::make_testbed(24, 0, 0, 6);
  Topology topology(cluster);
  Fabric fabric(sim, topology);
  reference::RefFabric reference(ref_sim, topology);

  struct Live {
    FlowId id;
    FlowId ref_id;
    cluster::NodeId src;
    cluster::NodeId dst;
  };
  std::vector<Live> flows;
  const int count = static_cast<int>(rng.uniform_int(8, 48));
  for (int i = 0; i < count; ++i) {
    const auto src = static_cast<cluster::NodeId>(rng.uniform_int(0, 23));
    // Bias towards cross-rack destinations so most paths have 4 links.
    const auto dst = static_cast<cluster::NodeId>(rng.uniform_int(0, 23));
    const util::Bytes bytes = 100 * util::kGiB;
    flows.push_back(Live{fabric.transfer(src, dst, bytes, [] {}),
                         reference.transfer(src, dst, bytes, [] {}), src,
                         dst});
  }

  std::map<LinkId, double> link_load;
  std::map<LinkId, int> link_flows;
  for (const Live& flow : flows) {
    const double rate = fabric.flow_rate(flow.id);
    // Grouped solver agrees with the reference solver, flow by flow.
    EXPECT_NEAR(rate, reference.flow_rate(flow.ref_id), 1e-9 * rate + 1e-9);
    EXPECT_GT(rate, 0.0);
    for (LinkId l : topology.path(flow.src, flow.dst)) {
      link_load[l] += rate;
      ++link_flows[l];
    }
  }
  for (const auto& [link, load] : link_load) {
    EXPECT_LE(load, topology.link(link).capacity_bytes_per_s * (1 + 1e-9))
        << "link " << topology.link(link).name << " oversubscribed";
  }
  for (const Live& flow : flows) {
    const auto path = topology.path(flow.src, flow.dst);
    if (path.empty()) continue;
    double worst_share = 1e30;
    for (LinkId l : path) {
      worst_share = std::min(
          worst_share, topology.link(l).capacity_bytes_per_s / link_flows[l]);
    }
    EXPECT_GE(fabric.flow_rate(flow.id), worst_share * (1 - 1e-9));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinMultiPath, ::testing::Range(1, 16));

TEST(MaxMinProperty, TinyFlowsCompleteAndDrainState) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(8, 0, 0, 2);
  Topology topology(cluster);
  Fabric fabric(sim, topology);
  int completed = 0;
  // 1-byte flows sharing links with multi-MiB flows: the tiny flows finish
  // almost immediately without stalling or corrupting the big flows.
  for (int i = 0; i < 4; ++i) {
    fabric.transfer(0, 2, 1, [&] { ++completed; });
    fabric.transfer(0, 2, 4 * util::kMiB, [&] { ++completed; });
    fabric.transfer(i, (i + 4) % 8, 0, [&] { ++completed; });  // zero-byte
  }
  sim.run();
  EXPECT_EQ(completed, 12);
  EXPECT_EQ(fabric.active_flows(), 0);
  EXPECT_EQ(fabric.stats().flows_in_flight, 0);
  EXPECT_EQ(fabric.stats().flows_completed, 12);
  EXPECT_EQ(fabric.stats().bytes_delivered,
            4 * (1 + 4 * util::kMiB));
}

TEST(MaxMinProperty, RatesStableAcrossIdenticalSolves) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(4, 0, 0);
  Topology topology(cluster);
  Fabric fabric(sim, topology);
  const FlowId a = fabric.transfer(0, 1, util::kGiB, [] {});
  const FlowId b = fabric.transfer(0, 2, util::kGiB, [] {});
  const double rate_a = fabric.flow_rate(a);
  // Adding and cancelling a flow must restore the previous allocation.
  const FlowId c = fabric.transfer(0, 3, util::kGiB, [] {});
  EXPECT_LT(fabric.flow_rate(a), rate_a);
  fabric.cancel(c);
  EXPECT_NEAR(fabric.flow_rate(a), rate_a, 1.0);
  EXPECT_NEAR(fabric.flow_rate(b), rate_a, 1.0);
}

}  // namespace
}  // namespace evolve::net
