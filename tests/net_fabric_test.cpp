#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "sim/simulation.hpp"
#include "util/types.hpp"

namespace evolve::net {
namespace {

using util::Bytes;
using util::TimeNs;

struct FabricFixture {
  FabricFixture(int compute = 4, int racks = 2)
      : cluster(cluster::make_testbed(compute, 0, 0, racks)),
        topology(cluster),
        fabric(sim, topology) {}

  sim::Simulation sim;
  cluster::Cluster cluster;
  Topology topology;
  Fabric fabric;
};

TEST(Fabric, SingleFlowGetsFullHostLink) {
  FabricFixture f;
  const Bytes bytes = 1250 * util::kMiB;  // 1.25e9 B/s link -> ~1.048s
  TimeNs done = -1;
  f.fabric.transfer(0, 2, bytes, [&] { done = f.sim.now(); });
  f.sim.run();
  ASSERT_GT(done, 0);
  const double expected_s =
      static_cast<double>(bytes) / kHostLinkBytesPerS;
  EXPECT_NEAR(util::to_seconds(done), expected_s, 0.001);
}

TEST(Fabric, ZeroByteTransferCompletesAfterLatency) {
  FabricFixture f;
  TimeNs done = -1;
  f.fabric.transfer(0, 1, 0, [&] { done = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(done, f.topology.latency(0, 1));
}

TEST(Fabric, CancelWithdrawsZeroByteTransferWaitingOutLatency) {
  FabricFixture f;
  bool fired = false;
  const FlowId id = f.fabric.transfer(0, 1, 0, [&] { fired = true; });
  EXPECT_EQ(f.fabric.stats().flows_in_flight, 1);
  EXPECT_TRUE(f.fabric.cancel(id));
  EXPECT_FALSE(f.fabric.cancel(id));
  f.sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(f.fabric.stats().flows_cancelled, 1);
  EXPECT_EQ(f.fabric.stats().flows_completed, 0);
  EXPECT_EQ(f.fabric.stats().flows_in_flight, 0);
  // Once delivered, a zero-byte transfer can no longer be cancelled.
  const FlowId late = f.fabric.transfer(0, 1, 0, [&] { fired = true; });
  f.sim.run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(f.fabric.cancel(late));
  EXPECT_EQ(f.fabric.stats().flows_completed, 1);
}

TEST(Fabric, TwoFlowsShareSenderLink) {
  FabricFixture f;
  const Bytes bytes = 125 * util::kMiB;
  std::vector<TimeNs> done;
  // Two flows from node 0 to two different same-rack receivers share 0's
  // uplink and each should get half the bandwidth.
  f.fabric.transfer(0, 2, bytes, [&] { done.push_back(f.sim.now()); });
  f.fabric.transfer(0, 2, bytes, [&] { done.push_back(f.sim.now()); });
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  const double solo_s =
      static_cast<double>(bytes) / kHostLinkBytesPerS;
  EXPECT_NEAR(util::to_seconds(done.back()), 2 * solo_s, 0.01 * 2 * solo_s + 1e-4);
}

TEST(Fabric, DisjointFlowsDoNotInterfere) {
  FabricFixture f;
  const Bytes bytes = 125 * util::kMiB;
  std::vector<TimeNs> done;
  f.fabric.transfer(0, 2, bytes, [&] { done.push_back(f.sim.now()); });
  f.fabric.transfer(1, 3, bytes, [&] { done.push_back(f.sim.now()); });
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  const double solo_s =
      static_cast<double>(bytes) / kHostLinkBytesPerS;
  for (TimeNs t : done) {
    EXPECT_NEAR(util::to_seconds(t), solo_s, 0.01 * solo_s + 1e-4);
  }
}

TEST(Fabric, TorUplinkBottlenecksCrossRackFlows) {
  // 8 hosts per rack; every rack-0 host sends cross-rack simultaneously.
  FabricFixture f(16, 2);
  const Bytes bytes = 125 * util::kMiB;
  int completed = 0;
  // Hosts 0,2,4,..,14 are rack 0; 1,3,..,15 rack 1 (round-robin layout).
  for (int i = 0; i < 8; ++i) {
    f.fabric.transfer(2 * i, 2 * i + 1, bytes, [&] { ++completed; });
  }
  f.sim.run();
  EXPECT_EQ(completed, 8);
  // 8 flows over a 5e9 B/s uplink: aggregate limited to uplink capacity.
  const double expected_s = 8.0 * static_cast<double>(bytes) /
                            kTorUplinkBytesPerS;
  EXPECT_NEAR(util::to_seconds(f.sim.now()), expected_s,
              0.02 * expected_s + 1e-3);
}

TEST(Fabric, LoopbackUsesMemoryBandwidth) {
  FabricFixture f;
  const Bytes bytes = 1600 * util::kMiB;
  TimeNs done = -1;
  f.fabric.transfer(1, 1, bytes, [&] { done = f.sim.now(); });
  f.sim.run();
  const double expected_s =
      static_cast<double>(bytes) / kLoopbackBytesPerS;
  EXPECT_NEAR(util::to_seconds(done), expected_s, 0.01 * expected_s + 1e-4);
}

TEST(Fabric, CancelPreventsCompletion) {
  FabricFixture f;
  bool fired = false;
  const FlowId id = f.fabric.transfer(0, 2, util::kGiB, [&] { fired = true; });
  EXPECT_TRUE(f.fabric.cancel(id));
  EXPECT_FALSE(f.fabric.cancel(id));
  f.sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(f.fabric.active_flows(), 0);
}

TEST(Fabric, CancelFreesBandwidthForSurvivor) {
  FabricFixture f;
  const Bytes bytes = 125 * util::kMiB;
  TimeNs done = -1;
  f.fabric.transfer(0, 2, bytes, [&] { done = f.sim.now(); });
  const FlowId victim = f.fabric.transfer(0, 2, 100 * util::kGiB, [] {});
  // Cancel the victim halfway through the survivor's solo time.
  const double solo_s =
      static_cast<double>(bytes) / kHostLinkBytesPerS;
  f.sim.after(util::seconds(solo_s / 2), [&] { f.fabric.cancel(victim); });
  f.sim.run();
  // Survivor: a quarter of its bytes at half rate during [0, solo/2], the
  // remaining 3/4 at full rate (3/4 solo) -> 1.25x solo total.
  EXPECT_NEAR(util::to_seconds(done), 1.25 * solo_s, 0.02 * solo_s + 1e-4);
}

TEST(Fabric, LateFlowSlowsEarlyFlow) {
  FabricFixture f;
  const Bytes bytes = 125 * util::kMiB;
  TimeNs done_first = -1;
  f.fabric.transfer(0, 2, bytes, [&] { done_first = f.sim.now(); });
  const double solo_s =
      static_cast<double>(bytes) / kHostLinkBytesPerS;
  f.sim.after(util::seconds(solo_s / 2), [&] {
    f.fabric.transfer(0, 2, 10 * bytes, [] {});
  });
  f.sim.run();
  // First flow: half at full rate, half at half rate -> 1.5x solo.
  EXPECT_NEAR(util::to_seconds(done_first), 1.5 * solo_s,
              0.02 * solo_s + 1e-4);
}

TEST(Fabric, StatsCount) {
  FabricFixture f;
  f.fabric.transfer(0, 2, 1000, [] {});
  f.fabric.transfer(0, 1, 0, [] {});
  f.sim.run();
  EXPECT_EQ(f.fabric.stats().flows_started, 2);
  EXPECT_EQ(f.fabric.stats().flows_completed, 2);
  EXPECT_EQ(f.fabric.stats().bytes_delivered, 1000);
  EXPECT_EQ(f.fabric.stats().bytes_remote, 1000);
}

TEST(Fabric, LoopbackBytesAreNotRemote) {
  FabricFixture f;
  f.fabric.transfer(1, 1, 5000, [] {});
  f.fabric.transfer(0, 2, 1000, [] {});
  f.sim.run();
  EXPECT_EQ(f.fabric.stats().bytes_delivered, 6000);
  EXPECT_EQ(f.fabric.stats().bytes_remote, 1000);
}

TEST(Fabric, ChainedTransfersFromCallbacks) {
  FabricFixture f;
  int completed = 0;
  std::function<void(int)> next = [&](int remaining) {
    ++completed;
    if (remaining > 0) {
      f.fabric.transfer(0, 2, 1000, [&next, remaining] { next(remaining - 1); });
    }
  };
  f.fabric.transfer(0, 2, 1000, [&next] { next(4); });
  f.sim.run();
  EXPECT_EQ(completed, 5);
}

TEST(Fabric, RejectsNegativeBytes) {
  FabricFixture f;
  EXPECT_THROW(f.fabric.transfer(0, 1, -5, [] {}), std::invalid_argument);
}

TEST(Fabric, FlowRateVisible) {
  FabricFixture f;
  const FlowId id = f.fabric.transfer(0, 2, util::kGiB, [] {});
  EXPECT_NEAR(f.fabric.flow_rate(id), kHostLinkBytesPerS,
              1.0);
  EXPECT_DOUBLE_EQ(f.fabric.flow_rate(9999), 0.0);
}

// The solver reads a link's capacity factor only when a flow loads the
// link, so a factor set while the link is idle must still apply later.
TEST(Fabric, CapacityFactorOnIdleLinkAppliesToLaterFlows) {
  FabricFixture f;
  const LinkId uplink = f.topology.host_links(0)[0];
  f.fabric.set_link_capacity_factor(uplink, 0.5);
  // Warm the solver on disjoint links first: the degraded link is still
  // idle when these flows are rated.
  f.fabric.transfer(1, 3, 125 * util::kMiB, [] {});
  f.sim.run();
  const double full = kHostLinkBytesPerS;
  const Bytes bytes = 125 * util::kMiB;
  const TimeNs start = f.sim.now();
  TimeNs done = -1;
  const FlowId id =
      f.fabric.transfer(0, 2, bytes, [&] { done = f.sim.now(); });
  EXPECT_DOUBLE_EQ(f.fabric.flow_rate(id), full * 0.5);
  f.sim.run();
  const double expected_s = static_cast<double>(bytes) / (full * 0.5);
  EXPECT_NEAR(util::to_seconds(done - start), expected_s,
              0.01 * expected_s + 1e-4);
}

TEST(Fabric, CapacityFactorMidFlightReRatesLiveFlows) {
  FabricFixture f;
  const double full = kHostLinkBytesPerS;
  const Bytes bytes = 1250 * util::kMiB;
  std::vector<TimeNs> done(2, -1);
  // Two flows share host 0's uplink; a third on disjoint links is the
  // control and must keep its rate.
  const FlowId a = f.fabric.transfer(0, 2, bytes, [&] { done[0] = f.sim.now(); });
  const FlowId b = f.fabric.transfer(0, 2, bytes, [&] { done[1] = f.sim.now(); });
  const FlowId c = f.fabric.transfer(1, 3, bytes, [] {});
  EXPECT_DOUBLE_EQ(f.fabric.flow_rate(a), full / 2);
  const TimeNs mid = util::millis(100);
  f.sim.run_until(mid);
  f.fabric.set_link_capacity_factor(f.topology.host_links(0)[0], 0.25);
  EXPECT_DOUBLE_EQ(f.fabric.flow_rate(a), full * 0.25 / 2);
  EXPECT_DOUBLE_EQ(f.fabric.flow_rate(b), full * 0.25 / 2);
  EXPECT_DOUBLE_EQ(f.fabric.flow_rate(c), full);
  f.sim.run();
  const double drained = full / 2 * util::to_seconds(mid);
  const double expected_s = util::to_seconds(mid) +
                            (static_cast<double>(bytes) - drained) /
                                (full * 0.25 / 2);
  for (TimeNs t : done) {
    EXPECT_NEAR(util::to_seconds(t), expected_s, 0.01 * expected_s + 1e-4);
  }
}

// Property check across flow counts: n same-path flows take ~n * solo time.
class FabricFairness : public ::testing::TestWithParam<int> {};

TEST_P(FabricFairness, NFlowsShareProportionally) {
  FabricFixture f;
  const int n = GetParam();
  const Bytes bytes = 25 * util::kMiB;
  int completed = 0;
  TimeNs last = 0;
  for (int i = 0; i < n; ++i) {
    f.fabric.transfer(0, 2, bytes, [&] {
      ++completed;
      last = f.sim.now();
    });
  }
  f.sim.run();
  EXPECT_EQ(completed, n);
  const double solo_s =
      static_cast<double>(bytes) / kHostLinkBytesPerS;
  EXPECT_NEAR(util::to_seconds(last), n * solo_s, 0.02 * n * solo_s + 1e-4);
}

INSTANTIATE_TEST_SUITE_P(FlowCounts, FabricFairness,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

}  // namespace
}  // namespace evolve::net
