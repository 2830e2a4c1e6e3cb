#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
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

struct FlowDigest {
  std::uint64_t value = 1469598103934665603ull;
  void mix(std::int64_t v) {
    value = (value ^ static_cast<std::uint64_t>(v)) * 1099511628211ull;
  }
};

/// A seeded stream of remote, loopback and zero-byte flows on 8 hosts in
/// two racks: single arrivals, same-time waves, cancels, a capacity
/// factor set and lifted mid-flight, and a partition healed later. The
/// digest folds each completion's (arrival index, time), the bit pattern
/// of every probed flow_rate and the final FlowStats, except
/// rate_recomputations (a count of solves, not of results), so any change
/// to what the fabric delivers, or when, moves it.
TEST(Fabric, MixedStreamDigestIsPinned) {
  FabricFixture f(8, 2);
  FlowDigest d;
  util::Rng rng(31);
  std::vector<FlowId> ids;
  const auto start = [&](cluster::NodeId src, cluster::NodeId dst,
                         Bytes bytes) {
    const auto index = static_cast<std::int64_t>(ids.size());
    ids.push_back(f.fabric.transfer(src, dst, bytes, [&, index] {
      d.mix(index);
      d.mix(f.sim.now());
    }));
  };
  const auto random_flow = [&] {
    const auto src = static_cast<cluster::NodeId>(rng.uniform_int(0, 7));
    const auto dst = rng.chance(0.2)
                         ? src
                         : static_cast<cluster::NodeId>(rng.uniform_int(0, 7));
    const Bytes bytes =
        rng.chance(0.1) ? 0 : rng.uniform_int(util::kKiB, 64 * util::kMiB);
    start(src, dst, bytes);
  };
  constexpr int kSingles = 300;
  for (int i = 0; i < kSingles; ++i) {
    f.sim.at(util::micros(rng.uniform_int(0, 1'999'999)), random_flow);
  }
  for (const TimeNs wave : {util::millis(150), util::millis(650),
                            util::millis(1100)}) {
    f.sim.at(wave, [&] {
      for (int i = 0; i < 24; ++i) random_flow();
    });
  }
  // Cancel a random earlier arrival; most have finished, some are live,
  // parked or waiting out their latency.
  for (int i = 0; i < 60; ++i) {
    f.sim.at(util::micros(rng.uniform_int(1, 2'200'000)), [&] {
      if (ids.empty()) return;
      const auto pick =
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1);
      d.mix(f.fabric.cancel(ids[static_cast<std::size_t>(pick)]) ? 1 : 0);
    });
  }
  for (int i = 0; i < 80; ++i) {
    f.sim.at(util::micros(rng.uniform_int(0, 2'500'000)), [&] {
      for (int k = 0; k < 4 && !ids.empty(); ++k) {
        const auto pick =
            rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1);
        d.mix(std::bit_cast<std::int64_t>(
            f.fabric.flow_rate(ids[static_cast<std::size_t>(pick)])));
      }
    });
  }
  const LinkId degraded = f.topology.host_links(3)[0];
  f.sim.at(util::millis(400), [&] {
    f.fabric.set_link_capacity_factor(degraded, 0.3);
  });
  f.sim.at(util::millis(900), [&] {
    f.fabric.set_link_capacity_factor(degraded, 1.0);
  });
  // Hosts 0-3 and 4-7 are cut off from each other from 700 ms to 1.3 s.
  f.sim.at(util::millis(700), [&] {
    f.fabric.set_reachability({0, 0, 0, 0, 1, 1, 1, 1}, {{0, 1}, {1, 0}});
  });
  f.sim.at(util::millis(1300), [&] { f.fabric.clear_partitions(); });
  f.sim.run();

  const FlowStats& s = f.fabric.stats();
  EXPECT_EQ(s.flows_in_flight, 0);
  EXPECT_GT(s.flows_parked, 0);
  EXPECT_GT(s.flows_cancelled, 0);
  for (const std::int64_t v :
       {s.flows_started, s.flows_completed, s.flows_cancelled,
        s.flows_in_flight, s.bytes_delivered, s.bytes_remote, s.flows_parked,
        s.flows_resumed}) {
    d.mix(v);
  }
  EXPECT_EQ(d.value, 0xe10ba384306825efull);
}

// Two flows on disjoint paths finish at the same instant, and the one
// with the higher id sits in the lower group slot (it reuses the slot of
// a flow that finished earlier). The completion scan recycles that
// group and must still complete the other group's flow in the same
// event, so the callbacks fire in flow-id order. Rates and times are
// dyadic, so both finishes land on the same nanosecond.
TEST(Fabric, SameInstantCompletionsAcrossARecycledGroupFireInIdOrder) {
  FabricFixture f;
  std::vector<int> order;
  f.fabric.transfer(0, 1, 625'000'000, [] {});  // done at 0.5 s
  f.fabric.transfer(2, 3, 2'500'000'000, [&] { order.push_back(2); });
  f.sim.at(util::millis(1000), [&] {
    f.fabric.transfer(1, 0, 1'250'000'000, [&] { order.push_back(3); });
  });
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
}

// Loopback groups have an empty path and a fixed rate, so loopback churn
// changes no input of the max-min solve and must not trigger one.
TEST(Fabric, LoopbackChurnDoesNotResolve) {
  // All times and rates are dyadic (2.5e9 B at 1.25e9 B/s, 2e9 B at
  // 16e9 B/s, starts on 125 ms ticks), so settling progress at the extra
  // loopback instants cannot round the remote flow's drain differently.
  const auto run = [](bool loopback) {
    FabricFixture f;
    TimeNs done = -1;
    f.fabric.transfer(0, 2, 2'500'000'000, [&] { done = f.sim.now(); });
    if (loopback) {
      for (int i = 1; i <= 6; ++i) {
        f.sim.at(util::millis(125 * i), [&f, i] {
          f.fabric.transfer(i % 4, i % 4, 2'000'000'000, [] {});
        });
      }
    }
    f.sim.run();
    return std::pair{done, f.fabric.stats().rate_recomputations};
  };
  const auto [alone_done, alone_solves] = run(false);
  const auto [churn_done, churn_solves] = run(true);
  EXPECT_EQ(churn_solves, alone_solves);
  EXPECT_EQ(churn_done, alone_done);

  FabricFixture f;
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    f.fabric.transfer(i, i, 64 * util::kMiB, [&] { ++completed; });
    f.sim.at(util::millis(i), [&f, &completed, i] {
      f.fabric.transfer(i, i, util::kMiB, [&] { ++completed; });
    });
  }
  f.sim.run();
  EXPECT_EQ(completed, 8);
  EXPECT_EQ(f.fabric.stats().rate_recomputations, 0);
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
