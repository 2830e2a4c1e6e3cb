// Churn equivalence: the incremental grouped max-min solver must be
// indistinguishable from the original from-scratch reference solver.
//
// Both engines are driven over the same randomized arrival/cancel schedule
// (Poisson-ish arrival times with same-timestamp waves, zero/tiny/large
// payloads, mid-flight cancels) and must produce the identical completion
// callback order, identical completion timestamps, identical sampled rates,
// and identical aggregate stats. 100 randomized schedules.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "net/fabric.hpp"
#include "reference/ref_fabric.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace evolve::net {
namespace {

struct Arrival {
  util::TimeNs time;
  cluster::NodeId src;
  cluster::NodeId dst;
  util::Bytes bytes;
};
struct Cancel {
  util::TimeNs time;
  int target;  // index into the arrival order
};
struct Schedule {
  std::vector<Arrival> arrivals;
  std::vector<Cancel> cancels;
  std::vector<util::TimeNs> probes;
};

Schedule make_schedule(int seed) {
  util::Rng rng(static_cast<std::uint64_t>(seed) * 0x9e3779b9ULL + 17);
  Schedule s;
  const int flows = static_cast<int>(rng.uniform_int(20, 60));
  util::TimeNs t = 0;
  for (int i = 0; i < flows; ++i) {
    // 35% of arrivals share the previous timestamp: same-time waves that
    // exercise the batched recompute path.
    if (i == 0 || !rng.chance(0.35)) {
      t += static_cast<util::TimeNs>(rng.exponential(1.0 / 2e6));  // ~2ms mean
    }
    Arrival a;
    a.time = t;
    a.src = static_cast<cluster::NodeId>(rng.uniform_int(0, 11));
    a.dst = static_cast<cluster::NodeId>(rng.uniform_int(0, 11));
    switch (rng.uniform_int(0, 9)) {
      case 0: a.bytes = 0; break;                                // latency-only
      case 1: a.bytes = rng.uniform_int(1, 64); break;           // tiny
      case 2: a.bytes = rng.uniform_int(1, 4) * util::kMiB; break;
      default: a.bytes = rng.uniform_int(64, 512) * util::kKiB; break;
    }
    s.arrivals.push_back(a);
    if (rng.chance(0.2)) {
      s.cancels.push_back(Cancel{
          a.time + static_cast<util::TimeNs>(rng.exponential(1.0 / 1e6)) + 1,
          i});
    }
  }
  // Rate probes at off-wave instants (never colliding with an arrival, so
  // they observe post-flush state without forcing mid-wave recomputes).
  for (int i = 0; i < 5; ++i) {
    s.probes.push_back(
        static_cast<util::TimeNs>(rng.uniform_int(1, t > 2 ? t : 2)) * 2 + 1);
  }
  return s;
}

struct Trace {
  std::vector<int> completion_order;       // arrival indices, callback order
  std::vector<util::TimeNs> completion_times;
  std::vector<double> probed_rates;
  FlowStats stats;
};

template <typename FabricT>
Trace run_schedule(const Schedule& schedule) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(12, 0, 0, 3);
  Topology topology(cluster);
  FabricT fabric(sim, topology);
  Trace trace;
  std::vector<FlowId> started(schedule.arrivals.size(), -1);
  for (std::size_t i = 0; i < schedule.arrivals.size(); ++i) {
    const Arrival& a = schedule.arrivals[i];
    sim.at(a.time, [&, i, a] {
      started[i] = fabric.transfer(a.src, a.dst, a.bytes, [&trace, i, &sim] {
        trace.completion_order.push_back(static_cast<int>(i));
        trace.completion_times.push_back(sim.now());
      });
    });
  }
  for (const Cancel& c : schedule.cancels) {
    sim.at(c.time, [&, c] {
      if (started[static_cast<std::size_t>(c.target)] >= 0) {
        fabric.cancel(started[static_cast<std::size_t>(c.target)]);
      }
    });
  }
  for (util::TimeNs probe : schedule.probes) {
    sim.at(probe, [&] {
      for (FlowId id : started) {
        if (id >= 0) trace.probed_rates.push_back(fabric.flow_rate(id));
      }
    });
  }
  sim.run();
  trace.stats = fabric.stats();
  return trace;
}

class ChurnEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ChurnEquivalence, IncrementalMatchesReference) {
  const Schedule schedule = make_schedule(GetParam());
  const Trace ref = run_schedule<reference::RefFabric>(schedule);
  const Trace inc = run_schedule<Fabric>(schedule);

  // Identical callback order and completion timestamps.
  ASSERT_EQ(ref.completion_order.size(), inc.completion_order.size());
  EXPECT_EQ(ref.completion_order, inc.completion_order);
  for (std::size_t i = 0; i < ref.completion_times.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(ref.completion_times[i]),
                static_cast<double>(inc.completion_times[i]), 2.0)
        << "completion " << i << " (arrival " << ref.completion_order[i]
        << ") drifted";
  }

  // Identical rates at every probe point.
  ASSERT_EQ(ref.probed_rates.size(), inc.probed_rates.size());
  for (std::size_t i = 0; i < ref.probed_rates.size(); ++i) {
    EXPECT_NEAR(ref.probed_rates[i], inc.probed_rates[i],
                1e-9 * ref.probed_rates[i] + 1e-9)
        << "probe " << i;
  }

  // Identical aggregate accounting.
  EXPECT_EQ(ref.stats.flows_started, inc.stats.flows_started);
  EXPECT_EQ(ref.stats.flows_completed, inc.stats.flows_completed);
  EXPECT_EQ(ref.stats.flows_cancelled, inc.stats.flows_cancelled);
  EXPECT_EQ(ref.stats.flows_in_flight, inc.stats.flows_in_flight);
  EXPECT_EQ(ref.stats.bytes_delivered, inc.stats.bytes_delivered);
  EXPECT_EQ(ref.stats.bytes_remote, inc.stats.bytes_remote);
  EXPECT_EQ(ref.stats.flows_in_flight, 0);

  // The whole point: the incremental engine recomputes no more often than
  // the from-scratch engine (strictly less whenever waves coalesce).
  EXPECT_LE(inc.stats.rate_recomputations, ref.stats.rate_recomputations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnEquivalence,
                         ::testing::Range(1, 101));  // 100 random schedules

// A same-timestamp wave of N arrivals coalesces into ONE recompute in the
// incremental engine (the reference engine recomputes N times).
TEST(ChurnEquivalence, WaveBatchingIsSublinear) {
  for (int n : {16, 64, 256}) {
    sim::Simulation sim;
    auto cluster = cluster::make_testbed(8, 0, 0, 2);
    Topology topology(cluster);
    Fabric fabric(sim, topology);
    std::vector<FlowId> ids;
    for (int i = 0; i < n; ++i) {
      ids.push_back(
          fabric.transfer(i % 8, (i + 1) % 8, 10 * util::kMiB, [] {}));
    }
    // Force the flush the deferred event would perform, then check that the
    // whole wave cost a single solve.
    EXPECT_GT(fabric.flow_rate(ids.front()), 0.0);
    EXPECT_EQ(fabric.stats().rate_recomputations, 1);
    EXPECT_EQ(fabric.active_flows(), n);
    sim.run();
    EXPECT_EQ(fabric.stats().flows_completed, n);
    EXPECT_EQ(fabric.stats().flows_in_flight, 0);
  }
}

// Zero-byte flows only count as completed once their latency-deferred
// callback actually fires.
TEST(ChurnEquivalence, ZeroByteCompletionCountsAtCallbackTime) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(4, 0, 0);
  Topology topology(cluster);
  Fabric fabric(sim, topology);
  bool fired = false;
  fabric.transfer(0, 1, 0, [&] { fired = true; });
  EXPECT_EQ(fabric.stats().flows_completed, 0);
  EXPECT_EQ(fabric.stats().flows_in_flight, 1);
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(fabric.stats().flows_completed, 1);
  EXPECT_EQ(fabric.stats().flows_in_flight, 0);
}

}  // namespace
}  // namespace evolve::net
