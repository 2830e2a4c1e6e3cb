// Time-integral accounting of the fault plane: the store's
// under-replicated object-seconds and at-risk fragment-seconds, the
// injector's node-seconds of downtime, the lease manager's unreachable
// node-seconds and the partition injector's partition-seconds, read
// while intervals are open and again after the drain.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/fault_injector.hpp"
#include "fault/partition.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "orch/lease.hpp"
#include "orch/scheduler.hpp"
#include "sim/simulation.hpp"
#include "storage/io_model.hpp"
#include "storage/object_store.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

namespace evolve {
namespace {

using util::millis;
using util::seconds;

struct Digest {
  std::uint64_t value = 1469598103934665603ull;
  void mix(double v) {
    value = (value ^ std::bit_cast<std::uint64_t>(v)) * 1099511628211ull;
  }
};

/// An EC store with repair on; two overlapping outages on one storage
/// node, then a rack outage; a lease expiry and its reconnect; two
/// overlapping partitions and their heals. Every integral is folded by
/// its bit pattern at three open-interval instants and after the drain.
TEST(FaultAccounting, TimeIntegralsArePinned) {
  sim::Simulation sim;
  const cluster::Cluster cluster = cluster::make_testbed(4, 8, 0, 4);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  storage::ObjectStoreConfig sconfig;
  sconfig.redundancy = storage::Redundancy::kErasure;
  sconfig.ec_data = 4;
  sconfig.ec_parity = 2;
  sconfig.repair_delay = millis(300);
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"),
                             sconfig);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  fault::FaultInjector faults(sim);
  fault::PartitionInjector partitions(sim, fabric);
  orch::LeaseManager leases(sim, fabric, orch);
  fault::connect(faults, orch);
  fault::connect(faults, store);
  fault::connect(faults, leases);
  fault::connect(leases, store);

  store.create_bucket("b");
  for (int i = 0; i < 24; ++i) {
    store.preload({"b", util::numbered("o", i)}, 8 * util::kMiB);
  }
  for (int i = 0; i < 40; ++i) {
    sim.at(millis(250) * i, [&, i] {
      store.put(static_cast<cluster::NodeId>(i % 4),
                {"b", util::numbered("w", i)}, 4 * util::kMiB, [] {});
    });
  }

  // Storage node 4 (rack 0): two overlapping outages, one down interval
  // 1 s..4 s. Then rack 1 (nodes 1, 5, 9) for 2 s.
  faults.schedule_outage(4, seconds(1), seconds(2));
  faults.schedule_outage(4, seconds(2), seconds(2));
  faults.schedule_rack_outage(cluster, 1, seconds(6), seconds(2));
  // Compute node 2 is cut off past the lease TTL (expiry) and heals
  // (reconnect); a second partition of node 3 overlaps it.
  sim.at(millis(1500), [&] {
    const fault::PartitionId cut = partitions.isolate({2});
    sim.after(seconds(4), [&partitions, cut] { partitions.heal(cut); });
  });
  sim.at(millis(3000), [&] {
    const fault::PartitionId cut = partitions.isolate({3});
    sim.after(millis(3500), [&partitions, cut] { partitions.heal(cut); });
  });
  leases.start();

  Digest d;
  const auto fold = [&] {
    d.mix(store.under_replicated_object_seconds());
    d.mix(store.at_risk_fragment_seconds());
    d.mix(faults.downtime_node_seconds());
    d.mix(leases.unreachable_node_seconds());
    d.mix(partitions.partition_seconds());
  };
  for (const util::TimeNs t : {millis(2500), millis(4700), millis(6900)}) {
    sim.at(t, fold);
  }
  sim.at(seconds(12), [&] { leases.stop(); });
  sim.run();
  fold();

  // The scenario must charge every integral.
  EXPECT_GT(store.under_replicated_object_seconds(), 0);
  EXPECT_GT(store.at_risk_fragment_seconds(), 0);
  EXPECT_EQ(faults.downtime_node_seconds(), 3.0 + 3 * 2.0);
  EXPECT_GT(leases.unreachable_node_seconds(), 0);
  EXPECT_EQ(leases.expiries(), 2);
  EXPECT_EQ(leases.reconnects(), 2);
  EXPECT_EQ(partitions.partition_seconds(), 5.0);
  EXPECT_EQ(store.under_replicated_objects(), 0);
  // Recorded while each component still kept its own nanosecond sum.
  EXPECT_EQ(d.value, 18009583633649840343ull);
}

}  // namespace
}  // namespace evolve
