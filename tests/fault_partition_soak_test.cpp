// 100-seed network-partition soak (ctest label: soak).
//
// Every seed runs a seeded random rack-isolation process against a
// replicated object store serving a randomized PUT/GET workload, with a
// deterministic storage-node outage layered on top so partition parking,
// re-replication (with seeded repair jitter), and hedged reads all
// interact. Invariants per seed:
//   1. every operation eventually completes (a partition stalls traffic,
//      never fails it) and no object is ever lost;
//   2. park/resume never leaks a fabric flow;
//   3. the whole run is trace-deterministic: the same seed reproduces
//      the identical fingerprint, event for event.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "cluster/cluster.hpp"
#include "fault/fault_injector.hpp"
#include "fault/partition.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace evolve::fault {
namespace {

constexpr int kObjects = 8;
constexpr int kOps = 60;

struct Fingerprint {
  std::int64_t partitions = 0;
  double partition_seconds = 0;
  std::int64_t flows_parked = 0;
  std::int64_t flows_resumed = 0;
  std::int64_t flows_completed = 0;
  util::TimeNs completion_hash = 0;  // sum of op completion times

  bool operator==(const Fingerprint& other) const {
    return std::tie(partitions, partition_seconds, flows_parked,
                    flows_resumed, flows_completed, completion_hash) ==
           std::tie(other.partitions, other.partition_seconds,
                    other.flows_parked, other.flows_resumed,
                    other.flows_completed, other.completion_hash);
  }
};

Fingerprint run_seed(std::uint64_t seed) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(4, 6, 0, 3);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  storage::ObjectStoreConfig config;
  config.replicas = 3;
  config.hedged_reads = true;
  config.hedge_min_delay = util::millis(5);
  config.repair_jitter = 0.25;  // seeded repair-wave desynchronization
  config.repair_seed = seed;
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"),
                             config);

  FaultInjector faults(sim);
  connect(faults, store);
  PartitionInjectorConfig pconfig;
  pconfig.seed = seed;
  PartitionInjector partitions(sim, fabric, pconfig);
  partitions.random_partitions(/*mtbp_s=*/6.0, /*mean_duration_s=*/2.0,
                               util::seconds(40));

  store.create_bucket("b");
  for (int i = 0; i < kObjects; ++i) {
    store.preload({"b", "obj" + std::to_string(i)}, util::kMiB);
  }

  util::Rng rng(seed * 1315423911u + 17);
  // One storage node takes a deterministic mid-run outage, so repair
  // traffic (jittered) overlaps the partition schedule.
  const auto servers = store.servers();
  const auto victim =
      servers[static_cast<std::size_t>(rng.uniform_int(0, 5))];
  faults.schedule_outage(victim, util::seconds(8), util::seconds(10));

  const auto compute = cluster.nodes_with_label("role=compute");
  int completed = 0;
  util::TimeNs completion_hash = 0;
  for (int op = 0; op < kOps; ++op) {
    const auto client =
        compute[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    const int obj = rng.uniform_int(0, kObjects - 1);
    const auto at = util::seconds(rng.uniform(0.0, 30.0));
    if (op % 4 == 0) {
      sim.at(at, [&, client, op] {
        store.put(client, {"b", "put" + std::to_string(op)}, util::kMiB,
                  [&] {
                    ++completed;
                    completion_hash += sim.now();
                  });
      });
    } else {
      sim.at(at, [&, client, obj] {
        store.get(client, {"b", "obj" + std::to_string(obj)},
                  [&](const storage::GetResult& r) {
                    ++completed;
                    completion_hash += sim.now();
                    EXPECT_TRUE(r.found);
                  });
      });
    }
  }
  sim.run();

  EXPECT_EQ(completed, kOps);
  EXPECT_EQ(store.lost_objects(), 0);
  EXPECT_EQ(store.under_replicated_objects(), 0);
  EXPECT_FALSE(partitions.active());
  EXPECT_EQ(fabric.stats().flows_in_flight, 0);
  EXPECT_EQ(fabric.parked_flows(), 0);
  // Every park either resumed or was cancelled (hedge losers); none leak.
  EXPECT_GE(fabric.stats().flows_parked, fabric.stats().flows_resumed);

  Fingerprint fp;
  fp.partitions = partitions.partitions_injected();
  fp.partition_seconds = partitions.partition_seconds();
  fp.flows_parked = fabric.stats().flows_parked;
  fp.flows_resumed = fabric.stats().flows_resumed;
  fp.flows_completed = fabric.stats().flows_completed;
  fp.completion_hash = completion_hash;
  return fp;
}

TEST(PartitionSoak, HundredSeedsHoldInvariantsDeterministically) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Fingerprint first = run_seed(seed);
    EXPECT_GT(first.partitions, 0);
    // Trace determinism: the identical seed replays the identical run.
    const Fingerprint replay = run_seed(seed);
    EXPECT_TRUE(first == replay);
    if (::testing::Test::HasFailure()) break;  // first failing seed only
  }
}

}  // namespace
}  // namespace evolve::fault
