// Erasure-coding mode of the object store.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "store_accounting.hpp"
#include "trace/tracer.hpp"

namespace evolve::storage {
namespace {

struct EcFixture {
  explicit EcFixture(int storage_nodes = 6, ObjectStoreConfig config = ec42(),
                     int racks = 2)
      : cluster(cluster::make_testbed(2, storage_nodes, 0, racks)),
        topology(cluster),
        fabric(sim, topology),
        io(sim, cluster),
        store(sim, cluster, fabric, io,
              cluster.nodes_with_label("role=storage"), config) {
    store.create_bucket("data");
  }

  static ObjectStoreConfig ec42() {
    ObjectStoreConfig config;
    config.redundancy = Redundancy::kErasure;
    config.ec_data = 4;
    config.ec_parity = 2;
    return config;
  }

  sim::Simulation sim;
  cluster::Cluster cluster;
  net::Topology topology;
  net::Fabric fabric;
  storage::IoSubsystem io;
  ObjectStore store;
};

TEST(ErasureCoding, RequiresEnoughServers) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(1, 4, 0);  // only 4 servers for 4+2
  net::Topology topo(cluster);
  net::Fabric fabric(sim, topo);
  storage::IoSubsystem io(sim, cluster);
  EXPECT_THROW(ObjectStore(sim, cluster, fabric, io,
                           cluster.nodes_with_label("role=storage"),
                           EcFixture::ec42()),
               std::invalid_argument);
}

TEST(ErasureCoding, ValidatesParameters) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(1, 6, 0);
  net::Topology topo(cluster);
  net::Fabric fabric(sim, topo);
  storage::IoSubsystem io(sim, cluster);
  auto config = EcFixture::ec42();
  config.ec_data = 0;
  EXPECT_THROW(ObjectStore(sim, cluster, fabric, io,
                           cluster.nodes_with_label("role=storage"), config),
               std::invalid_argument);
}

TEST(ErasureCoding, LocateReturnsKPlusMServers) {
  EcFixture f;
  const auto holders = f.store.locate({"data", "obj"});
  EXPECT_EQ(holders.size(), 6u);  // 4 + 2
  std::set<cluster::NodeId> unique(holders.begin(), holders.end());
  EXPECT_EQ(unique.size(), 6u);
}

TEST(ErasureCoding, StorageOverheadIsFractional) {
  EXPECT_DOUBLE_EQ(EcFixture::ec42().storage_overhead(), 1.5);
  ObjectStoreConfig replication;
  replication.replicas = 3;
  EXPECT_DOUBLE_EQ(replication.storage_overhead(), 3.0);
}

TEST(ErasureCoding, PutStoresFragmentsNotCopies) {
  EcFixture f;
  const ObjectKey key{"data", "obj"};
  bool done = false;
  f.store.put(0, key, 4 * util::kMiB, [&] { done = true; });
  f.sim.run();
  ASSERT_TRUE(done);
  // Each holder stores a 1 MiB fragment; total durable = 1.5x logical.
  util::Bytes total = 0;
  for (auto s : f.store.servers()) total += f.store.durable_bytes(s);
  EXPECT_EQ(total, 6 * util::kMiB);
  for (auto holder : f.store.locate(key)) {
    EXPECT_EQ(f.store.durable_bytes(holder), util::kMiB);
  }
  expect_durable_accounting(f.store);
}

TEST(ErasureCoding, GetReconstructsFullObject) {
  EcFixture f;
  const ObjectKey key{"data", "obj"};
  f.store.preload(key, 4 * util::kMiB);
  GetResult result;
  f.store.get(0, key, [&](const GetResult& r) { result = r; });
  f.sim.run();
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.size, 4 * util::kMiB);
  EXPECT_FALSE(result.tier.empty());
}

TEST(ErasureCoding, ReadBlockIsRejected) {
  // A fragment holds a slice of the stripe, never a whole block: serving
  // a point read from one (possibly parity) fragment would be wrong.
  EcFixture f;
  const ObjectKey key{"data", "obj"};
  f.store.preload(key, 4 * util::kMiB);
  EXPECT_THROW(f.store.read_block(0, key, 16 * util::kKiB,
                                  [](const GetResult&) {}),
               std::invalid_argument);
  EXPECT_EQ(f.store.metrics().counter("block_read_requests"), 0);
}

TEST(ErasureCoding, RemoveReclaimsFragments) {
  EcFixture f;
  const ObjectKey key{"data", "obj"};
  f.store.preload(key, 4 * util::kMiB);
  bool removed = false;
  f.store.remove(0, key, [&] { removed = true; });
  f.sim.run();
  EXPECT_TRUE(removed);
  for (auto s : f.store.servers()) EXPECT_EQ(f.store.durable_bytes(s), 0);
  expect_durable_accounting(f.store);
}

TEST(ErasureCoding, OverwriteKeepsAccountingConsistent) {
  EcFixture f;
  const ObjectKey key{"data", "obj"};
  f.store.put(0, key, 8 * util::kMiB, [] {});
  f.sim.run();
  f.store.put(0, key, 4 * util::kMiB, [] {});
  f.sim.run();
  util::Bytes total = 0;
  for (auto s : f.store.servers()) total += f.store.durable_bytes(s);
  EXPECT_EQ(total, 6 * util::kMiB);
  expect_durable_accounting(f.store);
}

TEST(ErasureCoding, GetMovesLessDataThanReplicationWrites) {
  // EC GET transfers ~size bytes (k fragments); replication PUT moved
  // R x size. Sanity-check the fabric byte counters.
  EcFixture f;
  const ObjectKey key{"data", "obj"};
  f.store.preload(key, 4 * util::kMiB);
  const auto before = f.fabric.stats().bytes_delivered;
  f.store.get(1, key, [](const GetResult&) {});
  f.sim.run();
  const auto moved = f.fabric.stats().bytes_delivered - before;
  EXPECT_EQ(moved, 4 * util::kMiB);  // k fragments of size/k
}

TEST(ErasureCoding, PutSlowerThanSingleReplicaButCheaper) {
  // Compare EC(4+2) PUT against R=2 replication on identical clusters.
  auto put_time = [](ObjectStoreConfig config) {
    EcFixture f(6, config);
    util::TimeNs done = -1;
    f.store.put(0, {"data", "x"}, 64 * util::kMiB, [&] { done = f.sim.now(); });
    f.sim.run();
    util::Bytes durable = 0;
    for (auto s : f.store.servers()) durable += f.store.durable_bytes(s);
    expect_durable_accounting(f.store);
    return std::pair{done, durable};
  };
  ObjectStoreConfig replication;
  replication.replicas = 2;
  const auto [rep_time, rep_bytes] = put_time(replication);
  const auto [ec_time, ec_bytes] = put_time(EcFixture::ec42());
  // EC stores 25% fewer durable bytes than R=2...
  EXPECT_LT(ec_bytes, rep_bytes);
  // ...and its fan-out moves fragments, not full copies, so the PUT is
  // not slower than replication despite the encode cost.
  EXPECT_LT(ec_time, rep_time + util::millis(50));
}

// -- Rack-aware placement, degraded reads, loss boundary, rebuild ------

int max_fragments_in_one_rack(const cluster::Cluster& cluster,
                              const std::vector<cluster::NodeId>& holders) {
  std::map<int, int> per_rack;
  int worst = 0;
  for (cluster::NodeId n : holders) {
    worst = std::max(worst, ++per_rack[cluster.node(n).rack]);
  }
  return worst;
}

TEST(ErasureCoding, RackAwarePlacementBoundsFragmentsPerRack) {
  // 12 storage servers across 4 racks: no rack may hold more than
  // ceil(6 / 4) = 2 of a stripe's 6 fragments, for every key.
  EcFixture f(12, EcFixture::ec42(), /*racks=*/4);
  for (int i = 0; i < 64; ++i) {
    const auto holders = f.store.locate({"data", "obj" + std::to_string(i)});
    ASSERT_EQ(holders.size(), 6u);
    EXPECT_LE(max_fragments_in_one_rack(f.cluster, holders), 2) << "key " << i;
  }
}

TEST(ErasureCoding, ObliviousPlacementOverfillsSomeRack) {
  // With the spread disabled, pure HRW concentrates > cap fragments of
  // some stripe in one rack — the A/B control for the invariant above.
  auto config = EcFixture::ec42();
  config.rack_aware_placement = false;
  EcFixture f(12, config, /*racks=*/4);
  int worst = 0;
  for (int i = 0; i < 64; ++i) {
    const auto holders = f.store.locate({"data", "obj" + std::to_string(i)});
    worst = std::max(worst, max_fragments_in_one_rack(f.cluster, holders));
  }
  EXPECT_GT(worst, 2);
}

TEST(ErasureCoding, ReplicationPlacementAlsoSpreadsAcrossRacks) {
  ObjectStoreConfig config;
  config.replicas = 2;
  EcFixture f(8, config, /*racks=*/2);  // cap = ceil(2/2) = 1 per rack
  for (int i = 0; i < 64; ++i) {
    const auto holders = f.store.locate({"data", "obj" + std::to_string(i)});
    ASSERT_EQ(holders.size(), 2u);
    EXPECT_EQ(max_fragments_in_one_rack(f.cluster, holders), 1) << "key " << i;
  }
}

TEST(ErasureCoding, DegradedReadReconstructsThroughParity) {
  EcFixture f;
  const ObjectKey key{"data", "obj"};
  f.store.preload(key, 4 * util::kMiB);
  const auto holders = f.store.locate(key);
  // Kill the holders of data fragments 0 and 1 (= m dead): the GET must
  // still succeed, reading 2 data + 2 parity fragments and paying the
  // reconstruction cost.
  f.store.conditions().set_down(holders[0], true);
  f.store.conditions().set_down(holders[1], true);
  GetResult result;
  f.store.get(0, key, [&](const GetResult& r) { result = r; });
  f.sim.run();
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.size, 4 * util::kMiB);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.parity_fragments_used, 2);
  EXPECT_EQ(f.store.metrics().counter("ec_reconstructed_reads"), 1);
  expect_durable_accounting(f.store);
}

TEST(ErasureCoding, DegradedReadCostsMoreThanCleanRead) {
  auto timed_get = [](int dead_holders) {
    EcFixture f;
    const ObjectKey key{"data", "obj"};
    f.store.preload(key, 16 * util::kMiB);
    const auto holders = f.store.locate(key);
    for (int i = 0; i < dead_holders; ++i) {
      f.store.conditions().set_down(holders[static_cast<std::size_t>(i)], true);
    }
    util::TimeNs done = -1;
    f.store.get(0, key, [&](const GetResult& r) {
      ASSERT_TRUE(r.found);
      done = f.sim.now();
    });
    f.sim.run_until(util::millis(400));  // before background repair fires
    return done;
  };
  const util::TimeNs clean = timed_get(0);
  const util::TimeNs degraded = timed_get(2);
  ASSERT_GT(clean, 0);
  ASSERT_GT(degraded, 0);
  EXPECT_GT(degraded, clean);  // reconstruction math is not free
}

TEST(ErasureCoding, ExactlyMDeadIsRecoverableMPlusOneIsLost) {
  // The loss boundary: EC(4,2) tolerates exactly m = 2 dead fragments.
  EcFixture f;  // 6 servers: repairs stall (no spare target), so the
                // stripe stays at whatever the failures leave it.
  const ObjectKey key{"data", "obj"};
  f.store.preload(key, 4 * util::kMiB);
  const auto holders = f.store.locate(key);

  f.store.conditions().set_down(holders[0], true);
  f.store.conditions().set_down(holders[1], true);
  auto stats = f.store.durability_stats();
  EXPECT_EQ(stats.objects_degraded, 1);
  EXPECT_EQ(stats.objects_lost, 0);
  EXPECT_EQ(stats.missing_fragments, 2);
  EXPECT_EQ(stats.objects_lost_total, 0);
  GetResult at_boundary;
  f.store.get(0, key, [&](const GetResult& r) { at_boundary = r; });
  f.sim.run();
  EXPECT_TRUE(at_boundary.found);  // m dead: still recoverable
  EXPECT_TRUE(at_boundary.degraded);

  f.store.conditions().set_down(holders[2], true);  // m + 1 dead: lost
  stats = f.store.durability_stats();
  EXPECT_EQ(stats.objects_degraded, 0);
  EXPECT_EQ(stats.objects_lost, 1);
  EXPECT_EQ(stats.missing_fragments, 0);  // lost, no longer "at risk"
  EXPECT_EQ(stats.objects_lost_total, 1);
  GetResult past_boundary;
  f.store.get(0, key, [&](const GetResult& r) { past_boundary = r; });
  f.sim.run();
  EXPECT_FALSE(past_boundary.found);
  EXPECT_EQ(f.store.lost_objects(), 1);
  expect_durable_accounting(f.store);
}

TEST(ErasureCoding, AtRiskFragmentSecondsIntegratesMissingFragments) {
  auto config = EcFixture::ec42();
  config.repair = false;  // keep the stripe degraded for the whole run
  EcFixture f(6, config);
  const ObjectKey key{"data", "obj"};
  f.store.preload(key, 4 * util::kMiB);
  const auto holders = f.store.locate(key);
  f.sim.at(util::seconds(1),
           [&] { f.store.conditions().set_down(holders[0], true); });
  f.sim.at(util::seconds(3),
           [&] { f.store.conditions().set_down(holders[1], true); });
  f.sim.at(util::seconds(4), [] {});
  f.sim.run();
  // 1 missing fragment over [1s, 3s) + 2 missing over [3s, 4s) = 4.
  EXPECT_NEAR(f.store.at_risk_fragment_seconds(), 4.0, 1e-6);
  EXPECT_NEAR(f.store.durability_stats().at_risk_fragment_seconds, 4.0, 1e-6);
}

TEST(ErasureCoding, RebuildRestoresFullRedundancy) {
  // 8 servers: after one crash the stripe has a live spare target, so
  // background repair rebuilds the dead fragment and a later GET is no
  // longer degraded.
  EcFixture f(8);
  const ObjectKey key{"data", "obj"};
  f.store.preload(key, 4 * util::kMiB);
  const auto holders = f.store.locate(key);
  f.store.conditions().set_down(holders[3], true);
  EXPECT_EQ(f.store.under_replicated_objects(), 1);
  f.sim.run();
  EXPECT_EQ(f.store.under_replicated_objects(), 0);
  EXPECT_EQ(f.store.metrics().counter("objects_repaired"), 1);
  GetResult result;
  f.store.get(0, key, [&](const GetResult& r) { result = r; });
  f.sim.run();
  EXPECT_TRUE(result.found);
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.parity_fragments_used, 0);
  expect_durable_accounting(f.store);
}

TEST(ErasureCoding, ThrottledRebuildPacesRepairTraffic) {
  auto run_rebuild = [](double cap_bytes_per_s) {
    auto config = EcFixture::ec42();
    config.rebuild_bandwidth_bytes_per_s = cap_bytes_per_s;
    config.repair_delay = util::millis(10);
    EcFixture f(8, config);
    for (int i = 0; i < 8; ++i) {
      f.store.preload({"data", "obj" + std::to_string(i)}, 4 * util::kMiB);
    }
    // One crash degrades several stripes at once: a rebuild storm.
    f.store.conditions().set_down(f.store.servers()[0], true);
    f.sim.run();
    expect_durable_accounting(f.store);
    return std::tuple{f.store.rebuild_throttle_wait_seconds(),
                      f.store.under_replicated_objects(), f.sim.now()};
  };
  const auto [unthrottled_wait, unthrottled_left, unthrottled_t] =
      run_rebuild(0);
  // 4 MiB/s admits one 4 MiB reconstruction (k fragments) every 4s.
  const auto [throttled_wait, throttled_left, throttled_t] =
      run_rebuild(4.0 * util::kMiB);
  EXPECT_EQ(unthrottled_wait, 0.0);
  EXPECT_GT(throttled_wait, 0.0);
  // Both fully restore redundancy; the throttled run just takes longer.
  EXPECT_EQ(unthrottled_left, 0);
  EXPECT_EQ(throttled_left, 0);
  EXPECT_GT(throttled_t, unthrottled_t);
}

TEST(ErasureCoding, RepairsRunRiskFirst) {
  // Two stripes degrade: "aa" loses 2 fragments (zero spares left),
  // "bb" loses 1 (one spare). With one repair slot the queue must serve
  // "aa" first even though "bb" degraded no later.
  auto config = EcFixture::ec42();
  config.repair_concurrency = 1;
  config.repair_delay = util::millis(50);
  config.scrub = true;
  config.scrub_interval = util::millis(5);
  EcFixture f(12, config, /*racks=*/4);
  trace::Tracer tracer(f.sim);
  f.store.set_tracer(&tracer);
  const ObjectKey risky{"data", "aa"};
  const ObjectKey mild{"data", "bb"};
  f.store.preload(risky, 4 * util::kMiB);
  f.store.preload(mild, 4 * util::kMiB);
  // Degrade per-object (not per-server): bit-rot that the scrubber
  // detects and drops, queueing both stripes for repair.
  ASSERT_TRUE(f.store.corrupt_replica(mild, f.store.locate(mild)[0]));
  ASSERT_TRUE(f.store.corrupt_replica(risky, f.store.locate(risky)[0]));
  ASSERT_TRUE(f.store.corrupt_replica(risky, f.store.locate(risky)[1]));
  f.sim.run();
  std::vector<std::string> repair_keys;
  for (const auto& span : tracer.spans()) {
    if (span.name != "store.repair") continue;
    for (const auto& [k, v] : span.attrs) {
      if (k == "key") repair_keys.push_back(v);
    }
  }
  ASSERT_EQ(repair_keys.size(), 3u);
  EXPECT_EQ(repair_keys[0], "data/aa");  // zero spares goes first
  EXPECT_EQ(f.store.under_replicated_objects(), 0);
  expect_durable_accounting(f.store);
}

}  // namespace
}  // namespace evolve::storage
