// Silent corruption and hedged reads: checksummed GETs never surface
// bit-rot, the scrubber repairs it in the background, and hedges win
// against slow replicas without leaking fabric flows.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/gray.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "util/types.hpp"

namespace evolve::storage {
namespace {

struct CorruptionFixture {
  explicit CorruptionFixture(ObjectStoreConfig config = {}, int storage = 3)
      : cluster(cluster::make_testbed(2, storage, 0)),
        topology(cluster),
        fabric(sim, topology),
        io(sim, cluster),
        store(sim, cluster, fabric, io,
              cluster.nodes_with_label("role=storage"), config) {
    store.create_bucket("b");
  }

  void put_objects(int count, util::Bytes size = util::kMiB) {
    for (int i = 0; i < count; ++i) {
      store.put(0, {"b", "obj" + std::to_string(i)}, size, [] {});
    }
    sim.run();
  }

  // Which storage servers hold a corrupted copy of `key`.
  std::set<cluster::NodeId> corrupted_holders(const ObjectKey& key) const {
    std::set<cluster::NodeId> out;
    for (auto server : store.servers()) {
      if (store.replica_corrupted(key, server)) out.insert(server);
    }
    return out;
  }

  sim::Simulation sim;
  cluster::Cluster cluster;
  net::Topology topology;
  net::Fabric fabric;
  IoSubsystem io;
  ObjectStore store;
};

ObjectStoreConfig full_replication() {
  ObjectStoreConfig config;
  config.replicas = 3;  // with 3 servers every server holds every object
  return config;
}

TEST(Corruption, CorruptReplicaValidatesHolder) {
  CorruptionFixture f(full_replication());
  f.put_objects(1);
  const ObjectKey key{"b", "obj0"};
  const auto servers = f.store.servers();
  EXPECT_TRUE(f.store.corrupt_replica(key, servers[0]));
  EXPECT_TRUE(f.store.replica_corrupted(key, servers[0]));
  EXPECT_FALSE(f.store.corrupt_replica({"b", "missing"}, servers[0]));
  // A compute node holds no replica.
  const auto compute = f.cluster.nodes_with_label("role=compute");
  EXPECT_FALSE(f.store.corrupt_replica(key, compute[0]));
  EXPECT_EQ(f.store.corrupted_replica_count(), 1);
}

TEST(Corruption, RandomCorruptionIsDeterministicPerSeed) {
  auto corrupted_set = [](std::uint64_t seed) {
    CorruptionFixture f;
    f.put_objects(12);
    f.store.corrupt_random_replicas(seed, 8);
    std::set<std::pair<std::string, cluster::NodeId>> out;
    for (int i = 0; i < 12; ++i) {
      const ObjectKey key{"b", "obj" + std::to_string(i)};
      for (auto server : f.corrupted_holders(key)) {
        out.emplace(key.name, server);
      }
    }
    return out;
  };
  const auto a = corrupted_set(7);
  EXPECT_EQ(a, corrupted_set(7));
  EXPECT_NE(a, corrupted_set(8));
  EXPECT_FALSE(a.empty());
}

TEST(Corruption, SpareLastCleanKeepsEveryObjectRecoverable) {
  CorruptionFixture f;  // default replicas = 2
  f.put_objects(10);
  // Ask for far more corruptions than replicas exist; the spare-last-
  // clean guard must leave every object at least one clean copy.
  f.store.corrupt_random_replicas(3, 1000);
  for (int i = 0; i < 10; ++i) {
    const ObjectKey key{"b", "obj" + std::to_string(i)};
    EXPECT_LE(f.corrupted_holders(key).size(), 1u) << key.name;
  }
}

TEST(Corruption, UncheckedReadsSurfaceCorruption) {
  CorruptionFixture f(full_replication());
  f.put_objects(1);
  const ObjectKey key{"b", "obj0"};
  for (auto server : f.store.servers()) f.store.corrupt_replica(key, server);
  GetResult result;
  f.store.get(0, key, [&](const GetResult& r) { result = r; });
  f.sim.run();
  EXPECT_TRUE(result.found);
  EXPECT_TRUE(result.corrupted);
  EXPECT_EQ(f.store.corrupted_reads_surfaced(), 1);
  EXPECT_EQ(f.store.checksum_failures(), 0);
}

TEST(Corruption, ChecksummedReadFailsOverToCleanReplica) {
  ObjectStoreConfig config = full_replication();
  config.checksum_reads = true;
  CorruptionFixture f(config);
  f.put_objects(1);
  const ObjectKey key{"b", "obj0"};
  // Probe which replica this client's GETs prefer, then rot exactly
  // that copy so the next read must detect and fail over.
  GetResult probe;
  f.store.get(0, key, [&](const GetResult& r) { probe = r; });
  f.sim.run();
  ASSERT_TRUE(probe.found);
  const cluster::NodeId rotten = probe.served_by;
  ASSERT_TRUE(f.store.corrupt_replica(key, rotten));

  GetResult result;
  f.store.get(0, key, [&](const GetResult& r) { result = r; });
  f.sim.run();
  EXPECT_TRUE(result.found);
  EXPECT_FALSE(result.corrupted);
  EXPECT_NE(result.served_by, rotten);
  EXPECT_EQ(f.store.checksum_failures(), 1);
  EXPECT_EQ(f.store.corrupted_reads_surfaced(), 0);
  // The checksum failure counts as replica loss: the rotten copy is
  // dropped and repair brings the object back to full replication.
  EXPECT_EQ(f.store.corrupted_replica_count(), 0);
  EXPECT_EQ(f.store.under_replicated_objects(), 0);
}

TEST(Corruption, AllReplicasRottenReportsNotFound) {
  ObjectStoreConfig config = full_replication();
  config.checksum_reads = true;
  CorruptionFixture f(config);
  f.put_objects(1);
  const ObjectKey key{"b", "obj0"};
  for (auto server : f.store.servers()) f.store.corrupt_replica(key, server);
  GetResult result;
  result.found = true;
  f.store.get(0, key, [&](const GetResult& r) { result = r; });
  f.sim.run();
  EXPECT_FALSE(result.found);
  EXPECT_FALSE(result.corrupted);
  EXPECT_EQ(f.store.corrupted_reads_surfaced(), 0);
  // One verification failure on the replica actually read; the failover
  // then knows every remaining copy is rotten and gives up rather than
  // simulating a pointless read of each.
  EXPECT_EQ(f.store.checksum_failures(), 1);
}

TEST(Corruption, ChecksummedBlockReadFailsOverToCleanReplica) {
  ObjectStoreConfig config = full_replication();
  config.checksum_reads = true;
  CorruptionFixture f(config);
  f.put_objects(1, 4 * util::kMiB);
  const ObjectKey key{"b", "obj0"};
  GetResult probe;
  f.store.read_block(0, key, 64 * util::kKiB,
                     [&](const GetResult& r) { probe = r; });
  f.sim.run();
  ASSERT_TRUE(probe.found);
  const cluster::NodeId rotten = probe.served_by;
  ASSERT_TRUE(f.store.corrupt_replica(key, rotten));

  GetResult result;
  f.store.read_block(0, key, 64 * util::kKiB,
                     [&](const GetResult& r) { result = r; });
  f.sim.run();
  EXPECT_TRUE(result.found);
  EXPECT_FALSE(result.corrupted);
  EXPECT_EQ(result.size, 64 * util::kKiB);
  EXPECT_NE(result.served_by, rotten);
  EXPECT_EQ(f.store.checksum_failures(), 1);
  EXPECT_EQ(f.store.corrupted_reads_surfaced(), 0);
  // The rotten copy is dropped and repaired like any checksum failure.
  EXPECT_EQ(f.store.corrupted_replica_count(), 0);
  EXPECT_EQ(f.store.under_replicated_objects(), 0);
  // Block reads keep their own latency histogram: the hedge delay is a
  // quantile of whole-object GETs only.
  EXPECT_EQ(f.store.metrics().histogram("block_read_latency_us").count(), 2);
  EXPECT_FALSE(f.store.metrics().has_histogram("get_latency_us"));
}

TEST(Corruption, BlockReadOfAllRottenReplicasReportsNotFound) {
  ObjectStoreConfig config = full_replication();
  config.checksum_reads = true;
  CorruptionFixture f(config);
  f.put_objects(1);
  const ObjectKey key{"b", "obj0"};
  for (auto server : f.store.servers()) f.store.corrupt_replica(key, server);
  GetResult result;
  result.found = true;
  f.store.read_block(0, key, 64 * util::kKiB,
                     [&](const GetResult& r) { result = r; });
  f.sim.run();
  EXPECT_FALSE(result.found);
  EXPECT_FALSE(result.corrupted);
  EXPECT_EQ(f.store.metrics().counter("get_unreadable"), 1);
  EXPECT_EQ(f.store.corrupted_reads_surfaced(), 0);
  EXPECT_EQ(f.store.checksum_failures(), 1);
}

TEST(Corruption, UncheckedBlockReadSurfacesCorruption) {
  CorruptionFixture f(full_replication());
  f.put_objects(1);
  const ObjectKey key{"b", "obj0"};
  for (auto server : f.store.servers()) f.store.corrupt_replica(key, server);
  GetResult result;
  f.store.read_block(0, key, 64 * util::kKiB,
                     [&](const GetResult& r) { result = r; });
  f.sim.run();
  EXPECT_TRUE(result.found);
  EXPECT_TRUE(result.corrupted);
  EXPECT_EQ(f.store.corrupted_reads_surfaced(), 1);
  EXPECT_EQ(f.store.checksum_failures(), 0);
}

TEST(Corruption, ScrubberRepairsAllRotAndDrains) {
  ObjectStoreConfig config;
  config.replicas = 2;
  config.checksum_reads = true;
  config.scrub = true;
  config.scrub_interval = util::millis(100);
  CorruptionFixture f(config);
  f.put_objects(8, 4 * util::kMiB);
  const int corrupted = f.store.corrupt_random_replicas(11, 6);
  ASSERT_GT(corrupted, 0);
  EXPECT_EQ(f.store.corrupted_replica_count(), corrupted);
  f.sim.run();  // the scrubber must let the sim drain once rot is gone
  EXPECT_EQ(f.store.corrupted_replica_count(), 0);
  EXPECT_EQ(f.store.replicas_scrubbed(), corrupted);
  EXPECT_EQ(f.store.under_replicated_objects(), 0);
  EXPECT_EQ(f.store.lost_objects(), 0);
  // No GET ever ran: scrubbing alone found and repaired the rot.
  EXPECT_EQ(f.store.corrupted_reads_surfaced(), 0);
}

TEST(HedgedReads, AccountingBalancesAndFlowsDrain) {
  ObjectStoreConfig config;
  config.replicas = 2;
  config.hedged_reads = true;
  config.hedge_min_delay = util::millis(1);
  CorruptionFixture f(config);
  f.put_objects(6, 4 * util::kMiB);
  int completed = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 6; ++i) {
      f.sim.after(util::millis(5) * round, [&f, &completed, i] {
        f.store.get(1, {"b", "obj" + std::to_string(i)},
                    [&](const GetResult& r) {
                      EXPECT_TRUE(r.found);
                      EXPECT_FALSE(r.corrupted);
                      ++completed;
                    });
      });
    }
  }
  f.sim.run();
  EXPECT_EQ(completed, 24);
  EXPECT_GT(f.store.hedges_launched(), 0);
  // Every decided race cancels exactly its losing branch.
  EXPECT_EQ(f.store.hedges_cancelled(), f.store.hedges_launched());
  // Cancelled hedge branches must not leak in-flight fabric flows.
  EXPECT_EQ(f.fabric.stats().flows_in_flight, 0);
}

TEST(HedgedReads, HedgeWinsAgainstDegradedPrimary) {
  ObjectStoreConfig config;
  config.replicas = 2;
  config.hedged_reads = true;
  config.hedge_min_delay = util::millis(1);
  CorruptionFixture f(config, /*storage=*/4);
  fault::GrayInjector gray(f.sim);
  fault::connect(gray, f.fabric);
  f.put_objects(8, 8 * util::kMiB);
  // Starve one storage server's NIC; hedges re-route GETs whose primary
  // sits behind it.
  fault::NicDegradation nic;
  nic.bandwidth_factor = 0.05;
  gray.schedule_nic_degradation(f.store.servers()[0], nic, f.sim.now(),
                                util::seconds(120));
  int completed = 0;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 8; ++i) {
      f.sim.after(util::millis(3) * round, [&f, &completed, i] {
        f.store.get(0, {"b", "obj" + std::to_string(i)},
                    [&](const GetResult& r) {
                      EXPECT_TRUE(r.found);
                      ++completed;
                    });
      });
    }
  }
  f.sim.run_until(util::seconds(120));
  EXPECT_EQ(completed, 64);
  EXPECT_GT(f.store.hedge_wins(), 0);
  EXPECT_GT(f.store.hedge_wasted_bytes(), 0);
  EXPECT_EQ(f.fabric.stats().flows_in_flight, 0);
  f.sim.run();
}

TEST(Corruption, OverwriteForgetsStaleRot) {
  CorruptionFixture f(full_replication());
  f.put_objects(1);
  const ObjectKey key{"b", "obj0"};
  f.store.corrupt_replica(key, f.store.servers()[0]);
  ASSERT_EQ(f.store.corrupted_replica_count(), 1);
  f.store.put(0, key, 2 * util::kMiB, [] {});  // fresh bytes overwrite rot
  f.sim.run();
  EXPECT_EQ(f.store.corrupted_replica_count(), 0);
  f.store.corrupt_replica(key, f.store.servers()[0]);
  f.store.remove(0, key, [] {});
  f.sim.run();
  EXPECT_EQ(f.store.corrupted_replica_count(), 0);
}

}  // namespace
}  // namespace evolve::storage
