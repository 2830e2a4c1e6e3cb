#include "storage/object_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "store_accounting.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"

namespace evolve::storage {
namespace {

struct StoreFixture {
  explicit StoreFixture(int compute = 2, int storage = 3,
                        ObjectStoreConfig config = {})
      : cluster(cluster::make_testbed(compute, storage, 0)),
        topology(cluster),
        fabric(sim, topology),
        io(sim, cluster),
        store(sim, cluster, fabric, io,
              cluster.nodes_with_label("role=storage"), config) {
    store.create_bucket("data");
  }

  sim::Simulation sim;
  cluster::Cluster cluster;
  net::Topology topology;
  net::Fabric fabric;
  IoSubsystem io;
  ObjectStore store;
};

TEST(ObjectStore, RequiresServers) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(1, 1, 0);
  net::Topology topo(cluster);
  net::Fabric fabric(sim, topo);
  IoSubsystem io(sim, cluster);
  EXPECT_THROW(ObjectStore(sim, cluster, fabric, io, {}),
               std::invalid_argument);
}

TEST(ObjectStore, PutThenGetRoundTrips) {
  StoreFixture f;
  const ObjectKey key{"data", "obj1"};
  bool put_done = false;
  f.store.put(0, key, util::kMiB, [&] { put_done = true; });
  f.sim.run();
  ASSERT_TRUE(put_done);
  EXPECT_TRUE(f.store.exists(key));
  EXPECT_EQ(f.store.object_size(key), util::kMiB);

  GetResult result;
  f.store.get(0, key, [&](const GetResult& r) { result = r; });
  f.sim.run();
  EXPECT_TRUE(result.found);
  EXPECT_EQ(result.size, util::kMiB);
  EXPECT_NE(result.served_by, cluster::kInvalidNode);
  expect_durable_accounting(f.store);
}

TEST(ObjectStore, PutRequiresBucket) {
  StoreFixture f;
  EXPECT_THROW(f.store.put(0, ObjectKey{"nope", "x"}, 1, [] {}),
               std::invalid_argument);
}

TEST(ObjectStore, GetMissingObjectReportsNotFound) {
  StoreFixture f;
  GetResult result;
  result.found = true;
  f.store.get(0, ObjectKey{"data", "ghost"}, [&](const GetResult& r) {
    result = r;
  });
  f.sim.run();
  EXPECT_FALSE(result.found);
  EXPECT_EQ(f.store.metrics().counter("get_misses"), 1);
}

TEST(ObjectStore, ReplicationPlacesOnDistinctServers) {
  StoreFixture f;
  const ObjectKey key{"data", "replicated"};
  const auto replicas = f.store.locate(key);
  ASSERT_EQ(replicas.size(), 2u);
  EXPECT_NE(replicas[0], replicas[1]);
}

TEST(ObjectStore, LocateIsDeterministic) {
  StoreFixture f;
  const ObjectKey key{"data", "stable"};
  EXPECT_EQ(f.store.locate(key), f.store.locate(key));
}

TEST(ObjectStore, DurableBytesTrackedOnAllReplicas) {
  StoreFixture f;
  const ObjectKey key{"data", "acct"};
  f.store.put(0, key, 1000, [] {});
  f.sim.run();
  const auto replicas = f.store.locate(key);
  for (auto r : replicas) EXPECT_EQ(f.store.durable_bytes(r), 1000);
  util::Bytes elsewhere = 0;
  for (auto s : f.store.servers()) {
    if (s != replicas[0] && s != replicas[1]) {
      elsewhere += f.store.durable_bytes(s);
    }
  }
  EXPECT_EQ(elsewhere, 0);
  expect_durable_accounting(f.store);
}

TEST(ObjectStore, OverwriteReclaimsOldBytes) {
  StoreFixture f;
  const ObjectKey key{"data", "rewrite"};
  f.store.put(0, key, 1000, [] {});
  f.sim.run();
  f.store.put(0, key, 500, [] {});
  f.sim.run();
  for (auto r : f.store.locate(key)) {
    EXPECT_EQ(f.store.durable_bytes(r), 500);
  }
  expect_durable_accounting(f.store);
}

TEST(ObjectStore, RemoveFreesSpaceAndMetadata) {
  StoreFixture f;
  const ObjectKey key{"data", "temp"};
  f.store.put(0, key, 1000, [] {});
  f.sim.run();
  bool removed = false;
  f.store.remove(0, key, [&] { removed = true; });
  f.sim.run();
  EXPECT_TRUE(removed);
  EXPECT_FALSE(f.store.exists(key));
  for (auto s : f.store.servers()) EXPECT_EQ(f.store.durable_bytes(s), 0);
  expect_durable_accounting(f.store);
}

TEST(ObjectStore, ListFiltersByBucketAndPrefix) {
  StoreFixture f;
  f.store.create_bucket("other");
  f.store.preload(ObjectKey{"data", "a/1"}, 10);
  f.store.preload(ObjectKey{"data", "a/2"}, 10);
  f.store.preload(ObjectKey{"data", "b/1"}, 10);
  f.store.preload(ObjectKey{"other", "a/9"}, 10);
  EXPECT_EQ(f.store.list("data").size(), 3u);
  EXPECT_EQ(f.store.list("data", "a/").size(), 2u);
  EXPECT_EQ(f.store.list("other").size(), 1u);
  EXPECT_TRUE(f.store.list("missing").empty());
}

TEST(ObjectStore, SecondGetHitsFasterTier) {
  StoreFixture f;
  const ObjectKey key{"data", "hot"};
  f.store.preload(key, util::kMiB, /*warm_cache=*/false);
  GetResult first, second;
  f.store.get(0, key, [&](const GetResult& r) { first = r; });
  f.sim.run();
  f.store.get(0, key, [&](const GetResult& r) { second = r; });
  f.sim.run();
  EXPECT_EQ(first.tier, "hdd");   // cold read from durable home
  EXPECT_EQ(second.tier, "dram");  // admitted on first read
}

TEST(ObjectStore, WarmPreloadServesFromDram) {
  StoreFixture f;
  const ObjectKey key{"data", "warm"};
  f.store.preload(key, util::kMiB, /*warm_cache=*/true);
  GetResult result;
  f.store.get(0, key, [&](const GetResult& r) { result = r; });
  f.sim.run();
  EXPECT_EQ(result.tier, "dram");
}

TEST(ObjectStore, LargerObjectsTakeLonger) {
  StoreFixture f;
  f.store.preload(ObjectKey{"data", "small"}, 64 * util::kKiB);
  f.store.preload(ObjectKey{"data", "large"}, 256 * util::kMiB);
  util::TimeNs t_small = 0, t_large = 0;
  const util::TimeNs start = f.sim.now();
  f.store.get(0, ObjectKey{"data", "small"},
              [&](const GetResult&) { t_small = f.sim.now() - start; });
  f.sim.run();
  const util::TimeNs start2 = f.sim.now();
  f.store.get(0, ObjectKey{"data", "large"},
              [&](const GetResult&) { t_large = f.sim.now() - start2; });
  f.sim.run();
  EXPECT_GT(t_large, 10 * t_small);
}

TEST(ObjectStore, GetLatencyRecorded) {
  StoreFixture f;
  f.store.preload(ObjectKey{"data", "m"}, util::kMiB);
  f.store.get(0, ObjectKey{"data", "m"}, [](const GetResult&) {});
  f.sim.run();
  EXPECT_EQ(f.store.metrics().histogram("get_latency_us").count(), 1);
  EXPECT_GT(f.store.metrics().histogram("get_latency_us").max(), 0);
}

TEST(ObjectStore, PreloadRejectsDuplicates) {
  StoreFixture f;
  f.store.preload(ObjectKey{"data", "dup"}, 1);
  EXPECT_THROW(f.store.preload(ObjectKey{"data", "dup"}, 1),
               std::invalid_argument);
}

TEST(ObjectStore, ReplicaChoicePrefersLocalServer) {
  StoreFixture f;
  // Find an object whose replica set contains a specific server, then GET
  // from that very node; it must serve locally.
  for (int i = 0; i < 32; ++i) {
    const ObjectKey key{"data", "probe" + std::to_string(i)};
    f.store.preload(key, 1000);
    const auto replicas = f.store.locate(key);
    GetResult result;
    f.store.get(replicas[1], key, [&](const GetResult& r) { result = r; });
    f.sim.run();
    EXPECT_EQ(result.served_by, replicas[1]);
  }
}

// Placement balance: many objects spread roughly evenly over servers.
TEST(ObjectStore, PlacementIsBalanced) {
  StoreFixture f(2, 5);
  std::map<cluster::NodeId, int> primary_count;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    const auto replicas =
        f.store.locate(ObjectKey{"data", "obj" + std::to_string(i)});
    ++primary_count[replicas[0]];
  }
  for (auto server : f.store.servers()) {
    EXPECT_GT(primary_count[server], n / 5 / 2) << "server " << server;
    EXPECT_LT(primary_count[server], n / 5 * 2) << "server " << server;
  }
}

TEST(ObjectStore, ReadBlockReadsOnlyTheBlock) {
  StoreFixture f;
  const ObjectKey key{"data", "gen0"};
  f.store.preload(key, 64 * util::kMiB);

  GetResult r;
  f.store.read_block(0, key, 16 * util::kKiB, [&](const GetResult& g) {
    r = g;
  });
  f.sim.run();
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.size, 16 * util::kKiB);  // the block, not the object
  EXPECT_NE(r.served_by, cluster::kInvalidNode);
  EXPECT_EQ(f.store.metrics().counter("block_read_requests"), 1);
}

TEST(ObjectStore, ReadBlockMissingObjectNotFound) {
  StoreFixture f;
  GetResult r;
  r.found = true;
  f.store.read_block(0, ObjectKey{"data", "ghost"}, 4 * util::kKiB,
                     [&](const GetResult& g) { r = g; });
  f.sim.run();
  EXPECT_FALSE(r.found);
}

TEST(ObjectStore, ReadBlockClampsToObjectSize) {
  StoreFixture f;
  const ObjectKey key{"data", "tiny"};
  f.store.preload(key, 512);
  GetResult r;
  f.store.read_block(0, key, 16 * util::kKiB, [&](const GetResult& g) {
    r = g;
  });
  f.sim.run();
  EXPECT_TRUE(r.found);
  EXPECT_EQ(r.size, 512);
}

// -- Repair queue: entries follow their object ---------------------------

ObjectStoreConfig three_replicas() {
  ObjectStoreConfig config;
  config.replicas = 3;
  return config;
}

// `key` (8 MiB, three replicas on four servers) loses two holders at
// t=1 s, which queues it for repair with one copy left and arms a pump
// for t=1.5 s. `mutate` runs at 1.1 s, while the entry is queued. At
// 1.3 s the first lost holder recovers, which pumps the queue; it is
// then the only live server with no copy, so every repair targets it.
// Returns that server.
cluster::NodeId run_queued_repair(StoreFixture& f, const ObjectKey& key,
                                  const std::function<void()>& mutate) {
  f.store.preload(key, 8 * util::kMiB);
  const auto holders = f.store.locate(key);
  f.sim.at(util::seconds(1), [&] {
    f.store.conditions().set_down(holders[0], true);
    f.store.conditions().set_down(holders[1], true);
  });
  f.sim.at(util::millis(1100), mutate);
  f.sim.at(util::millis(1300),
           [&] { f.store.conditions().set_down(holders[0], false); });
  f.sim.run();
  return holders[0];
}

void expect_single_repair_of_new_object(StoreFixture& f,
                                        const ObjectKey& key,
                                        cluster::NodeId revived) {
  EXPECT_EQ(f.store.metrics().counter("repairs_started"), 1);
  EXPECT_EQ(f.store.metrics().counter("objects_repaired"), 1);
  EXPECT_EQ(f.store.metrics().counter("repairs_abandoned"), 0);
  EXPECT_EQ(f.store.under_replicated_objects(), 0);
  EXPECT_EQ(f.store.object_size(key), 2 * util::kMiB);
  // The rebuilt copy is the new 2 MiB object, on the one server outside
  // the new replica set.
  EXPECT_EQ(f.store.durable_bytes(revived), 2 * util::kMiB);
  expect_durable_accounting(f.store);
}

TEST(ObjectStore, QueuedRepairOfDeletedObjectIsDropped) {
  StoreFixture f(2, 4, three_replicas());
  const ObjectKey key{"data", "obj"};
  const auto revived = run_queued_repair(
      f, key, [&] { f.store.remove(0, key, [] {}); });
  EXPECT_FALSE(f.store.exists(key));
  EXPECT_EQ(f.store.metrics().counter("repairs_started"), 0);
  EXPECT_EQ(f.store.under_replicated_objects(), 0);
  EXPECT_EQ(f.store.durable_bytes(revived), 0);
  expect_durable_accounting(f.store);
}

TEST(ObjectStore, QueuedRepairFollowsDeleteAndDegradedReput) {
  StoreFixture f(2, 4, three_replicas());
  const ObjectKey key{"data", "obj"};
  const auto revived = run_queued_repair(f, key, [&] {
    f.store.remove(0, key, [&] {
      // Two live servers: the new object is born degraded.
      f.store.put(0, key, 2 * util::kMiB, [] {});
    });
  });
  expect_single_repair_of_new_object(f, key, revived);
}

TEST(ObjectStore, QueuedRepairFollowsOverwrite) {
  StoreFixture f(2, 4, three_replicas());
  const ObjectKey key{"data", "obj"};
  const auto revived = run_queued_repair(
      f, key, [&] { f.store.put(0, key, 2 * util::kMiB, [] {}); });
  expect_single_repair_of_new_object(f, key, revived);
}

// -- Repair order ---------------------------------------------------------

/// (start, key) of every store.repair span, in the order they began.
std::vector<std::pair<util::TimeNs, std::string>> repair_starts(
    const trace::Tracer& tracer) {
  std::vector<std::pair<util::TimeNs, std::string>> out;
  for (const trace::Span& span : tracer.spans()) {
    if (span.name != "store.repair") continue;
    for (const auto& [name, value] : span.attrs) {
      if (name == "key") out.emplace_back(span.start, value);
    }
  }
  return out;
}

TEST(ObjectStore, EqualSparesRepairInFullStringOrder) {
  // EC(2,1) on four servers: both stripes lose one fragment to the same
  // crash, so both are left with zero spare fragments. Ties break in
  // full() order: "a-b/x" < "a/x" because '-' < '/', although a
  // (bucket, name) tuple order would put bucket "a" first.
  ObjectStoreConfig config;
  config.redundancy = Redundancy::kErasure;
  config.ec_data = 2;
  config.ec_parity = 1;
  config.repair_concurrency = 1;
  StoreFixture f(2, 4, config);
  trace::Tracer tracer(f.sim);
  f.store.set_tracer(&tracer);
  const ObjectKey dashed{"a-b", "x"};
  const ObjectKey plain{"a", "x"};
  f.store.preload(plain, util::kMiB);
  f.store.preload(dashed, util::kMiB);
  const auto dashed_holders = f.store.locate(dashed);
  cluster::NodeId shared = cluster::kInvalidNode;
  for (cluster::NodeId node : f.store.locate(plain)) {
    if (std::find(dashed_holders.begin(), dashed_holders.end(), node) !=
        dashed_holders.end()) {
      shared = node;
      break;
    }
  }
  ASSERT_NE(shared, cluster::kInvalidNode);
  f.sim.at(util::millis(10),
           [&] { f.store.conditions().set_down(shared, true); });
  f.sim.run();

  const auto starts = repair_starts(tracer);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_EQ(starts[0].second, "a-b/x");
  EXPECT_EQ(starts[1].second, "a/x");
  EXPECT_LT(starts[0].first, starts[1].first);
  EXPECT_EQ(f.store.under_replicated_objects(), 0);
  expect_durable_accounting(f.store);
}

/// FNV-1a over every store.repair span's (start, key) in the order the
/// repairs began, from a run of run_repair_schedule() below with
/// EC(4,2). Recorded before the repair queue was indexed by (live
/// copies, key); any change to which object repairs next, or when,
/// moves it.
constexpr std::uint64_t kPinnedRepairDigest = 8602177899649402411ULL;
/// The same with three-way replication, recorded before replicated and
/// erasure-coded repair shared one source-selection loop.
constexpr std::uint64_t kPinnedReplicatedRepairDigest =
    10150902963871289560ULL;

// Staggered crashes of two servers and one recovery over 8 servers on 4
// racks, 300 objects in two buckets whose names interleave in full()
// order. Scrubbed bit-rot first, then the crashes, with overwrites and
// removes of queued keys in between. Jittered repair delays make every
// enqueue a seeded draw, so one extra or missing enqueue (an index that
// dropped stale entries eagerly would add some) shifts every later
// repair start.
struct RepairSchedule {
  std::uint64_t digest = 0;  // of every repair's (start, key)
  std::size_t repairs = 0;
  util::TimeNs last_start = 0;
};

RepairSchedule run_repair_schedule(ObjectStoreConfig config) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(2, 8, 0, /*racks=*/4);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  IoSubsystem io(sim, cluster);
  config.repair_concurrency = 2;
  config.repair_delay = util::millis(30);
  config.repair_jitter = 0.5;
  config.repair_seed = 7;
  config.scrub = true;
  config.scrub_interval = util::millis(20);
  ObjectStore store(sim, cluster, fabric, io,
                    cluster.nodes_with_label("role=storage"), config);
  trace::Tracer tracer(sim);
  store.set_tracer(&tracer);
  constexpr int kObjects = 300;
  const auto key = [](int i) {
    return ObjectKey{i % 2 == 0 ? "b" : "b-x", "obj-" + std::to_string(i)};
  };
  for (int i = 0; i < kObjects; ++i) {
    store.preload(key(i), (256 + 64 * (i % 7)) * util::kKiB);
  }
  const cluster::NodeId client = cluster.nodes_with_label("role=compute")[0];
  const auto& servers = store.servers();

  sim.at(util::millis(5), [&] {
    EXPECT_EQ(store.corrupt_random_replicas(/*seed=*/3, 40), 40);
  });
  sim.at(util::millis(100),
         [&] { store.conditions().set_down(servers[0], true); });
  // Overwritten objects are born full on the seven live servers, so
  // their queued entries go stale; the crash in the same instant degrades
  // most of them again before any pump can drop the entries.
  sim.at(util::millis(130), [&] {
    for (int i = 0; i < kObjects; i += 7) {
      store.put(client, key(i), 128 * util::kKiB, [] {});
    }
    store.conditions().set_down(servers[3], true);
  });
  sim.at(util::millis(140), [&] {
    for (int i = 3; i < kObjects; i += 11) store.remove(client, key(i), [] {});
  });
  sim.at(util::millis(320), [&] {
    for (int i = 5; i < kObjects; i += 13) {
      if (i % 7 == 0) continue;
      store.put(client, key(i), 192 * util::kKiB, [] {});
    }
    for (int i = 1; i < kObjects; i += 17) store.remove(client, key(i), [] {});
  });
  sim.at(util::millis(600),
         [&] { store.conditions().set_down(servers[0], false); });
  // Late bit-rot, once the crash waves have drained: these few repairs
  // start on their jittered pump, so they show every earlier draw.
  for (int wave = 0; wave < 4; ++wave) {
    sim.at(util::seconds(5 + wave), [&store, wave] {
      EXPECT_EQ(store.corrupt_random_replicas(/*seed=*/11 + wave, 3), 3);
    });
  }
  sim.run();

  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto mix = [&digest](unsigned char byte) {
    digest ^= byte;
    digest *= 0x100000001b3ULL;
  };
  const auto starts = repair_starts(tracer);
  for (const auto& [start, name] : starts) {
    for (int i = 0; i < 8; ++i) {
      mix(static_cast<unsigned char>(static_cast<std::uint64_t>(start) >>
                                     (8 * i)));
    }
    for (unsigned char c : name) mix(c);
    mix(0);
  }
  EXPECT_EQ(store.under_replicated_objects(), 0);
  EXPECT_EQ(store.corrupted_replica_count(), 0);
  expect_durable_accounting(store);
  return {digest, starts.size(), starts.empty() ? 0 : starts.back().first};
}

TEST(ObjectStore, RepairScheduleDigestIsPinned) {
  ObjectStoreConfig config;
  config.redundancy = Redundancy::kErasure;
  config.ec_data = 4;
  config.ec_parity = 2;
  const RepairSchedule run = run_repair_schedule(config);
  EXPECT_GT(run.repairs, 250u);
  EXPECT_EQ(run.digest, kPinnedRepairDigest)
      << run.repairs << " repairs, the last at " << run.last_start;
}

TEST(ObjectStore, ReplicatedRepairScheduleDigestIsPinned) {
  ObjectStoreConfig config;
  config.replicas = 3;
  const RepairSchedule run = run_repair_schedule(config);
  EXPECT_GT(run.repairs, 150u);
  EXPECT_EQ(run.digest, kPinnedReplicatedRepairDigest)
      << run.repairs << " repairs, the last at " << run.last_start;
}

// -- ObjectKey order ------------------------------------------------------

bool full_less(const ObjectKey& a, const ObjectKey& b) {
  return a.full() < b.full();
}

TEST(ObjectKey, OrderMatchesFullString) {
  const std::string high(1, static_cast<char>(0xC3));
  const std::vector<std::pair<ObjectKey, ObjectKey>> pairs = {
      {{"a", "x"}, {"a-b", "x"}},       // next bucket byte below '/'
      {{"a", "x"}, {"a0", "x"}},        // next bucket byte above '/'
      {{"a", "x"}, {"a/", "x"}},        // next bucket byte is '/'
      {{"", "x"}, {"a", "x"}},          // empty bucket
      {{"a", ""}, {"a", "x"}},          // empty name
      {{"", ""}, {"", "/"}},            // both empty
      {{"a" + high, "x"}, {"a", "x"}},  // high-bit byte against '/'
      {{"a", high}, {"a", "/"}},
      {{"a", "b/c"}, {"a/b", "c"}},     // same full(): equivalent
  };
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(a < b, full_less(a, b)) << a.full() << " < " << b.full();
    EXPECT_EQ(b < a, full_less(b, a)) << b.full() << " < " << a.full();
  }
  const ObjectKey early_split{"a", "b/c"};
  const ObjectKey late_split{"a/b", "c"};
  EXPECT_FALSE(early_split < late_split);
  EXPECT_FALSE(late_split < early_split);

  // Random pairs over an alphabet around '/', short enough to collide.
  const std::string alphabet = "a/-0" + high;
  util::Rng rng(11);
  const auto random_string = [&] {
    std::string out;
    for (auto len = rng.uniform_int(0, 3); len > 0; --len) {
      out += alphabet[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
    }
    return out;
  };
  std::vector<ObjectKey> keys;
  for (int i = 0; i < 10000; ++i) {
    const ObjectKey a{random_string(), random_string()};
    const ObjectKey b{random_string(), random_string()};
    ASSERT_EQ(a < b, full_less(a, b)) << a.full() << " < " << b.full();
    keys.push_back(a);
  }

  // A map keyed by ObjectKey iterates in full() order, one entry per
  // distinct full().
  std::map<ObjectKey, int> map;
  std::map<std::string, int> by_full;
  for (const ObjectKey& key : keys) {
    map.emplace(key, 0);
    by_full.emplace(key.full(), 0);
  }
  ASSERT_EQ(map.size(), by_full.size());
  auto full_it = by_full.begin();
  for (const auto& [key, unused] : map) {
    EXPECT_EQ(key.full(), full_it->first);
    ++full_it;
  }
}

TEST(ObjectKey, EqualityAndHashFollowFullString) {
  const ObjectKey early_split{"a", "b/c"};
  const ObjectKey late_split{"a/b", "c"};
  EXPECT_EQ(early_split, late_split);
  EXPECT_EQ(ObjectKeyHash{}(early_split), ObjectKeyHash{}(late_split));
  EXPECT_NE((ObjectKey{"a", "x"}), (ObjectKey{"a-b", "x"}));

  // FNV-1a of full(), computed over the string itself.
  const auto fnv = [](const std::string& text) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    return h;
  };
  const std::string alphabet = "a/-0" + std::string(1, static_cast<char>(0xC3));
  util::Rng rng(12);
  const auto random_string = [&] {
    std::string out;
    for (auto len = rng.uniform_int(0, 3); len > 0; --len) {
      out += alphabet[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
    }
    return out;
  };
  for (int i = 0; i < 10000; ++i) {
    const ObjectKey a{random_string(), random_string()};
    const ObjectKey b{random_string(), random_string()};
    ASSERT_EQ(a == b, a.full() == b.full()) << a.full() << " == " << b.full();
    ASSERT_EQ(a.fnv1a(), fnv(a.full())) << a.full();
  }
}

}  // namespace
}  // namespace evolve::storage
