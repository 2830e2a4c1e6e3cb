#include "tablet/service.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "storage/io_model.hpp"
#include "storage/object_store.hpp"
#include "tablet/balancer.hpp"
#include "tablet/shard_map.hpp"
#include "trace/tracer.hpp"

namespace evolve::tablet {
namespace {

// -- ShardMap -----------------------------------------------------------

TEST(ShardMap, SplitMergeMoveBumpEpoch) {
  ShardMap map(1000, 0);
  EXPECT_EQ(map.epoch(), 1);
  EXPECT_EQ(map.shard_count(), 1);
  EXPECT_EQ(map.shard_for(0).id, map.shard_for(999).id);

  const ShardId right = map.split(map.shard_for(0).id, 500);
  EXPECT_EQ(map.epoch(), 2);
  EXPECT_EQ(map.shard_count(), 2);
  EXPECT_EQ(map.shard_for(499).end, 500u);
  EXPECT_EQ(map.shard_for(500).id, right);
  EXPECT_EQ(map.shard_for(4000).id, right);  // keys clamp into the space

  map.move(right, 3);
  EXPECT_EQ(map.epoch(), 3);
  EXPECT_EQ(map.shard(right).node, 3);

  const ShardId left = map.shard_for(0).id;
  EXPECT_EQ(map.right_neighbor(left), right);
  map.merge(left, right);
  EXPECT_EQ(map.epoch(), 4);
  EXPECT_EQ(map.shard_count(), 1);
  EXPECT_EQ(map.shard_for(999).id, left);
  EXPECT_FALSE(map.has_shard(right));
}

TEST(ShardMap, RejectsBadSplitAndNonAdjacentMerge) {
  ShardMap map(100, 0);
  const ShardId root = map.shard_for(0).id;
  EXPECT_THROW(map.split(root, 0), std::invalid_argument);
  EXPECT_THROW(map.split(root, 100), std::invalid_argument);
  const ShardId b = map.split(root, 30);
  const ShardId c = map.split(b, 60);
  EXPECT_THROW(map.merge(root, c), std::invalid_argument);  // skips b
}

// -- Service fixture ----------------------------------------------------

struct TabletFixture {
  explicit TabletFixture(TabletConfig config = make_config(),
                         int compute = 3, int storage = 3)
      : cluster(cluster::make_testbed(compute, storage, 0)),
        topology(cluster),
        fabric(sim, topology),
        io(sim, cluster),
        store(sim, cluster, fabric, io,
              cluster.nodes_with_label("role=storage")),
        tablet_nodes(cluster.nodes_with_label("role=compute")),
        service(sim, fabric, store, tablet_nodes, config) {}

  static TabletConfig make_config() {
    TabletConfig config;
    config.keyspace = 1000;
    config.flush_age = 0;  // tests arm the age trigger explicitly
    return config;
  }

  sim::Simulation sim;
  cluster::Cluster cluster;
  net::Topology topology;
  net::Fabric fabric;
  storage::IoSubsystem io;
  storage::ObjectStore store;
  std::vector<cluster::NodeId> tablet_nodes;
  TabletService service;
};

TEST(TabletService, InitialShardsSpreadRoundRobin) {
  TabletConfig config = TabletFixture::make_config();
  config.initial_shards = 6;
  TabletFixture f(config);
  EXPECT_EQ(f.service.shard_map().shard_count(), 6);
  for (cluster::NodeId n : f.tablet_nodes) {
    EXPECT_EQ(f.service.shard_map().shards_on(n).size(), 2u);
  }
}

TEST(TabletService, WriteThenReadHitsMemtable) {
  TabletFixture f;
  const cluster::NodeId owner = f.service.shard_map().shard_for(42).node;
  OpResult wr, rd;
  f.service.submit(owner, OpKind::kWrite, 42, f.tablet_nodes[1],
                   [&](OpResult r) { wr = r; });
  f.sim.run();
  EXPECT_EQ(wr.status, OpStatus::kOk);
  EXPECT_GT(wr.seq, 0);
  EXPECT_EQ(f.service.wal_commits(), 1);
  EXPECT_EQ(f.service.applied_writes(), 1);

  f.service.submit(owner, OpKind::kRead, 42, f.tablet_nodes[1],
                   [&](OpResult r) { rd = r; });
  f.sim.run();
  EXPECT_EQ(rd.status, OpStatus::kOk);
  EXPECT_TRUE(rd.from_memtable);
  EXPECT_EQ(f.service.memtable_hits(), 1);
}

TEST(TabletService, ReadOfUnwrittenKeyIsNotFound) {
  TabletFixture f;
  const cluster::NodeId owner = f.service.shard_map().shard_for(7).node;
  OpResult rd;
  f.service.submit(owner, OpKind::kRead, 7, f.tablet_nodes[0],
                   [&](OpResult r) { rd = r; });
  f.sim.run();
  EXPECT_EQ(rd.status, OpStatus::kNotFound);
}

TEST(TabletService, WrongNodeAnswersWrongShard) {
  TabletConfig config = TabletFixture::make_config();
  config.initial_shards = 3;
  TabletFixture f(config);
  const cluster::NodeId owner = f.service.shard_map().shard_for(10).node;
  cluster::NodeId wrong = cluster::kInvalidNode;
  for (cluster::NodeId n : f.tablet_nodes) {
    if (n != owner) wrong = n;
  }
  OpResult r;
  f.service.submit(wrong, OpKind::kWrite, 10, f.tablet_nodes[0],
                   [&](OpResult res) { r = res; });
  f.sim.run();
  EXPECT_EQ(r.status, OpStatus::kWrongShard);
  EXPECT_EQ(f.service.wrong_shard(), 1);
  EXPECT_EQ(f.service.applied_writes(), 0);
}

TEST(TabletService, SizeTriggeredFlushCreatesGeneration) {
  TabletConfig config = TabletFixture::make_config();
  config.flush_bytes = 4 * kValueBytes;
  config.flush_age = 0;  // size trigger only
  TabletFixture f(config);
  const cluster::NodeId owner = f.service.shard_map().shard_for(0).node;
  int done = 0;
  for (std::uint64_t k = 0; k < 8; ++k) {
    f.service.submit(owner, OpKind::kWrite, k, f.tablet_nodes[1],
                     [&](OpResult) { ++done; });
  }
  f.sim.run();
  EXPECT_EQ(done, 8);
  EXPECT_GE(f.service.flushes(), 1);
  // A key flushed out of the memtable now pays a store block read.
  OpResult rd;
  f.service.submit(owner, OpKind::kRead, 0, f.tablet_nodes[1],
                   [&](OpResult r) { rd = r; });
  f.sim.run();
  EXPECT_EQ(rd.status, OpStatus::kOk);
}

TEST(TabletService, AgeTriggeredFlushFires) {
  TabletConfig config = TabletFixture::make_config();
  config.flush_age = util::millis(50);
  TabletFixture f(config);
  const cluster::NodeId owner = f.service.shard_map().shard_for(5).node;
  f.service.submit(owner, OpKind::kWrite, 5, f.tablet_nodes[1],
                   [](OpResult) {});
  f.sim.run();
  EXPECT_EQ(f.service.flushes(), 1);
  EXPECT_EQ(f.store.metrics().counter("put_requests"), 2);  // WAL + gen
}

TEST(TabletService, SplitPartitionsStateAndMergeRejoins) {
  TabletFixture f;
  const cluster::NodeId owner = f.service.shard_map().shard_for(0).node;
  int done = 0;
  for (std::uint64_t k : {100u, 200u, 700u, 800u}) {
    f.service.submit(owner, OpKind::kWrite, k, f.tablet_nodes[1],
                     [&](OpResult) { ++done; });
  }
  f.sim.run();
  ASSERT_EQ(done, 4);

  const ShardId left = f.service.shard_map().shard_for(0).id;
  ASSERT_TRUE(f.service.split_shard(left, 500));
  EXPECT_EQ(f.service.shard_map().shard_count(), 2);
  const ShardId right = f.service.shard_map().shard_for(700).id;
  EXPECT_NE(left, right);

  // Both halves still serve their keys from memory.
  OpResult lo, hi;
  f.service.submit(owner, OpKind::kRead, 200, f.tablet_nodes[1],
                   [&](OpResult r) { lo = r; });
  f.service.submit(owner, OpKind::kRead, 800, f.tablet_nodes[1],
                   [&](OpResult r) { hi = r; });
  f.sim.run();
  EXPECT_EQ(lo.status, OpStatus::kOk);
  EXPECT_TRUE(lo.from_memtable);
  EXPECT_EQ(hi.status, OpStatus::kOk);
  EXPECT_TRUE(hi.from_memtable);

  ASSERT_TRUE(f.service.merge_shards(left, right));
  EXPECT_EQ(f.service.shard_map().shard_count(), 1);
  OpResult rd;
  f.service.submit(owner, OpKind::kRead, 800, f.tablet_nodes[1],
                   [&](OpResult r) { rd = r; });
  f.sim.run();
  EXPECT_EQ(rd.status, OpStatus::kOk);
}

TEST(TabletService, MoveCarriesStateAndAccountsUnavailability) {
  TabletFixture f;
  const ShardId shard = f.service.shard_map().shard_for(42).id;
  const cluster::NodeId source = f.service.shard_map().shard(shard).node;
  cluster::NodeId target = cluster::kInvalidNode;
  for (cluster::NodeId n : f.tablet_nodes) {
    if (n != source) target = n;
  }
  f.service.submit(source, OpKind::kWrite, 42, f.tablet_nodes[0],
                   [](OpResult) {});
  f.sim.run();

  ASSERT_TRUE(f.service.move_shard(shard, target));
  EXPECT_TRUE(f.service.shard_moving(shard));
  f.sim.run();
  EXPECT_FALSE(f.service.shard_moving(shard));
  EXPECT_EQ(f.service.shard_map().shard(shard).node, target);
  EXPECT_EQ(f.service.moves_completed(), 1);
  EXPECT_GT(f.service.move_unavail_seconds(), 0.0);

  // The moved tablet serves its key on the new owner.
  OpResult rd;
  f.service.submit(target, OpKind::kRead, 42, f.tablet_nodes[0],
                   [&](OpResult r) { rd = r; });
  f.sim.run();
  EXPECT_EQ(rd.status, OpStatus::kOk);
}

TEST(TabletService, QueueLimitBouncesOverflow) {
  TabletConfig config = TabletFixture::make_config();
  config.queue_limit = 2;
  TabletFixture f(config);
  const cluster::NodeId owner = f.service.shard_map().shard_for(0).node;
  int full = 0, completed = 0;
  for (int i = 0; i < 20; ++i) {
    f.service.submit(owner, OpKind::kRead, 1, f.tablet_nodes[1],
                     [&](OpResult r) {
                       if (r.status == OpStatus::kQueueFull) ++full;
                       if (r.status == OpStatus::kNotFound) ++completed;
                     });
  }
  f.sim.run();
  EXPECT_GT(full, 0);
  EXPECT_GT(completed, 0);
  EXPECT_EQ(full + completed, 20);
  EXPECT_EQ(f.service.shed_queue_full(), full);
}

// -- Fencing ------------------------------------------------------------

TEST(TabletService, LeaseExpiryFencesZombieWalCommit) {
  TabletFixture f;
  const ShardId shard = f.service.shard_map().shard_for(42).id;
  const cluster::NodeId owner = f.service.shard_map().shard(shard).node;
  f.service.record_applies(true);

  OpResult wr;
  bool responded = false;
  f.service.submit(owner, OpKind::kWrite, 42, f.tablet_nodes[0],
                   [&](OpResult r) {
                     wr = r;
                     responded = true;
                   });
  // While the write sits in the WAL group, the node's lease expires: the
  // store fences the node at epoch 2 and the tablet layer sheds its
  // shards — but the node itself does not learn. The write joins the
  // group ~0.1 ms in (request hop + kWriteCost) and the group commits
  // kWalGroupDelay later, so 0.2 ms falls inside the window.
  static_assert(kWalGroupDelay == util::micros(200));
  f.sim.at(util::micros(200), [&] {
    f.store.conditions().set_unreachable(owner, true, 2);
    f.service.conditions().set_unreachable(owner, true, 2);
  });
  f.sim.run();

  ASSERT_TRUE(responded);
  EXPECT_EQ(wr.status, OpStatus::kFenced);
  EXPECT_EQ(f.service.fenced_writes(), 1);
  EXPECT_EQ(f.service.applied_writes(), 0);
  EXPECT_TRUE(f.service.apply_counts().empty());  // never applied
  EXPECT_EQ(f.store.metrics().counter("put_requests"), 0);
  // The shard re-opened on a surviving node.
  EXPECT_NE(f.service.shard_map().shard(shard).node, owner);
  EXPECT_FALSE(f.service.node_serving(owner));
}

TEST(TabletService, ReconnectedNodeWritesUnderNewEpoch) {
  TabletFixture f;
  const cluster::NodeId owner = f.service.shard_map().shard_for(1).node;
  f.store.conditions().set_unreachable(owner, true, 2);
  f.service.conditions().set_unreachable(owner, true, 2);
  f.sim.run();
  f.service.conditions().set_unreachable(owner, false, 2);
  EXPECT_TRUE(f.service.node_serving(owner));

  // A fresh write routed to the key's current owner succeeds: fencing
  // rejected the zombie epoch, not the node forever.
  const cluster::NodeId now_owner = f.service.shard_map().shard_for(1).node;
  OpResult wr;
  f.service.submit(now_owner, OpKind::kWrite, 1, f.tablet_nodes[0],
                   [&](OpResult r) { wr = r; });
  f.sim.run();
  EXPECT_EQ(wr.status, OpStatus::kOk);
  EXPECT_EQ(f.service.fenced_writes(), 0);
}

TEST(TabletService, DrainMovesTabletsOffGracefully) {
  TabletConfig config = TabletFixture::make_config();
  config.initial_shards = 3;
  TabletFixture f(config);
  const cluster::NodeId drained = f.tablet_nodes[0];
  ASSERT_FALSE(f.service.shard_map().shards_on(drained).empty());
  f.service.conditions().set_quarantined(drained, true);
  f.sim.run();
  EXPECT_TRUE(f.service.shard_map().shards_on(drained).empty());
  EXPECT_FALSE(f.service.node_serving(drained));
  f.service.conditions().set_quarantined(drained, false);
  EXPECT_TRUE(f.service.node_serving(drained));
}

// -- TabletClient -------------------------------------------------------

TEST(TabletClient, RetriesWrongShardAfterMove) {
  TabletConfig config = TabletFixture::make_config();
  TabletFixture f(config);
  TabletClient client(f.sim, f.service);
  const std::int64_t before = client.cached_epoch();

  // Invalidate the client's cache: split, then move the upper half.
  const ShardId root = f.service.shard_map().shard_for(0).id;
  ASSERT_TRUE(f.service.split_shard(root, 500));
  const ShardId right = f.service.shard_map().shard_for(700).id;
  const cluster::NodeId source = f.service.shard_map().shard(right).node;
  cluster::NodeId target = cluster::kInvalidNode;
  for (cluster::NodeId n : f.tablet_nodes) {
    if (n != source) target = n;
  }
  ASSERT_TRUE(f.service.move_shard(right, target));
  f.sim.run();
  ASSERT_EQ(f.service.shard_map().shard(right).node, target);

  OpResult wr;
  client.submit(OpKind::kWrite, 700, f.tablet_nodes[0],
                [&](OpResult r) { wr = r; });
  f.sim.run();
  EXPECT_EQ(wr.status, OpStatus::kOk);
  EXPECT_GE(wr.attempts, 2);
  EXPECT_GE(client.wrong_shard_retries(), 1);
  EXPECT_GT(client.cached_epoch(), before);
  EXPECT_EQ(client.exhausted(), 0);
}

TEST(TabletClient, ExactlyOnceAcrossEpochChanges) {
  TabletConfig config = TabletFixture::make_config();
  config.initial_shards = 3;
  TabletFixture f(config);
  f.service.record_applies(true);
  TabletClient client(f.sim, f.service);

  int acked = 0;
  for (std::uint64_t k = 0; k < 60; ++k) {
    client.submit(OpKind::kWrite, (k * 37) % 1000, f.tablet_nodes[0],
                  [&](OpResult r) {
                    if (r.status == OpStatus::kOk) ++acked;
                  });
  }
  // Mid-stream topology churn: split + move while writes are in flight.
  f.sim.at(util::micros(300), [&] {
    const ShardId s = f.service.shard_map().shard_for(100).id;
    f.service.split_shard(s, f.service.split_point(s));
  });
  f.sim.at(util::micros(600), [&] {
    const ShardId s = f.service.shard_map().shard_for(900).id;
    const cluster::NodeId src = f.service.shard_map().shard(s).node;
    for (cluster::NodeId n : f.tablet_nodes) {
      if (n != src) {
        f.service.move_shard(s, n);
        break;
      }
    }
  });
  f.sim.run();

  EXPECT_GT(acked, 0);
  // Every applied seq landed exactly once; acked == applied here because
  // no fencing happened.
  for (const auto& [seq, times] : f.service.apply_counts()) {
    EXPECT_EQ(times, 1) << "seq " << seq << " applied " << times << "x";
  }
  EXPECT_EQ(f.service.dup_writes(), 0);
  EXPECT_EQ(static_cast<std::int64_t>(f.service.apply_counts().size()),
            f.service.applied_writes());
}

// -- Balancer -----------------------------------------------------------

TEST(TabletBalancer, SplitsHotShardAndMovesLoadOff) {
  TabletConfig config = TabletFixture::make_config();
  TabletFixture f(config);
  BalancerConfig bcfg;
  bcfg.split_ops = 10;
  bcfg.merge_ops = 2;  // below half of split_ops: no split/merge flapping
  bcfg.min_move_ops = 5;
  TabletBalancer balancer(f.sim, f.service, bcfg);

  const cluster::NodeId owner = f.service.shard_map().shard_for(0).node;
  for (std::uint64_t k = 0; k < 40; ++k) {
    f.service.submit(owner, OpKind::kWrite, k * 25, f.tablet_nodes[0],
                     [](OpResult) {});
  }
  f.sim.run();
  balancer.tick();
  EXPECT_EQ(balancer.splits_triggered(), 1);
  EXPECT_EQ(f.service.shard_map().shard_count(), 2);

  // Next window: load lands on both halves, and the imbalance (two hot
  // shards on one node, none elsewhere) triggers a move.
  for (std::uint64_t k = 0; k < 40; ++k) {
    f.service.submit(owner, OpKind::kWrite, k * 25, f.tablet_nodes[0],
                     [](OpResult) {});
  }
  f.sim.run();
  balancer.tick();
  f.sim.run();
  EXPECT_GE(balancer.moves_triggered(), 1);
  EXPECT_EQ(f.service.moves_completed(), balancer.moves_triggered());
}

TEST(TabletBalancer, MergesColdShardsAndSkipsHotKeyDominatedSplit) {
  TabletConfig config = TabletFixture::make_config();
  TabletFixture f(config);
  BalancerConfig bcfg;
  bcfg.split_ops = 10;
  bcfg.merge_ops = 5;
  TabletBalancer balancer(f.sim, f.service, bcfg);

  // One key takes all the traffic: the shard is hot but splitting would
  // not spread anything — the balancer must leave it whole.
  const cluster::NodeId owner = f.service.shard_map().shard_for(0).node;
  for (int i = 0; i < 40; ++i) {
    f.service.submit(owner, OpKind::kRead, 77, f.tablet_nodes[0],
                     [](OpResult) {});
  }
  f.sim.run();
  EXPECT_TRUE(f.service.hot_key_dominated(f.service.shard_map().shard_for(77).id));
  balancer.tick();
  EXPECT_EQ(balancer.splits_triggered(), 0);
  EXPECT_EQ(f.service.shard_map().shard_count(), 1);

  // Split manually, let the window go cold, and the halves merge back.
  ASSERT_TRUE(f.service.split_shard(f.service.shard_map().shard_for(0).id, 500));
  balancer.tick();  // cold window
  EXPECT_EQ(balancer.merges_triggered(), 1);
  EXPECT_EQ(f.service.shard_map().shard_count(), 1);
}

}  // namespace
}  // namespace evolve::tablet
