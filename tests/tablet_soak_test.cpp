// 100-seed tablet soak (ctest label: soak).
//
// Every seed runs a Zipf-keyed read/write workload through the
// TabletClient against a 4-node tablet layer while the balancer splits,
// merges, and moves shards, a gray slow node stretches execution, a
// seeded random partition process stalls fabric traffic, and one tablet
// server loses its lease mid-run (fenced at the store) and later
// reconnects. Invariants per seed:
//   1. exactly-once: no acked write is lost or double-applied across
//      shard-map epochs — every apply happened once, and
//      acked == applied + superseded (the dup counter);
//   2. zombie writes never ack: fenced WAL commits surface kFenced,
//      and are never applied;
//   3. tracing is purely observational: the traced rerun of the same
//      seed produces a bit-identical fingerprint.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/gray.hpp"
#include "fault/partition.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "tablet/balancer.hpp"
#include "tablet/service.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace evolve::tablet {
namespace {

constexpr int kOps = 240;
constexpr std::int64_t kKeys = 2000;

struct Fingerprint {
  std::int64_t acked = 0;
  std::int64_t applied = 0;
  std::int64_t dups = 0;
  std::int64_t fenced = 0;
  std::int64_t flushes = 0;
  std::int64_t wal_commits = 0;
  std::int64_t moves = 0;
  std::int64_t epoch = 0;
  std::int64_t splits = 0;
  util::TimeNs completion_hash = 0;

  bool operator==(const Fingerprint& other) const {
    return std::tie(acked, applied, dups, fenced, flushes, wal_commits,
                    moves, epoch, splits, completion_hash) ==
           std::tie(other.acked, other.applied, other.dups, other.fenced,
                    other.flushes, other.wal_commits, other.moves,
                    other.epoch, other.splits, other.completion_hash);
  }
};

Fingerprint run_seed(std::uint64_t seed, bool traced) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(4, 4, 0, 2);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"));

  TabletConfig config;
  config.keyspace = static_cast<std::uint64_t>(kKeys);
  config.initial_shards = 2;
  config.flush_bytes = 16 * util::kKiB;  // flush often
  config.flush_age = util::millis(200);
  TabletService service(sim, fabric, store,
                        cluster.nodes_with_label("role=compute"), config);
  service.record_applies(true);
  trace::Tracer tracer(sim);
  if (traced) service.set_tracer(&tracer);

  BalancerConfig bcfg;
  bcfg.split_ops = 30;
  bcfg.merge_ops = 2;
  bcfg.min_move_ops = 20;
  bcfg.imbalance_ratio = 1.3;
  TabletBalancer balancer(sim, service, bcfg);
  balancer.start();

  // Gray slow node + seeded random partitions + one lease loss.
  const auto tablet_nodes = cluster.nodes_with_label("role=compute");
  fault::GrayInjector gray(sim);
  fault::connect(gray, service);
  gray.schedule_slow_node(tablet_nodes[1], /*cpu_factor=*/3.0,
                          /*accel_factor=*/1.0, util::seconds(4),
                          util::seconds(6));
  fault::PartitionInjectorConfig pconfig;
  pconfig.seed = seed;
  fault::PartitionInjector partitions(sim, fabric, pconfig);
  partitions.random_partitions(/*mtbp_s=*/8.0, /*mean_duration_s=*/1.0,
                               util::seconds(12));

  const cluster::NodeId victim = tablet_nodes[0];
  sim.at(util::seconds(6), [&] {
    // Lease expiry: fence first (the store must reject the zombie's
    // epoch before the tablet layer reacts), then shed.
    store.conditions().set_unreachable(victim, true, 2);
    service.conditions().set_unreachable(victim, true, 2);
  });
  sim.at(util::seconds(10),
         [&] { service.conditions().set_unreachable(victim, false, 2); });

  ClientConfig ccfg;
  ccfg.max_attempts = 8;
  TabletClient client(sim, service, ccfg);

  util::Rng rng(seed * 2654435761u + 7);
  std::int64_t acked_writes = 0;
  std::set<std::int64_t> acked_seqs;
  std::int64_t fenced_results = 0;
  std::set<std::int64_t> fenced_seqs;
  util::TimeNs completion_hash = 0;
  for (int op = 0; op < kOps; ++op) {
    const auto key = static_cast<std::uint64_t>(rng.zipf(kKeys, 1.1));
    const auto at = util::seconds(rng.uniform(0.0, 12.0));
    const bool write = rng.uniform(0.0, 1.0) < 0.6;
    const auto origin = tablet_nodes[static_cast<std::size_t>(
        rng.uniform_int(0, 3))];
    sim.at(at, [&, key, write, origin] {
      client.submit(write ? OpKind::kWrite : OpKind::kRead, key, origin,
                    [&, write](OpResult r) {
                      completion_hash += sim.now();
                      if (write && r.status == OpStatus::kOk) {
                        ++acked_writes;
                        acked_seqs.insert(r.seq);
                      }
                      if (r.status == OpStatus::kFenced) {
                        ++fenced_results;
                        if (r.seq > 0) fenced_seqs.insert(r.seq);
                      }
                    });
    });
  }
  sim.at(util::seconds(14), [&] {
    balancer.stop();
    service.stop();
  });
  sim.run();

  // Invariant 1: exactly-once across epochs. Every apply landed once,
  // and every acked write either applied or was superseded by a newer
  // write to the same key that committed first (counted as a dup).
  for (const auto& [seq, times] : service.apply_counts()) {
    EXPECT_EQ(times, 1) << "seq " << seq << " applied " << times << "x";
  }
  EXPECT_EQ(acked_writes,
            static_cast<std::int64_t>(acked_seqs.size()));  // unique seqs
  EXPECT_EQ(static_cast<std::int64_t>(service.apply_counts().size()),
            service.applied_writes());
  // An acked seq missing from apply_counts must be a suppressed stale
  // apply (superseded by a newer same-key write), never a lost write:
  // the dup counter accounts for every one of them exactly.
  std::int64_t superseded = 0;
  for (std::int64_t seq : acked_seqs) {
    if (service.apply_counts().count(seq) == 0) ++superseded;
  }
  EXPECT_EQ(superseded, service.dup_writes());

  // Invariant 2: zombie writes surface as kFenced (never kOk) and are
  // rejected by the store before any byte lands: every fenced response
  // reaches its client as kFenced, and no fenced seq was ever applied.
  EXPECT_EQ(fenced_results, service.fenced_writes());
  for (std::int64_t seq : fenced_seqs) {
    EXPECT_EQ(service.apply_counts().count(seq), 0u) << "fenced seq " << seq;
    EXPECT_EQ(acked_seqs.count(seq), 0u) << "fenced seq " << seq;
  }

  // Liveness / cleanliness.
  EXPECT_FALSE(partitions.active());
  EXPECT_EQ(fabric.stats().flows_in_flight, 0);
  EXPECT_EQ(fabric.parked_flows(), 0);
  EXPECT_GT(service.shard_map().epoch(), 1);  // churn actually happened

  Fingerprint fp;
  fp.acked = acked_writes;
  fp.applied = service.applied_writes();
  fp.dups = service.dup_writes();
  fp.fenced = service.fenced_writes();
  fp.flushes = service.flushes();
  fp.wal_commits = service.wal_commits();
  fp.moves = service.moves_completed();
  fp.epoch = service.shard_map().epoch();
  fp.splits = service.shard_map().splits();
  fp.completion_hash = completion_hash;
  return fp;
}

TEST(TabletSoak, HundredSeedsExactlyOnceAndTraceInvariant) {
  std::int64_t total_moves = 0;
  std::int64_t total_fenced = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Fingerprint plain = run_seed(seed, /*traced=*/false);
    EXPECT_GT(plain.acked, 0);
    EXPECT_GT(plain.wal_commits, 0);
    total_moves += plain.moves;
    total_fenced += plain.fenced;
    // Invariant 3: tracing changes nothing.
    const Fingerprint traced = run_seed(seed, /*traced=*/true);
    EXPECT_TRUE(plain == traced);
    if (::testing::Test::HasFailure()) break;  // first failing seed only
  }
  // Across the fleet of seeds the interesting paths actually ran.
  EXPECT_GT(total_moves, 0);
  EXPECT_GT(total_fenced, 0);
}

}  // namespace
}  // namespace evolve::tablet
