// The node-condition table (field ownership, handler order, before and
// after values), then node conditions end to end: every producer (crash,
// lease expiry, quarantine, gray slowdown) wired to every consumer
// through fault::connect, with a digest of what each consumer does
// about it.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/conditions.hpp"

#include "accel/pool.hpp"
#include "cluster/cluster.hpp"
#include "dataflow/engine.hpp"
#include "fault/fault_injector.hpp"
#include "fault/gray.hpp"
#include "fault/health.hpp"
#include "fault/partition.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "orch/controllers.hpp"
#include "orch/lease.hpp"
#include "orch/scheduler.hpp"
#include "serve/service.hpp"
#include "sim/simulation.hpp"
#include "storage/dataset.hpp"
#include "storage/io_model.hpp"
#include "storage/object_store.hpp"
#include "tablet/service.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

namespace evolve::cluster {
namespace {

using util::millis;
using util::seconds;

TEST(NodeConditions, WriteSetsOnlyItsProducersFields) {
  NodeConditions table;
  EXPECT_EQ(table[7], NodeCondition{});  // never written: healthy
  table.set_slowdown(2, 3.0, 1.5);
  table.set_down(2, true);
  table.set_unreachable(2, true, 4);
  table.set_quarantined(2, true);
  NodeCondition expected;
  expected.down = true;
  expected.unreachable = true;
  expected.epoch = 4;
  expected.quarantined = true;
  expected.cpu_slowdown = 3.0;
  expected.accel_slowdown = 1.5;
  EXPECT_EQ(table[2], expected);
  // Clearing one producer's field leaves every other one standing.
  table.set_down(2, false);
  expected.down = false;
  EXPECT_EQ(table[2], expected);
  EXPECT_FALSE(table[2].usable());
  table.set_unreachable(2, false, 4);
  EXPECT_FALSE(table[2].usable());
  table.set_quarantined(2, false);
  EXPECT_TRUE(table[2].usable());
  EXPECT_EQ(table[2].epoch, 4);
  EXPECT_EQ(table[2].cpu_slowdown, 3.0);
  EXPECT_EQ(table[1], NodeCondition{});  // its neighbours stay healthy
  EXPECT_THROW(table.set_down(kInvalidNode, true), std::out_of_range);
}

TEST(NodeConditions, HandlersRunInAttachOrderWithBeforeAndAfter) {
  std::vector<std::string> log;
  const auto logger = [&log](const std::string& name) {
    return [&log, name](NodeId node, const NodeCondition& before,
                        const NodeCondition& after) {
      std::string entry = util::numbered(name + ":", node);
      entry += util::numbered(":", before.unreachable);
      entry += util::numbered("/", before.epoch);
      entry += util::numbered("->", after.unreachable);
      entry += util::numbered("/", after.epoch);
      log.push_back(entry);
    };
  };
  NodeConditions a(logger("a"));
  NodeConditions b(logger("b"));
  ConditionTables producer;
  producer.attach(b);
  producer.attach(a);
  producer.set_unreachable(3, true, 2);
  producer.set_unreachable(3, false, 2);
  const std::vector<std::string> expected = {"b:3:0/1->1/2", "a:3:0/1->1/2",
                                             "b:3:1/2->0/2", "a:3:1/2->0/2"};
  EXPECT_EQ(log, expected);
}

// A gray overlap that leaves the factors as they were is still a write:
// the handler runs with before == after, and each consumer decides what
// that means (the accelerator pool re-paces its devices on it, as the
// transition digest below pins).
TEST(NodeConditions, UnchangedWriteStillRunsTheHandler) {
  sim::Simulation sim;
  fault::GrayInjector gray(sim);
  std::vector<std::pair<NodeCondition, NodeCondition>> writes;
  NodeConditions table([&writes](NodeId, const NodeCondition& before,
                                 const NodeCondition& after) {
    writes.emplace_back(before, after);
  });
  gray.attach(table);
  gray.schedule_slow_node(1, 4.0, 2.0, seconds(1), seconds(4));
  gray.schedule_slow_node(1, 2.0, 1.0, seconds(2), seconds(1));  // inside
  sim.run();
  ASSERT_EQ(writes.size(), 3u);  // start, the weaker overlap, clear
  EXPECT_EQ(writes[0].second.cpu_slowdown, 4.0);
  EXPECT_EQ(writes[0].second.accel_slowdown, 2.0);
  EXPECT_EQ(writes[1].first, writes[1].second);
  EXPECT_EQ(writes[2].second, NodeCondition{});
}

struct Digest {
  std::uint64_t value = 1469598103934665603ull;
  void mix(std::int64_t v) {
    value = (value ^ static_cast<std::uint64_t>(v)) * 1099511628211ull;
  }
};

/// One seeded run: a crash of a compute and a storage node, a partition
/// long enough to expire a lease, a gray slowdown that gets its node
/// quarantined, a weaker overlapping slowdown that changes nothing, a
/// NIC degradation and bit-rot, over serving, tablet, dataflow, store,
/// accelerator and pod work. The crashed and the partitioned node
/// differ, and every dataflow job starts before the first fault.
void run_scenario(std::uint64_t seed, Digest& d) {
  sim::Simulation sim;
  const Cluster cluster = make_testbed(6, 4, 1);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  const auto compute = cluster.nodes_with_label("role=compute");
  const auto storage_nodes = cluster.nodes_with_label("role=storage");
  storage::ObjectStore store(sim, cluster, fabric, io, storage_nodes);
  storage::DatasetCatalog catalog(store);
  dataflow::DataflowConfig df_config;
  df_config.health_speculation = true;
  dataflow::DataflowEngine engine(sim, cluster, fabric, io, catalog,
                                  df_config);
  accel::AccelPool pool(sim, cluster);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec api;
  api.name = "api";
  api.request = cpu_mem(2000, 4 * util::kGiB);
  api.anti_affinity_group = "api";
  api.node_selector = {"role=compute"};
  orch::DeploymentController deploy(orch, "api", api, 6);
  std::vector<serve::RequestClass> classes(1);
  classes[0].name = "rank";
  classes[0].compute_cost = millis(2);
  classes[0].batch_setup = millis(1);
  classes[0].slo = millis(100);
  serve::Service service(sim, fabric, deploy, classes);
  tablet::TabletConfig tconfig;
  tconfig.keyspace = 1000;
  tconfig.initial_shards = 6;
  tconfig.flush_age = millis(1500);
  tablet::TabletService tablets(sim, fabric, store, compute, tconfig);
  tablet::TabletClient client(sim, tablets);
  fault::HealthScorer scorer(sim);
  fault::QuarantineController quarantine(sim, scorer);
  fault::FaultInjector faults(sim);
  fault::GrayInjector gray(sim);
  fault::PartitionInjector partitions(sim, fabric);
  orch::LeaseManagerConfig lconfig;
  lconfig.grace = seconds(2);
  lconfig.seed = seed;
  orch::LeaseManager leases(sim, fabric, orch, lconfig);

  fault::connect(faults, orch);
  fault::connect(faults, engine);
  fault::connect(faults, store);
  fault::connect(faults, leases);
  fault::connect(faults, scorer);
  fault::connect(leases, store);
  fault::connect(leases, tablets);
  fault::connect(leases, service, /*ramp_window=*/seconds(1));
  fault::connect(leases, scorer);
  fault::connect(gray, engine);
  fault::connect(gray, pool);
  fault::connect(gray, fabric);
  fault::connect(gray, store);
  fault::connect(gray, service);
  fault::connect(gray, tablets);
  fault::connect(gray, quarantine);
  fault::connect(engine, scorer);
  fault::connect(service, scorer);
  fault::connect(quarantine, orch);
  fault::connect(quarantine, engine);
  fault::connect(quarantine, service);
  fault::connect(quarantine, tablets);

  // -- Faults, seeded. Node 0 hosts the lease table and stays healthy.
  util::Rng rng(seed);
  std::vector<NodeId> victims(compute.begin() + 1, compute.end());
  for (std::size_t i = victims.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i)));
    std::swap(victims[i], victims[j]);
  }
  const NodeId crashed = victims[0];
  const NodeId isolated = victims[1];
  const NodeId slowed = victims[2];
  const NodeId cpu_only = victims[3];
  faults.schedule_outage(crashed, millis(rng.uniform_int(900, 1400)),
                         millis(rng.uniform_int(1000, 2000)));
  faults.schedule_outage(
      storage_nodes[static_cast<std::size_t>(rng.uniform_int(0, 3))],
      millis(rng.uniform_int(1500, 2500)), seconds(2));
  const util::TimeNs cut_at = millis(rng.uniform_int(800, 1500));
  const util::TimeNs cut_for = millis(rng.uniform_int(3000, 6000));
  sim.at(cut_at, [&, cut_for] {
    const fault::PartitionId cut = partitions.isolate({isolated});
    sim.after(cut_for, [&partitions, cut] { partitions.heal(cut); });
  });
  gray.schedule_slow_node(slowed, 6.0, 3.0, millis(rng.uniform_int(300, 600)),
                          seconds(4));
  gray.schedule_slow_node(slowed, 2.0, 1.0, millis(1200), seconds(1));
  gray.schedule_slow_node(cpu_only, 3.0, 1.0,
                          millis(rng.uniform_int(2000, 3000)), seconds(2));
  fault::NicDegradation nic;
  nic.bandwidth_factor = 0.5;
  nic.extra_latency = util::micros(200);
  gray.schedule_nic_degradation(storage_nodes[0], nic, millis(700),
                                seconds(2));
  gray.schedule_bitrot(millis(2500), seed, 3);
  // The accelerator node: a slowdown, a weaker overlap inside it, then
  // a CPU-only one that leaves the devices' factor at 1.
  const NodeId accel_node = cluster.nodes_with_label("role=accel")[0];
  gray.schedule_slow_node(accel_node, 2.0, 2.5, millis(1500), seconds(2));
  gray.schedule_slow_node(accel_node, 1.5, 1.5, millis(2000), millis(500));
  gray.schedule_slow_node(accel_node, 2.0, 1.0, millis(4000), seconds(1));
  leases.start();

  // -- Work. Every reaction is folded with its time.
  catalog.define(storage::DatasetSpec{"in", 24, 96 * util::kMiB});
  catalog.preload("in");
  std::vector<dataflow::ExecutorSpec> executors;
  for (const NodeId n : compute) executors.push_back({n, 2});
  for (int job = 0; job < 2; ++job) {
    dataflow::LogicalPlan plan;
    const int mapped =
        plan.add_map(plan.add_source("in"), "parse", 0.5, 150.0);
    plan.add_sink(plan.add_reduce_by_key(mapped, "agg", 6, 0.1, 20.0),
                  util::numbered("out", job));
    sim.at(millis(10 * job), [&, plan, job] {
      engine.run(plan, executors, [&, job](const dataflow::JobStats& s) {
        d.mix(job);
        d.mix(sim.now());
        d.mix(s.failed);
        d.mix(s.tasks_killed);
        d.mix(s.map_outputs_lost);
        d.mix(s.task_retries);
        d.mix(s.speculative_launched);
        d.mix(s.speculative_wins);
      });
    });
  }
  service.set_completion_observer(
      [&](const serve::Request& req, const serve::RequestClass&,
          util::TimeNs latency, bool slo_ok) {
        d.mix(req.id);
        d.mix(latency);
        d.mix(slo_ok);
      });
  for (int i = 0; i < 3000; ++i) {
    const util::TimeNs at = millis(100) + millis(2) * i;
    sim.at(at, [&, i, at] {
      serve::Request req;
      req.id = i + 1;
      req.cls = 0;
      req.client = storage_nodes[static_cast<std::size_t>(i % 4)];
      req.arrival = at;
      service.submit(req);
    });
  }
  util::Rng work(seed * 7919 + 1);
  for (int i = 0; i < 1200; ++i) {
    const auto kind =
        work.chance(0.5) ? tablet::OpKind::kWrite : tablet::OpKind::kRead;
    const auto key = static_cast<std::uint64_t>(work.uniform_int(0, 999));
    const NodeId from = storage_nodes[static_cast<std::size_t>(i % 4)];
    sim.at(millis(5) * i, [&, kind, key, from] {
      client.submit(kind, key, from, [&](tablet::OpResult r) {
        d.mix(static_cast<std::int64_t>(r.status));
        d.mix(r.seq);
        d.mix(sim.now());
      });
    });
  }
  store.create_bucket("b");
  for (int i = 0; i < 6; ++i) {
    store.preload({"b", util::numbered("o", i)}, util::kMiB);
  }
  for (int i = 0; i < 120; ++i) {
    const NodeId from = compute[static_cast<std::size_t>(i % 6)];
    const std::string name = util::numbered("o", i % 6);
    sim.at(millis(50) * i, [&, from, name] {
      store.get(from, {"b", name}, [&](const storage::GetResult& r) {
        d.mix(r.found);
        d.mix(sim.now());
      });
    });
  }
  // The partitioned node keeps writing under its first epoch: the
  // store takes its writes until the lease expires, then fences them.
  for (int i = 0; i < 80; ++i) {
    sim.at(millis(100) * i, [&, i] {
      d.mix(store.put_fenced(isolated, 1, {"b", util::numbered("z", i)},
                             64 * util::kKiB, [&] { d.mix(sim.now()); }));
    });
  }
  for (int i = 0; i < 200; ++i) {
    sim.at(millis(30) * i, [&, i] {
      pool.offload("fft", millis(200), compute[static_cast<std::size_t>(i % 6)],
                   [&] { d.mix(sim.now()); });
    });
  }
  for (int i = 0; i < 6; ++i) {
    orch::PodSpec pod;
    pod.name = util::numbered("batch", i);
    pod.request = cpu_mem(1000, util::kGiB);
    pod.node_selector = {"role=compute"};
    orch.submit(pod, seconds(6), {}, [&](orch::PodId id, orch::PodPhase phase) {
      d.mix(id);
      d.mix(static_cast<std::int64_t>(phase));
      d.mix(sim.now());
    });
  }
  for (int tick = 0; tick < 450; ++tick) {
    sim.at(millis(20) * tick, [&] {
      for (NodeId n = 0; n < cluster.size(); ++n) {
        d.mix(orch.is_ready(n) | orch.is_quarantined(n) << 1 |
              orch.is_unreachable(n) << 2 | service.is_node_drained(n) << 3 |
              tablets.node_serving(n) << 4 | store.server_alive(n) << 5 |
              scorer.is_node_down(n) << 6 | scorer.flagged(n) << 7);
      }
      for (int i = 0; i < pool.device_count(); ++i) {
        d.mix(static_cast<std::int64_t>(pool.device(i).slowdown() * 1000));
      }
      d.mix(service.rerouted());
    });
  }
  sim.at(seconds(9), [&] {
    leases.stop();
    tablets.stop();
    orch.shutdown();
  });
  sim.run_until(seconds(30));

  d.mix(engine.metrics().counter("tasks_killed"));
  d.mix(engine.metrics().counter("health_speculations"));
  d.mix(orch.metrics().counter("evictions"));
  d.mix(orch.metrics().counter("quarantines"));
  d.mix(orch.metrics().counter("node_unreachable"));
  d.mix(orch.metrics().counter("node_reconnects"));
  d.mix(orch.metrics().counter("unreachable_evictions"));
  d.mix(store.writes_fenced());
  d.mix(store.metrics().counter("nodes_fenced"));
  d.mix(store.metrics().counter("server_failures"));
  d.mix(tablets.fenced_writes());
  d.mix(tablets.metrics().counter("flushes_fenced"));
  d.mix(tablets.metrics().counter("lease_sheds"));
  d.mix(tablets.metrics().counter("lease_rejoins"));
  d.mix(tablets.metrics().counter("drains"));
  d.mix(tablets.metrics().counter("undrains"));
  d.mix(service.rerouted());
  d.mix(quarantine.quarantines());
  d.mix(static_cast<std::int64_t>(quarantine.mean_time_to_quarantine_ms() *
                                  1000));
  d.mix(leases.expiries());
  d.mix(leases.reconnects());
  d.mix(leases.evictions());
  d.mix(sim.now());

  // The scenario must reach every reaction the digest is meant to pin.
  EXPECT_GT(engine.metrics().counter("tasks_killed"), 0);
  EXPECT_GT(quarantine.quarantines(), 0);
  EXPECT_GT(leases.expiries(), 0);
  EXPECT_GT(orch.metrics().counter("evictions"), 0);
  EXPECT_GT(tablets.metrics().counter("lease_sheds"), 0);
  EXPECT_GT(store.writes_fenced(), 0);
}

// Pins the event order of every node-condition reaction across the
// layers. Recorded before the per-consumer copies were folded into one
// NodeConditions table per consumer; it must not move.
TEST(NodeConditions, TransitionDigestIsPinned) {
  Digest d;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(util::numbered("seed=", static_cast<std::int64_t>(seed)));
    run_scenario(seed, d);
  }
  EXPECT_EQ(d.value, 15716030957041629789ull);
}

}  // namespace
}  // namespace evolve::cluster
