// End-to-end failure/recovery semantics: one injected node crash must
// propagate coherently through the orchestrator, dataflow engine, object
// store, orchestrator gangs, and workflow retry machinery.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "dataflow/engine.hpp"
#include "fault/fault_injector.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "orch/scheduler.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "util/types.hpp"
#include "workflow/engine.hpp"
#include "workflow/workflow.hpp"

namespace evolve {
namespace {

// -- Dataflow + object store under injected crashes --------------------

struct FaultFixture {
  explicit FaultFixture(int compute = 4, int storage = 4,
                        dataflow::DataflowConfig dconfig = {},
                        storage::ObjectStoreConfig sconfig = {})
      : cluster(cluster::make_testbed(compute, storage, 0)),
        topology(cluster),
        fabric(sim, topology),
        io(sim, cluster),
        store(sim, cluster, fabric, io,
              cluster.nodes_with_label("role=storage"), sconfig),
        catalog(store),
        engine(sim, cluster, fabric, io, catalog, dconfig),
        injector(sim) {
    fault::connect(injector, engine);
    fault::connect(injector, store);
  }

  void stage_dataset(const std::string& name, int partitions,
                     util::Bytes total) {
    catalog.define(storage::DatasetSpec{name, partitions, total});
    catalog.preload(name);
  }

  std::vector<dataflow::ExecutorSpec> executors(int slots = 4) {
    std::vector<dataflow::ExecutorSpec> out;
    for (auto node : cluster.nodes_with_label("role=compute")) {
      out.push_back(dataflow::ExecutorSpec{node, slots});
    }
    return out;
  }

  sim::Simulation sim;
  cluster::Cluster cluster;
  net::Topology topology;
  net::Fabric fabric;
  storage::IoSubsystem io;
  storage::ObjectStore store;
  storage::DatasetCatalog catalog;
  dataflow::DataflowEngine engine;
  fault::FaultInjector injector;
};

dataflow::LogicalPlan scan_aggregate(const std::string& in,
                                     const std::string& out,
                                     int reducers = 8) {
  dataflow::LogicalPlan plan;
  const int src = plan.add_source(in);
  const int mapped = plan.add_map(src, "parse", 0.8, 0.5);
  const int reduced = plan.add_reduce_by_key(mapped, "agg", reducers, 0.05);
  plan.add_sink(reduced, out);
  return plan;
}

// Runs the canonical workload fault-free and reports its stage timings,
// so crash times can be aimed deterministically at a specific phase.
dataflow::JobStats baseline_stats() {
  FaultFixture f;
  f.stage_dataset("in", 8, 64 * util::kMiB);
  dataflow::JobStats stats;
  f.engine.run(scan_aggregate("in", "out"), f.executors(),
               [&](const dataflow::JobStats& s) { stats = s; });
  f.sim.run();
  return stats;
}

TEST(FaultRecovery, DataflowSurvivesComputeNodeCrash) {
  const auto base = baseline_stats();
  ASSERT_GT(base.duration, 0);

  FaultFixture f;
  f.stage_dataset("in", 8, 64 * util::kMiB);
  const auto victim = f.cluster.nodes_with_label("role=compute")[0];
  // Crash late in the map stage (tasks only launch once the locality
  // wait expires, so early kill times hit an idle cluster); recover
  // after the fault-free job would have finished.
  const util::TimeNs kill_at = base.stages[0].finish_time * 7 / 8;
  f.injector.schedule_outage(victim, kill_at, base.duration);
  dataflow::JobStats stats;
  bool done = false;
  f.engine.run(scan_aggregate("in", "out"), f.executors(),
               [&](const dataflow::JobStats& s) {
                 stats = s;
                 done = true;
               });
  f.sim.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(stats.failed);
  EXPECT_GE(stats.tasks_killed, 1);
  EXPECT_GE(stats.task_retries, 1);
  EXPECT_GE(stats.duration, base.duration);  // recovery is not free
  EXPECT_TRUE(f.catalog.materialized("out"));
  // Sink output survived intact despite the crash.
  EXPECT_NEAR(static_cast<double>(f.catalog.spec("out").total_bytes),
              64.0 * util::kMiB * 0.8 * 0.05, 1024.0);
  EXPECT_GE(f.engine.metrics().counter("tasks_killed"), 1);
  EXPECT_TRUE(f.engine.metrics().has_histogram("reschedule_latency_ms"));
}

// A job started while a node is down gets no slots there either: the
// engine's node conditions hold for every job, not only for the jobs
// that were live when the node crashed.
TEST(FaultRecovery, JobStartedDuringOutageSkipsDeadNode) {
  FaultFixture f;
  f.stage_dataset("in", 16, 64 * util::kMiB);
  const cluster::NodeId dead = f.cluster.nodes_with_label("role=compute")[0];
  f.injector.schedule_outage(dead, util::millis(1), util::seconds(100));
  int copies = 0;
  int on_dead = 0;
  f.engine.set_task_observer([&](cluster::NodeId node, util::TimeNs) {
    ++copies;
    if (node == dead) ++on_dead;
  });
  dataflow::JobStats stats;
  bool done = false;
  f.sim.at(util::millis(10), [&] {
    f.engine.run(scan_aggregate("in", "out"), f.executors(),
                 [&](const dataflow::JobStats& s) {
                   stats = s;
                   done = true;
                 });
  });
  f.sim.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(stats.failed);
  EXPECT_EQ(copies, 24);
  EXPECT_EQ(on_dead, 0);
}

// The same for a quarantine: a job started while a node is quarantined
// gets the node's slots only once the quarantine lifts.
TEST(FaultRecovery, JobStartedDuringQuarantineWaitsForRelease) {
  FaultFixture f;
  f.stage_dataset("in", 16, 64 * util::kMiB);
  const cluster::NodeId held = f.cluster.nodes_with_label("role=compute")[0];
  const util::TimeNs release = util::millis(300);
  f.engine.conditions().set_quarantined(held, true);
  f.sim.at(release,
           [&] { f.engine.conditions().set_quarantined(held, false); });
  int on_held = 0;
  util::TimeNs first_start = -1;
  f.engine.set_task_observer([&](cluster::NodeId node, util::TimeNs took) {
    if (node != held) return;
    ++on_held;
    const util::TimeNs started = f.sim.now() - took;
    if (first_start < 0 || started < first_start) first_start = started;
  });
  bool done = false;
  f.sim.at(util::millis(10), [&] {
    f.engine.run(scan_aggregate("in", "out"), f.executors(),
                 [&](const dataflow::JobStats&) { done = true; });
  });
  f.sim.run();
  ASSERT_TRUE(done);
  EXPECT_GT(on_held, 0);  // the released node's slots came back
  EXPECT_GE(first_start, release);
}

TEST(FaultRecovery, LostMapOutputsReexecuteUpstreamTasks) {
  const auto base = baseline_stats();
  ASSERT_EQ(base.stages.size(), 2u);
  // Aim the crash at the middle of the reduce stage: the map stage has
  // finished, so its shuffle outputs on the victim are the only way the
  // failure can be felt upstream.
  const util::TimeNs mid_reduce =
      (base.stages[0].finish_time + base.duration) / 2;
  ASSERT_GT(mid_reduce, base.stages[0].finish_time);

  FaultFixture f;
  f.stage_dataset("in", 8, 64 * util::kMiB);
  const auto victim = f.cluster.nodes_with_label("role=compute")[0];
  f.injector.schedule_failure(victim, mid_reduce);
  dataflow::JobStats stats;
  bool done = false;
  f.engine.run(scan_aggregate("in", "out"), f.executors(),
               [&](const dataflow::JobStats& s) {
                 stats = s;
                 done = true;
               });
  f.sim.run();
  ASSERT_TRUE(done);
  EXPECT_FALSE(stats.failed);
  EXPECT_GE(stats.map_outputs_lost, 1);
  EXPECT_GE(stats.tasks_reexecuted, 1);
  EXPECT_TRUE(f.catalog.materialized("out"));
}

TEST(FaultRecovery, RecoveryDisabledFailsJobCleanly) {
  dataflow::DataflowConfig dconfig;
  dconfig.fault_recovery = false;
  storage::ObjectStoreConfig sconfig;
  sconfig.replicas = 1;
  sconfig.repair = false;
  FaultFixture f(4, 1, dconfig, sconfig);
  f.stage_dataset("in", 8, 64 * util::kMiB);
  // Kill the only storage server before any read completes: every source
  // task loses its input, and without recovery the job must abort.
  f.injector.schedule_failure(f.cluster.nodes_with_label("role=storage")[0],
                              util::millis(1));
  dataflow::JobStats stats;
  bool done = false;
  f.engine.run(scan_aggregate("in", "out"), f.executors(),
               [&](const dataflow::JobStats& s) {
                 stats = s;
                 done = true;
               });
  f.sim.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(stats.failed);
  EXPECT_EQ(stats.task_retries, 0);
  EXPECT_EQ(f.engine.metrics().counter("jobs_failed"), 1);
  EXPECT_FALSE(f.catalog.defined("out"));
}

TEST(FaultRecovery, RetryBudgetExhaustionFailsJob) {
  dataflow::DataflowConfig dconfig;
  dconfig.max_task_retries = 2;
  dconfig.retry_backoff = util::millis(10);
  storage::ObjectStoreConfig sconfig;
  sconfig.replicas = 1;
  sconfig.repair = false;
  FaultFixture f(4, 1, dconfig, sconfig);
  f.stage_dataset("in", 8, 64 * util::kMiB);
  // The storage server never comes back, so retries cannot succeed.
  f.injector.schedule_failure(f.cluster.nodes_with_label("role=storage")[0],
                              util::millis(1));
  dataflow::JobStats stats;
  bool done = false;
  f.engine.run(scan_aggregate("in", "out"), f.executors(),
               [&](const dataflow::JobStats& s) {
                 stats = s;
                 done = true;
               });
  f.sim.run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(stats.failed);
  EXPECT_GE(stats.task_retries, dconfig.max_task_retries);
}

// -- Object store: degraded reads, background repair, loss -------------

TEST(FaultRecovery, ObjectStoreRepairsDegradedObjects) {
  storage::ObjectStoreConfig sconfig;
  sconfig.replicas = 2;
  sconfig.repair_delay = util::millis(10);
  FaultFixture f(1, 3, {}, sconfig);
  const auto client = f.cluster.nodes_with_label("role=compute")[0];
  const storage::ObjectKey key{"bench", "x"};
  f.store.create_bucket("bench");
  f.store.preload(key, 8 * util::kMiB);
  const auto holders = f.store.locate(key);
  ASSERT_EQ(holders.size(), 2u);

  f.store.conditions().set_down(holders[0], true);
  EXPECT_EQ(f.store.under_replicated_objects(), 1);

  // Degraded read still succeeds from the surviving replica.
  storage::GetResult got;
  f.store.get(client, key, [&](const storage::GetResult& r) { got = r; });
  f.sim.run();
  EXPECT_TRUE(got.found);
  EXPECT_EQ(got.served_by, holders[1]);
  EXPECT_GE(f.store.metrics().counter("degraded_reads"), 1);

  // Background repair re-replicated onto the third server.
  EXPECT_EQ(f.store.under_replicated_objects(), 0);
  EXPECT_GE(f.store.metrics().counter("objects_repaired"), 1);
  EXPECT_GT(f.store.under_replicated_object_seconds(), 0.0);
  for (auto server : f.store.servers()) {
    EXPECT_EQ(f.store.durable_bytes(server),
              f.store.expected_durable_bytes(server))
        << "server " << server;
  }
  EXPECT_EQ(f.store.lost_objects(), 0);
}

TEST(FaultRecovery, ObjectStoreStalledRepairResumesOnRecovery) {
  storage::ObjectStoreConfig sconfig;
  sconfig.replicas = 2;
  sconfig.repair_delay = util::millis(10);
  FaultFixture f(1, 2, {}, sconfig);
  const storage::ObjectKey key{"bench", "x"};
  f.store.create_bucket("bench");
  f.store.preload(key, 8 * util::kMiB);
  const auto holders = f.store.locate(key);
  ASSERT_EQ(holders.size(), 2u);

  // With only two servers there is no spare repair target: the repair
  // stalls until the dead server rejoins (empty) and becomes one.
  f.store.conditions().set_down(holders[0], true);
  f.sim.run();
  EXPECT_EQ(f.store.under_replicated_objects(), 1);

  f.store.conditions().set_down(holders[0], false);
  f.sim.run();
  EXPECT_EQ(f.store.under_replicated_objects(), 0);
  for (auto server : f.store.servers()) {
    EXPECT_EQ(f.store.durable_bytes(server),
              f.store.expected_durable_bytes(server));
  }
}

TEST(FaultRecovery, ObjectStoreReportsPermanentLoss) {
  storage::ObjectStoreConfig sconfig;
  sconfig.replicas = 2;
  FaultFixture f(1, 3, {}, sconfig);
  const auto client = f.cluster.nodes_with_label("role=compute")[0];
  const storage::ObjectKey key{"bench", "gone"};
  f.store.create_bucket("bench");
  f.store.preload(key, 4 * util::kMiB);
  const auto holders = f.store.locate(key);
  ASSERT_EQ(holders.size(), 2u);

  // Kill both replicas back-to-back, before repair can race in.
  f.store.conditions().set_down(holders[0], true);
  f.store.conditions().set_down(holders[1], true);
  EXPECT_EQ(f.store.lost_objects(), 1);
  EXPECT_EQ(f.store.under_replicated_objects(), 0);  // lost, not degraded

  storage::GetResult got;
  got.found = true;
  f.store.get(client, key, [&](const storage::GetResult& r) { got = r; });
  f.sim.run();
  EXPECT_FALSE(got.found);
  EXPECT_TRUE(f.store.exists(key));  // metadata survives for observability
  EXPECT_GE(f.store.metrics().counter("get_lost"), 1);
}

// -- Batch gangs: checkpointed restarts ---------------------------------

/// An orchestrator that starts pods the moment they are placed, over
/// `nodes` compute nodes, and a gang of `ranks` whole-node pods.
struct BatchFixture {
  static orch::OrchestratorConfig instant_start() {
    orch::OrchestratorConfig config;
    config.scheduling_interval = 0;
    config.bind_latency = 0;
    return config;
  }
  explicit BatchFixture(int nodes)
      : cluster(cluster::make_testbed(nodes, 0, 0)),
        orch(sim, cluster, orch::SchedulingPolicy::spreading(cluster),
             instant_start()) {}

  std::vector<orch::PodSpec> gang(int ranks) const {
    const cluster::Resources node = cluster.node(0).allocatable();
    orch::PodSpec pod;
    pod.request = cluster::cpu_mem(node.cpu_millicores, node.memory_bytes);
    return std::vector<orch::PodSpec>(static_cast<std::size_t>(ranks), pod);
  }

  sim::Simulation sim;
  cluster::Cluster cluster;
  orch::Orchestrator orch;
};

TEST(FaultRecovery, BatchGangRestartsFromLastCheckpoint) {
  BatchFixture f(4);
  orch::BatchSpec batch;
  batch.walltime = util::seconds(20);
  batch.checkpoint_interval = util::seconds(2);
  batch.restart_cost = util::millis(500);
  int finished = 0;
  std::vector<cluster::NodeId> assigned;
  const auto ids = f.orch.submit_gang(
      f.gang(2), util::seconds(10),
      [&](orch::PodId, cluster::NodeId node) {
        if (assigned.size() < 2) assigned.push_back(node);
      },
      [&](orch::PodId, orch::PodPhase) { ++finished; }, batch);

  f.sim.at(util::seconds(5), [&] {
    ASSERT_FALSE(assigned.empty());
    f.orch.conditions().set_down(assigned[0], true);
  });
  f.sim.at(util::seconds(6),
           [&] { f.orch.conditions().set_down(assigned[0], false); });
  f.sim.run();

  EXPECT_EQ(finished, 2);  // once per member, at the end only
  const orch::PodStatus& pod = f.orch.pod(ids[0]);
  EXPECT_EQ(pod.phase, orch::PodPhase::kSucceeded);
  // Failed 5s in with 2s checkpoints: 4s of progress survives, so the
  // restart runs 10 - 4 + 0.5 = 6.5s. Two spare nodes let it restart
  // immediately at t=5s.
  EXPECT_GE(pod.finish_time, util::seconds(5) + util::millis(6500));
  EXPECT_LE(pod.finish_time, util::seconds(5) + util::millis(6600));
  EXPECT_EQ(f.orch.metrics().counter("gang_restarts"), 1);
  // 5s elapsed, 4s checkpointed: exactly 1s of work was lost.
  ASSERT_GE(f.orch.metrics().histogram("work_lost_ms").count(), 1);
  EXPECT_EQ(f.orch.metrics().histogram("work_lost_ms").p50(), 1000);
  EXPECT_TRUE(f.orch.is_ready(assigned[0]));
}

TEST(FaultRecovery, BatchGangWithoutCheckpointsRestartsFromScratch) {
  BatchFixture f(2);
  orch::BatchSpec batch;
  batch.walltime = util::seconds(10);
  bool finished = false;
  const auto ids = f.orch.submit_gang(
      f.gang(2), util::seconds(4), {},
      [&](orch::PodId, orch::PodPhase) { finished = true; }, batch);
  f.sim.at(util::seconds(3), [&] { f.orch.conditions().set_down(0, true); });
  f.sim.at(util::seconds(4), [&] { f.orch.conditions().set_down(0, false); });
  f.sim.run();
  ASSERT_TRUE(finished);
  EXPECT_EQ(f.orch.metrics().counter("gang_restarts"), 1);
  // 3s of progress lost entirely; full 4s reruns once node 0 is back.
  EXPECT_GE(f.orch.pod(ids[0]).finish_time, util::seconds(8));
}

// -- Workflow retry backoff (seeded jitter) ----------------------------

struct FlakyRunner : workflow::StepRunner {
  explicit FlakyRunner(sim::Simulation& sim, int failures)
      : sim(sim), failures(failures) {}
  void run_step(const workflow::Step&,
                std::function<void(bool)> on_done) override {
    attempt_times.push_back(sim.now());
    on_done(static_cast<int>(attempt_times.size()) > failures);
  }
  sim::Simulation& sim;
  int failures;
  std::vector<util::TimeNs> attempt_times;
};

std::vector<util::TimeNs> backoff_times(std::uint64_t seed) {
  sim::Simulation sim;
  FlakyRunner runner(sim, 2);
  workflow::WorkflowEngine engine(sim, runner, seed);
  workflow::Step step;
  step.name = "flaky";
  step.max_retries = 3;
  step.retry_backoff = util::millis(100);
  workflow::Workflow wf("wf");
  wf.add(step);
  workflow::WorkflowResult result;
  engine.run(wf, [&](const workflow::WorkflowResult& r) { result = r; });
  sim.run();
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.steps.at("flaky").attempts, 3);
  return runner.attempt_times;
}

TEST(FaultRecovery, WorkflowRetriesBackOffExponentiallyWithJitter) {
  const auto times = backoff_times(1);
  ASSERT_EQ(times.size(), 3u);
  // Retry n waits base * 2^(n-1) stretched by up to +25% jitter.
  const util::TimeNs d1 = times[1] - times[0];
  const util::TimeNs d2 = times[2] - times[1];
  EXPECT_GE(d1, util::millis(100));
  EXPECT_LE(d1, util::millis(125));
  EXPECT_GE(d2, util::millis(200));
  EXPECT_LE(d2, util::millis(250));
}

TEST(FaultRecovery, WorkflowBackoffJitterIsSeededAndDeterministic) {
  EXPECT_EQ(backoff_times(1), backoff_times(1));
  EXPECT_NE(backoff_times(1), backoff_times(99));
}

// -- Orchestrator: crashes, recovery, and gang integrity ---------------

orch::PodSpec half_node_pod(const std::string& name) {
  orch::PodSpec spec;
  spec.name = name;
  // More than half a 32-core/128GiB testbed node: two such pods can
  // never share a node, so a 2-pod gang always spans two nodes.
  spec.request = cluster::cpu_mem(20'000, 80 * util::kGiB);
  return spec;
}

TEST(FaultRecovery, OrchestratorEvictsAndReadmitsAroundCrash) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(2, 0, 0);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  const auto id = orch.submit(half_node_pod("p"), /*duration=*/-1);
  sim.run_until(util::seconds(1));
  ASSERT_EQ(orch.pod(id).phase, orch::PodPhase::kRunning);
  const auto node = orch.pod(id).node;

  orch.conditions().set_down(node, true);
  EXPECT_EQ(orch.pod(id).phase, orch::PodPhase::kFailed);
  EXPECT_FALSE(orch.is_ready(node));
  EXPECT_EQ(orch.node_status(node).pod_count(), 0);
  EXPECT_TRUE(orch.node_status(node).allocated().is_zero());

  // While the node is NotReady, only the surviving node is schedulable:
  // two big pods cannot both run.
  const auto a = orch.submit(half_node_pod("a"), -1);
  const auto b = orch.submit(half_node_pod("b"), -1);
  sim.run_until(util::seconds(2));
  EXPECT_EQ((orch.pod(a).phase == orch::PodPhase::kRunning) +
                (orch.pod(b).phase == orch::PodPhase::kRunning),
            1);

  orch.conditions().set_down(node, false);
  EXPECT_TRUE(orch.is_ready(node));
  sim.run_until(util::seconds(3));
  EXPECT_EQ(orch.pod(a).phase, orch::PodPhase::kRunning);
  EXPECT_EQ(orch.pod(b).phase, orch::PodPhase::kRunning);
  orch.shutdown();
}

TEST(FaultRecovery, DrainKillsWholeGang) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(2, 0, 0);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  const auto ids = orch.submit_gang(
      {half_node_pod("g0"), half_node_pod("g1")}, /*duration=*/-1);
  ASSERT_EQ(ids.size(), 2u);
  sim.run_until(util::seconds(1));
  ASSERT_EQ(orch.pod(ids[0]).phase, orch::PodPhase::kRunning);
  ASSERT_EQ(orch.pod(ids[1]).phase, orch::PodPhase::kRunning);
  ASSERT_NE(orch.pod(ids[0]).node, orch.pod(ids[1]).node);

  // Draining the node hosting ONE member must take down the whole gang:
  // all-or-nothing placement implies all-or-nothing lifetimes.
  orch.drain(orch.pod(ids[0]).node);
  EXPECT_EQ(orch.pod(ids[0]).phase, orch::PodPhase::kFailed);
  EXPECT_EQ(orch.pod(ids[1]).phase, orch::PodPhase::kFailed);
  for (cluster::NodeId n = 0; n < cluster.size(); ++n) {
    EXPECT_EQ(orch.node_status(n).pod_count(), 0);
    EXPECT_TRUE(orch.node_status(n).allocated().is_zero());
  }
  EXPECT_EQ(orch.running_count(), 0);
  orch.shutdown();
}

TEST(FaultRecovery, NodeCrashKillsWholeGang) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(2, 0, 0);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  fault::FaultInjector injector(sim);
  fault::connect(injector, orch);
  const auto ids = orch.submit_gang(
      {half_node_pod("g0"), half_node_pod("g1")}, /*duration=*/-1);
  sim.run_until(util::seconds(1));
  ASSERT_EQ(orch.pod(ids[0]).phase, orch::PodPhase::kRunning);

  injector.kill(orch.pod(ids[1]).node);
  EXPECT_EQ(orch.pod(ids[0]).phase, orch::PodPhase::kFailed);
  EXPECT_EQ(orch.pod(ids[1]).phase, orch::PodPhase::kFailed);
  EXPECT_EQ(orch.running_count(), 0);
  orch.shutdown();
}

}  // namespace
}  // namespace evolve
