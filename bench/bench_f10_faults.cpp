// F10 — Cluster-wide fault injection and end-to-end recovery.
//
// One converged testbed (8 compute + 4 storage nodes) runs dataflow
// jobs, HPC batch gangs (whole-node pods on the orchestrator), and a
// replicated object store while a FaultInjector kills and restores
// nodes on a fixed schedule plus a seeded MTBF/MTTR process. Three scenarios compare the cost of
// failures and the value of the recovery machinery:
//
//   fault-free    no failures (the reference makespan)
//   recovery-on   task retries, background re-replication, checkpointed
//                 HPC restarts
//   recovery-off  lost tasks fail their job, no repair, HPC restarts
//                 from scratch
//
// `--json` writes BENCH_f10_faults.json for cross-PR tracking.
// `--trace` span-traces all three scenarios into TRACE_f10_faults.json
// (Perfetto / chrome://tracing), showing retries, re-replication and
// gang restarts as they interleave with the fault schedule.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "dataflow/engine.hpp"
#include "fault/fault_injector.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "orch/scheduler.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

using namespace evolve;

namespace {

constexpr int kComputeNodes = 8;
constexpr int kStorageNodes = 4;
constexpr int kDataflowJobs = 3;
constexpr int kHpcJobs = 4;
constexpr int kColdObjects = 32;

dataflow::LogicalPlan scan_aggregate(const std::string& in,
                                     const std::string& out) {
  dataflow::LogicalPlan plan;
  const int src = plan.add_source(in);
  const int mapped = plan.add_map(src, "parse", 0.8, 0.5);
  const int reduced = plan.add_reduce_by_key(mapped, "agg", 8, 0.05);
  plan.add_sink(reduced, out);
  return plan;
}

struct ScenarioResult {
  std::string name;
  double makespan_s = 0;
  int jobs_ok = 0;
  int jobs_failed = 0;
  std::int64_t tasks_killed = 0;
  std::int64_t tasks_reexecuted = 0;
  std::int64_t outputs_lost = 0;
  std::int64_t task_retries = 0;
  double resched_p50_ms = 0;
  double resched_p95_ms = 0;
  std::int64_t hpc_restarts = 0;
  std::int64_t gang_aborts = 0;
  double hpc_work_lost_s = 0;
  double underrep_obj_s = 0;
  std::int64_t objects_repaired = 0;
  std::int64_t degraded_reads = 0;
  std::int64_t lost_objects = 0;
  std::int64_t failures_injected = 0;
  double downtime_node_s = 0;
};

ScenarioResult run_scenario(const std::string& name, bool faults,
                            bool recovery,
                            std::unique_ptr<trace::Tracer>* tracer_out) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(kComputeNodes, kStorageNodes, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);

  storage::ObjectStoreConfig sconfig;
  sconfig.replicas = 2;
  sconfig.repair = recovery;
  sconfig.repair_delay = util::millis(200);
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"),
                             sconfig);
  storage::DatasetCatalog catalog(store);

  dataflow::DataflowConfig dconfig;
  dconfig.fault_recovery = recovery;
  dconfig.max_task_retries = 4;
  dconfig.retry_backoff = util::millis(100);
  dataflow::DataflowEngine engine(sim, cluster, fabric, io, catalog, dconfig);

  const auto compute = cluster.nodes_with_label("role=compute");
  const auto storage_nodes = cluster.nodes_with_label("role=storage");

  // HPC gangs are batch gangs of whole-node pods on the compute nodes,
  // started as soon as they are placed, as a batch system does.
  orch::OrchestratorConfig oconfig;
  oconfig.scheduling_interval = 0;
  oconfig.bind_latency = 0;
  oconfig.nodes = compute;
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster), oconfig);
  orch::BatchSpec batch;
  batch.walltime = util::seconds(6);
  if (recovery) {
    batch.checkpoint_interval = util::millis(500);
    batch.restart_cost = util::millis(100);
  }

  fault::FaultInjector injector(sim, fault::FaultInjectorConfig{0xf10});
  fault::connect(injector, engine);
  fault::connect(injector, store);
  fault::connect(injector, orch);

  std::unique_ptr<trace::Tracer> tracer;
  if (tracer_out) {
    tracer = std::make_unique<trace::Tracer>(sim);
    fabric.set_tracer(tracer.get());
    store.set_tracer(tracer.get());
    engine.set_tracer(tracer.get());
    orch.set_tracer(tracer.get());
  }

  // -- Workload: cold objects, dataflow jobs, HPC gangs ----------------
  store.create_bucket("cold");
  for (int i = 0; i < kColdObjects; ++i) {
    store.preload({"cold", "obj-" + std::to_string(i)}, 8 * util::kMiB);
  }

  ScenarioResult result;
  result.name = name;
  util::TimeNs last_finish = 0;

  std::vector<dataflow::ExecutorSpec> executors;
  for (auto node : compute) executors.push_back({node, 4});
  for (int j = 0; j < kDataflowJobs; ++j) {
    const std::string in = "in" + std::to_string(j);
    catalog.define(storage::DatasetSpec{in, 16, 256 * util::kMiB});
    catalog.preload(in);
    sim.at(util::millis(200) * j, [&, j, in] {
      engine.run(scan_aggregate(in, "out" + std::to_string(j)), executors,
                 [&](const dataflow::JobStats& s) {
                   s.failed ? ++result.jobs_failed : ++result.jobs_ok;
                   result.tasks_killed += s.tasks_killed;
                   result.tasks_reexecuted += s.tasks_reexecuted;
                   result.outputs_lost += s.map_outputs_lost;
                   result.task_retries += s.task_retries;
                   last_finish = std::max(last_finish, sim.now());
                 });
    });
  }
  const cluster::Resources node = cluster.node(compute[0]).allocatable();
  for (int j = 0; j < kHpcJobs; ++j) {
    orch::PodSpec rank;
    rank.name = "gang-" + std::to_string(j);
    rank.request = cluster::cpu_mem(node.cpu_millicores, node.memory_bytes);
    orch.submit_gang(
        std::vector<orch::PodSpec>(3, rank), util::seconds(2), {},
        [&](orch::PodId, orch::PodPhase) {
          last_finish = std::max(last_finish, sim.now());
        },
        batch);
  }

  // -- Fault plan: fixed outages plus a seeded MTBF/MTTR tail ----------
  if (faults) {
    injector.schedule_outage(compute[1], util::millis(800), util::millis(1500));
    injector.schedule_outage(compute[4], util::millis(2500), util::seconds(2));
    injector.schedule_outage(storage_nodes[0], util::seconds(1),
                             util::seconds(3));
    injector.schedule_outage(storage_nodes[1], util::seconds(6),
                             util::seconds(2));
    injector.random_process({compute[5], compute[6], compute[7]},
                            /*mtbf_s=*/15.0, /*mttr_s=*/1.5, util::seconds(8));
  }

  sim.run();

  result.makespan_s = util::to_seconds(last_finish);
  if (engine.metrics().has_histogram("reschedule_latency_ms")) {
    const auto& h = engine.metrics().histogram("reschedule_latency_ms");
    result.resched_p50_ms = static_cast<double>(h.p50());
    result.resched_p95_ms = static_cast<double>(h.p95());
  }
  // A batch gang restarts as a unit: each abort is one restart.
  result.hpc_restarts = orch.metrics().counter("gang_restarts");
  result.gang_aborts = result.hpc_restarts;
  if (orch.metrics().has_histogram("work_lost_ms")) {
    const auto& h = orch.metrics().histogram("work_lost_ms");
    result.hpc_work_lost_s = h.mean() * static_cast<double>(h.count()) / 1e3;
  }
  result.underrep_obj_s = store.under_replicated_object_seconds();
  result.objects_repaired = store.metrics().counter("objects_repaired");
  result.degraded_reads = store.metrics().counter("degraded_reads");
  result.lost_objects = store.lost_objects();
  result.failures_injected = injector.failures_injected();
  result.downtime_node_s = injector.downtime_node_seconds();
  if (tracer) {
    tracer->close_open_spans();
    *tracer_out = std::move(tracer);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool tracing = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) tracing = true;
  }
  std::unique_ptr<trace::Tracer> base_tr, rec_tr, off_tr;
  const ScenarioResult base =
      run_scenario("fault-free", false, true, tracing ? &base_tr : nullptr);
  const ScenarioResult rec =
      run_scenario("recovery-on", true, true, tracing ? &rec_tr : nullptr);
  const ScenarioResult off =
      run_scenario("recovery-off", true, false, tracing ? &off_tr : nullptr);

  core::Table table("F10: node failures across dataflow + HPC + storage",
                    {"scenario", "makespan", "jobs ok/fail", "killed",
                     "re-exec", "retries", "resched p95", "hpc restarts",
                     "work lost"});
  auto row = [&](const ScenarioResult& r) {
    table.add_row({r.name, util::fixed(r.makespan_s, 2) + " s",
                   std::to_string(r.jobs_ok) + "/" +
                       std::to_string(r.jobs_failed),
                   std::to_string(r.tasks_killed),
                   std::to_string(r.tasks_reexecuted),
                   std::to_string(r.task_retries),
                   util::fixed(r.resched_p95_ms, 0) + " ms",
                   std::to_string(r.hpc_restarts),
                   util::fixed(r.hpc_work_lost_s, 1) + " s"});
  };
  row(base);
  row(rec);
  row(off);
  table.print();

  core::Table stores("F10b: storage degradation and repair",
                     {"scenario", "underrep obj-s", "repaired",
                      "degraded reads", "lost", "node downtime"});
  auto srow = [&](const ScenarioResult& r) {
    stores.add_row({r.name, util::fixed(r.underrep_obj_s, 1),
                    std::to_string(r.objects_repaired),
                    std::to_string(r.degraded_reads),
                    std::to_string(r.lost_objects),
                    util::fixed(r.downtime_node_s, 1) + " node-s"});
  };
  srow(base);
  srow(rec);
  srow(off);
  std::cout << "\n";
  stores.print();
  std::cout << "\nShape check: recovery-on completes every job despite "
            << rec.failures_injected
            << " injected failures; recovery-off loses jobs and leaves "
               "objects under-replicated for the rest of the run.\n";

  core::MetricsReport report("f10_faults");
  auto emit = [&](const std::string& prefix, const ScenarioResult& r) {
    report.set(prefix + "_makespan_s", r.makespan_s);
    report.set(prefix + "_jobs_ok", static_cast<std::int64_t>(r.jobs_ok));
    report.set(prefix + "_jobs_failed",
               static_cast<std::int64_t>(r.jobs_failed));
    report.set(prefix + "_tasks_killed", r.tasks_killed);
    report.set(prefix + "_tasks_reexecuted", r.tasks_reexecuted);
    report.set(prefix + "_map_outputs_lost", r.outputs_lost);
    report.set(prefix + "_task_retries", r.task_retries);
    report.set(prefix + "_reschedule_p50_ms", r.resched_p50_ms);
    report.set(prefix + "_reschedule_p95_ms", r.resched_p95_ms);
    report.set(prefix + "_hpc_restarts", r.hpc_restarts);
    report.set(prefix + "_hpc_gang_aborts", r.gang_aborts);
    report.set(prefix + "_hpc_work_lost_s", r.hpc_work_lost_s);
    report.set(prefix + "_under_replicated_object_s", r.underrep_obj_s);
    report.set(prefix + "_objects_repaired", r.objects_repaired);
    report.set(prefix + "_degraded_reads", r.degraded_reads);
    report.set(prefix + "_objects_lost", r.lost_objects);
    report.set(prefix + "_failures_injected", r.failures_injected);
    report.set(prefix + "_downtime_node_s", r.downtime_node_s);
  };
  emit("baseline", base);
  emit("recovery", rec);
  emit("norecovery", off);
  report.set("recovery_makespan_overhead",
             base.makespan_s > 0 ? rec.makespan_s / base.makespan_s : 0.0);

  if (tracing) {
    std::cout << "wrote "
              << trace::write_chrome_trace(
                     "f10_faults",
                     {{"f10/fault-free", base_tr.get()},
                      {"f10/recovery-on", rec_tr.get()},
                      {"f10/recovery-off", off_tr.get()}})
              << "\n";
  }
  if (core::json_mode(argc, argv)) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
