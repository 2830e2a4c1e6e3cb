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

/// One scenario, recorded into `report` under `p`.
void run_scenario(bool faults, bool recovery, core::MetricsReport& report,
                  const std::string& p,
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

  std::int64_t jobs_ok = 0, jobs_failed = 0, tasks_killed = 0,
               tasks_reexecuted = 0, outputs_lost = 0, task_retries = 0;
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
                   s.failed ? ++jobs_failed : ++jobs_ok;
                   tasks_killed += s.tasks_killed;
                   tasks_reexecuted += s.tasks_reexecuted;
                   outputs_lost += s.map_outputs_lost;
                   task_retries += s.task_retries;
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

  double resched_p50_ms = 0, resched_p95_ms = 0, hpc_work_lost_s = 0;
  if (engine.metrics().has_histogram("reschedule_latency_ms")) {
    const auto& h = engine.metrics().histogram("reschedule_latency_ms");
    resched_p50_ms = static_cast<double>(h.p50());
    resched_p95_ms = static_cast<double>(h.p95());
  }
  if (orch.metrics().has_histogram("work_lost_ms")) {
    const auto& h = orch.metrics().histogram("work_lost_ms");
    hpc_work_lost_s = h.mean() * static_cast<double>(h.count()) / 1e3;
  }
  report.set(p + "makespan_s", util::to_seconds(last_finish));
  report.set(p + "jobs_ok", jobs_ok);
  report.set(p + "jobs_failed", jobs_failed);
  report.set(p + "tasks_killed", tasks_killed);
  report.set(p + "tasks_reexecuted", tasks_reexecuted);
  report.set(p + "map_outputs_lost", outputs_lost);
  report.set(p + "task_retries", task_retries);
  report.set(p + "reschedule_p50_ms", resched_p50_ms);
  report.set(p + "reschedule_p95_ms", resched_p95_ms);
  // A batch gang restarts as a unit: each abort is one restart.
  report.set(p + "hpc_restarts", orch.metrics().counter("gang_restarts"));
  report.set(p + "hpc_gang_aborts", orch.metrics().counter("gang_restarts"));
  report.set(p + "hpc_work_lost_s", hpc_work_lost_s);
  report.set(p + "under_replicated_object_s",
             store.under_replicated_object_seconds());
  report.set(p + "objects_repaired",
             store.metrics().counter("objects_repaired"));
  report.set(p + "degraded_reads", store.metrics().counter("degraded_reads"));
  report.set(p + "objects_lost", store.lost_objects());
  report.set(p + "failures_injected", injector.failures_injected());
  report.set(p + "downtime_node_s", injector.downtime_node_seconds());
  if (tracer) {
    tracer->close_open_spans();
    *tracer_out = std::move(tracer);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool tracing = core::has_flag(argc, argv, "--trace");
  core::MetricsReport report("f10_faults");
  std::unique_ptr<trace::Tracer> base_tr, rec_tr, off_tr;
  run_scenario(false, true, report, "baseline_", tracing ? &base_tr : nullptr);
  run_scenario(true, true, report, "recovery_", tracing ? &rec_tr : nullptr);
  run_scenario(true, false, report, "norecovery_",
               tracing ? &off_tr : nullptr);
  const core::Row base(report, "baseline_"), rec(report, "recovery_");
  report.set("recovery_makespan_overhead",
             base["makespan_s"].real() > 0
                 ? rec["makespan_s"].real() / base["makespan_s"].real()
                 : 0.0);

  const std::vector<std::pair<std::string, std::string>> rows = {
      {"fault-free", "baseline_"},
      {"recovery-on", "recovery_"},
      {"recovery-off", "norecovery_"}};
  core::Table("F10: node failures across dataflow + HPC + storage", report,
              "scenario", rows,
              {{"makespan", "makespan_s", core::decimals(2, " s")},
               {"jobs ok/fail",
                [](const core::Row& r) {
                  return std::to_string(r["jobs_ok"].count()) + "/" +
                         std::to_string(r["jobs_failed"].count());
                }},
               {"killed", "tasks_killed"},
               {"re-exec", "tasks_reexecuted"},
               {"retries", "task_retries"},
               {"resched p95", "reschedule_p95_ms", core::decimals(0, " ms")},
               {"hpc restarts", "hpc_restarts"},
               {"work lost", "hpc_work_lost_s", core::decimals(1, " s")}})
      .print();
  std::cout << "\n";
  core::Table(
      "F10b: storage degradation and repair", report, "scenario", rows,
      {{"underrep obj-s", "under_replicated_object_s", core::decimals(1)},
       {"repaired", "objects_repaired"},
       {"degraded reads", "degraded_reads"},
       {"lost", "objects_lost"},
       {"node downtime", "downtime_node_s", core::decimals(1, " node-s")}})
      .print();
  std::cout << "\nShape check: recovery-on completes every job despite "
            << rec["failures_injected"].count()
            << " injected failures; recovery-off loses jobs and leaves "
               "objects under-replicated for the rest of the run.\n";

  if (tracing) {
    std::cout << "wrote "
              << trace::write_chrome_trace(
                     "f10_faults",
                     {{"f10/fault-free", base_tr.get()},
                      {"f10/recovery-on", rec_tr.get()},
                      {"f10/recovery-off", off_tr.get()}})
              << "\n";
  }
  if (core::has_flag(argc, argv, "--json")) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
