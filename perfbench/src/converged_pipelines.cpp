// converged-pipelines: the paper's converged case. A seeded Poisson
// stream of mixed workflows shares one core::Platform: urban-mobility
// analytics, ML featurize -> SGD -> accelerator scoring, a
// join/sessionize -> MPI chain, and genomics QC -> FPGA -> assembly.
// Every instance has its own datasets on a rack-aware erasure-coded
// store with hedged reads, and one storage server loses its disks for a
// fixed window, so degraded reads and throttled rebuild run alongside
// the foreground reads and writes.
#include <memory>
#include <string>

#include "common.hpp"
#include "core/platform.hpp"
#include "fault/fault_injector.hpp"
#include "fault/wiring.hpp"
#include "util/rng.hpp"
#include "workflow/workflow.hpp"
#include "workloads/ml.hpp"
#include "workloads/tabular.hpp"

namespace perfbench {

using namespace evolve;

namespace {

constexpr int kWorkflows = 450;
constexpr double kArrivalsPerS = 1.2;
constexpr int kShapes = 4;
constexpr int kExecutors = 4;
constexpr int kSlots = 4;
constexpr int kRanks = 4;
constexpr util::Bytes kBigInput = 256 * util::kMiB;
constexpr int kBigPartitions = 4;
constexpr util::Bytes kSmallInput = 16 * util::kMiB;
constexpr int kSmallPartitions = 2;
constexpr util::TimeNs kOutageAt = util::seconds(40);
constexpr util::TimeNs kOutageFor = util::seconds(60);
/// A workflow meets its SLO when it finishes within this long of being
/// due: about 1.5x the median workflow time.
constexpr util::TimeNs kSlo = util::seconds(7);

// Dataflow job statistics summed over every job of the run.
struct DataflowTotals {
  std::int64_t jobs = 0;
  std::int64_t failed = 0;
  std::int64_t tasks = 0;
  std::int64_t local_tasks = 0;
  std::int64_t task_retries = 0;
  std::int64_t speculative_launched = 0;
  std::int64_t speculative_wins = 0;
  util::Bytes shuffled = 0;

  void add(const dataflow::JobStats& s) {
    ++jobs;
    failed += s.failed ? 1 : 0;
    tasks += s.tasks;
    local_tasks += s.local_tasks;
    task_retries += s.task_retries;
    speculative_launched += s.speculative_launched;
    speculative_wins += s.speculative_wins;
    shuffled += s.bytes_shuffled;
  }
};

// The platform's own dataflow dispatch, with the job statistics kept.
workflow::Step dataflow_step(core::Platform& platform, DataflowTotals& totals,
                             std::string name, dataflow::LogicalPlan plan) {
  return workflow::custom_step(
      std::move(name),
      [&platform, &totals, plan = std::move(plan)](
          std::function<void(bool)> done) {
        platform.run_dataflow(plan, kExecutors, kSlots,
                              [&totals, done](const dataflow::JobStats& s) {
                                totals.add(s);
                                done(!s.failed);
                              });
      });
}

hpc::MpiProgram mpi_program(int iterations, util::TimeNs compute,
                            util::Bytes allreduce) {
  hpc::MpiProgram program;
  program.iterations = iterations;
  program.compute_per_iteration = compute;
  program.allreduce_bytes = allreduce;
  program.algo = hpc::CollectiveAlgo::kRing;
  return program;
}

orch::PodSpec container(const std::string& name, const std::string& tenant) {
  orch::PodSpec pod;
  pod.name = name;
  pod.tenant = tenant;
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  return pod;
}

void stage(storage::DatasetCatalog& catalog, const std::string& name,
           util::Bytes bytes, int partitions) {
  catalog.define(storage::DatasetSpec{name, partitions, bytes});
  catalog.preload(name);
}

workflow::Step after(workflow::Step step, const std::string& dependency) {
  step.depends_on = {dependency};
  return step;
}

// One workflow instance of `shape`; its datasets carry the suffix "-<i>".
workflow::Workflow build(core::Platform& platform, DataflowTotals& totals,
                         int shape, int i) {
  const std::string n = "-" + std::to_string(i);
  storage::DatasetCatalog& catalog = platform.catalog();
  switch (shape) {
    case 0: {  // urban mobility
      stage(catalog, "gps" + n, kBigInput, kBigPartitions);
      stage(catalog, "routes" + n, kSmallInput, kSmallPartitions);
      workflow::Workflow wf("mobility" + n);
      wf.add(workflow::container_step(
          "validate", container("trace-validator", "mobility"),
          util::seconds(2)));
      wf.add(after(dataflow_step(platform, totals, "route-analytics",
                                 workloads::join_aggregate(
                                     "gps" + n, "routes" + n, "stats" + n, 8)),
                   "validate"));
      wf.add(after(workflow::hpc_step(
                       "clustering",
                       mpi_program(6, util::millis(100), 4 * util::kMiB),
                       kRanks),
                   "route-analytics"));
      wf.add(after(workflow::container_step(
                       "serve", container("mobility-api", "mobility"),
                       util::seconds(1)),
                   "clustering"));
      return wf;
    }
    case 1: {  // ML: featurize -> SGD -> accelerator scoring
      stage(catalog, "samples" + n, kBigInput, kBigPartitions);
      workflow::Workflow wf("ml" + n);
      wf.add(dataflow_step(platform, totals, "featurize",
                           workloads::featurize("samples" + n,
                                                "features" + n)));
      workloads::SgdModel model;
      model.parameters_bytes = 16 * util::kMiB;
      model.epochs = 4;
      model.epoch_compute = util::seconds(2);
      wf.add(after(workflow::hpc_step(
                       "train", workloads::sgd_program(model, kRanks), kRanks),
                   "featurize"));
      wf.add(after(workflow::accel_step("score", "dnn-infer", util::seconds(4)),
                   "train"));
      return wf;
    }
    case 2: {  // analytics chain: join -> sessionize -> MPI
      stage(catalog, "events" + n, kBigInput, kBigPartitions);
      stage(catalog, "catalog" + n, kSmallInput, kSmallPartitions);
      workflow::Workflow wf("chain" + n);
      wf.add(dataflow_step(
          platform, totals, "join",
          workloads::join_aggregate("events" + n, "catalog" + n, "joined" + n,
                                    8)));
      wf.add(after(dataflow_step(platform, totals, "sessionize",
                                 workloads::sessionize("joined" + n,
                                                       "sessions" + n, 8)),
                   "join"));
      wf.add(after(workflow::hpc_step(
                       "simulate",
                       mpi_program(5, util::millis(100), 4 * util::kMiB),
                       kRanks),
                   "sessionize"));
      return wf;
    }
    default: {  // genomics: QC -> FPGA pattern match -> assembly
      stage(catalog, "reads" + n, kBigInput, kBigPartitions);
      dataflow::LogicalPlan qc;
      const int src = qc.add_source("reads" + n);
      const int trimmed = qc.add_map(src, "trim-adapters", 0.95, 0.8);
      const int kept = qc.add_filter(trimmed, "quality-filter", 0.8, 0.5);
      qc.add_sink(kept, "clean" + n);
      workflow::Workflow wf("genomics" + n);
      wf.add(dataflow_step(platform, totals, "qc", std::move(qc)));
      wf.add(after(
          workflow::accel_step("pattern-match", "pattern-match",
                               util::seconds(20)),
          "qc"));
      wf.add(after(workflow::hpc_step(
                       "assembly",
                       mpi_program(8, util::millis(100), 8 * util::kMiB),
                       kRanks),
                   "pattern-match"));
      wf.add(after(workflow::container_step(
                       "publish", container("genomics-api", "genomics"),
                       util::seconds(1)),
                   "assembly"));
      return wf;
    }
  }
}

}  // namespace

RunResult run_converged_pipelines(const RunOptions& options) {
  RunResult result;
  const double t_build = thread_cpu_s();
  sim::Simulation sim;
  core::PlatformConfig config;
  config.compute_nodes = 12;
  config.storage_nodes = 8;
  config.accel_nodes = 2;
  config.racks = 4;
  config.store.redundancy = storage::Redundancy::kErasure;
  config.store.ec_data = 4;
  config.store.ec_parity = 2;
  config.store.rack_aware_placement = true;
  config.store.hedged_reads = true;
  config.store.rebuild_bandwidth_bytes_per_s = 200.0 * util::kMiB;
  config.store.repair_seed = derive_seed(options.seed, 2);
  config.dataflow.speculation = true;
  config.dataflow.straggler_probability = 0.02;
  config.dataflow.straggler_seed = derive_seed(options.seed, 3);
  core::Platform platform(sim, config);

  // One storage server loses its disks for a fixed window: its fragments
  // are rebuilt under the bandwidth cap while reads run degraded.
  fault::FaultInjector faults(sim);
  fault::connect(faults, platform.store());
  const auto storage_nodes =
      platform.cluster().nodes_with_label("role=storage");
  faults.schedule_outage(storage_nodes.front(), kOutageAt, kOutageFor);

  std::unique_ptr<trace::Tracer> tracer;
  if (options.traced) {
    tracer = std::make_unique<trace::Tracer>(sim);
    platform.set_tracer(tracer.get());
  }
  result.build_s = thread_cpu_s() - t_build;

  // Input generation and dataset staging: a fixed count of workflows
  // with exponential gaps and a uniform shape mix.
  const double t_stage = thread_cpu_s();
  DataflowTotals dataflow_totals;
  HostTimer submit_timer(options.traced);
  std::int64_t retries = 0;
  util::TimeNs offload_ns = 0;  // accelerator steps, submit to done
  util::TimeNs busy_ns = 0;     // device time those steps needed
  util::Rng rng(derive_seed(options.seed, 1));
  util::TimeNs due = 0;
  for (int i = 0; i < kWorkflows; ++i) {
    due += static_cast<util::TimeNs>(rng.exponential(kArrivalsPerS) * 1e9);
    const int shape = static_cast<int>(rng.uniform_int(0, kShapes - 1));
    result.arrival_digest = digest(digest(result.arrival_digest, due), shape);
    auto wf = std::make_shared<workflow::Workflow>(
        build(platform, dataflow_totals, shape, i));
    sim.at(due, [&, wf, due] {
      submit_timer.time([&] {
        platform.run_workflow(*wf, [&, wf, due](
                                       const workflow::WorkflowResult& r) {
          if (!r.success) {
            ++result.failed;
            return;
          }
          ++result.completed;
          retries += r.total_retries;
          const util::TimeNs latency = sim.now() - due;
          result.latency_ms.push_back(util::to_millis(latency));
          if (latency <= kSlo) ++result.within_slo;
          for (const auto& [name, step] : r.steps) {
            const workflow::Step& spec = wf->step(name);
            if (spec.kind != workflow::StepKind::kAccel) continue;
            offload_ns += step.duration();
            busy_ns += platform.accel().device_work(spec.kernel,
                                                    spec.accel_cpu_time);
          }
        });
      });
    });
  }
  result.offered = kWorkflows;
  result.stage_s = thread_cpu_s() - t_stage;
  if (options.setup_only) return result;

  run_timed(sim, due, result);

  // -- Invariants at drain ---------------------------------------------
  result.check(result.offered == result.completed + result.failed,
               "submitted workflows != succeeded + failed");
  result.check(result.failed == 0, "a workflow failed");
  result.check(dataflow_totals.failed == 0, "a dataflow job failed");
  result.check(platform.fabric().stats().flows_in_flight == 0,
               "fabric flows in flight at drain");
  result.check(platform.orchestrator().running_count() == 0 &&
                   platform.orchestrator().pending_count() == 0,
               "pods left bound at drain");
  result.check(platform.store().lost_objects() == 0, "objects lost");

  // -- Per-layer metrics from public accessors -------------------------
  MetricSet& m = result.layers;
  const net::FlowStats& flows = platform.fabric().stats();
  m.set("net.flows", static_cast<double>(flows.flows_started), "count");
  m.set("net.bytes", static_cast<double>(flows.bytes_delivered), "B");
  m.set("net.flows_leaked", static_cast<double>(flows.flows_in_flight),
        "count");
  storage::ObjectStore& store = platform.store();
  const metrics::Registry& sm = store.metrics();
  m.set("store.gets", static_cast<double>(sm.counter("get_requests")),
        "count");
  m.set("store.puts", static_cast<double>(sm.counter("put_requests")),
        "count");
  m.set("store.get_p99_ms",
        static_cast<double>(sm.histogram("get_latency_us").p99()) / 1e3, "ms");
  m.set("store.put_p99_ms",
        static_cast<double>(sm.histogram("put_latency_us").p99()) / 1e3, "ms");
  m.set("store.hedges", static_cast<double>(store.hedges_launched()), "count");
  m.set("store.hedge_win_frac",
        store.hedges_launched() == 0
            ? 0.0
            : static_cast<double>(store.hedge_wins()) /
                  static_cast<double>(store.hedges_launched()),
        "frac");
  m.set("store.degraded_gets", static_cast<double>(sm.counter("degraded_reads")),
        "count");
  m.set("store.repairs", static_cast<double>(sm.counter("objects_repaired")),
        "count");
  m.set("store.rebuild_throttle_wait_s", store.rebuild_throttle_wait_seconds(),
        "s");
  const metrics::Registry& om = platform.orchestrator().metrics();
  m.set("orch.pods_started", static_cast<double>(om.counter("pods_started")),
        "count");
  m.set("orch.pod_wait_p95_s",
        static_cast<double>(om.histogram("pod_wait_ms").p95()) / 1e3, "s");
  m.set("orch.preemptions", static_cast<double>(om.counter("preemptions")),
        "count");
  m.set("df.tasks", static_cast<double>(dataflow_totals.tasks), "count");
  m.set("df.task_retries", static_cast<double>(dataflow_totals.task_retries),
        "count");
  m.set("df.shuffle_bytes", static_cast<double>(dataflow_totals.shuffled), "B");
  m.set("df.locality_frac",
        dataflow_totals.tasks == 0
            ? 0.0
            : static_cast<double>(dataflow_totals.local_tasks) /
                  static_cast<double>(dataflow_totals.tasks),
        "frac");
  m.set("df.speculative_win_frac",
        dataflow_totals.speculative_launched == 0
            ? 0.0
            : static_cast<double>(dataflow_totals.speculative_wins) /
                  static_cast<double>(dataflow_totals.speculative_launched),
        "frac");
  // Accelerator: busy = device time the offloads needed; queue wait =
  // offload time beyond it (queueing for a free device and sharing one).
  m.set("accel.offloads",
        static_cast<double>(platform.accel().metrics().counter("offloads")),
        "count");
  m.set("accel.queue_wait_s", static_cast<double>(offload_ns - busy_ns) / 1e9,
        "s");
  m.set("accel.busy_s", static_cast<double>(busy_ns) / 1e9, "s");
  m.set("wf.step_retries", static_cast<double>(retries), "count");

  // -- Trace-derived metrics ---------------------------------------------
  if (tracer) {
    tracer->close_open_spans();
    result.check(tracer->open_spans() == 0, "open spans after close");
    MetricSet& t = result.traced;
    const auto self = self_seconds(*tracer);
    t.set("net.sim_self_s",
          self[static_cast<std::size_t>(trace::Layer::kNetwork)], "s");
    t.set("store.sim_self_s",
          self[static_cast<std::size_t>(trace::Layer::kStorage)], "s");
    t.set("df.sim_self_s",
          self[static_cast<std::size_t>(trace::Layer::kDataflow)] +
              self[static_cast<std::size_t>(trace::Layer::kShuffle)],
          "s");
    const SpanTotals reduce =
        span_totals(*tracer, "mpi.allreduce", "bytes");
    t.set("hpc.collectives", static_cast<double>(reduce.count), "count");
    t.set("hpc.comm_bytes", reduce.attr_sum, "B");
    t.set("hpc.sim_comm_s", reduce.seconds, "s");
    t.set("hpc.sim_compute_s", span_totals(*tracer, "mpi.compute").seconds,
          "s");
    const auto roots = roots_named(*tracer, "wf.run");
    set_layer_metrics(t, "wf.cp_share.", "",
                      critical_path_shares(*tracer, roots, result), "frac");
    t.set("wf.host_submit_ns", submit_timer.mean_ns(), "ns");
    add_common_trace_metrics(*tracer, roots, result);
  }
  return result;
}

}  // namespace perfbench
