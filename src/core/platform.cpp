#include "core/platform.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/log.hpp"

namespace evolve::core {
namespace {

/// Per-executor resources for dataflow steps.
constexpr std::int64_t kExecutorMillicores = 4000;
constexpr util::Bytes kExecutorMemory = 8 * util::kGiB;
/// Per-rank resources for HPC steps.
constexpr std::int64_t kRankMillicores = 8000;
constexpr util::Bytes kRankMemory = 16 * util::kGiB;

}  // namespace

Platform::Platform(sim::Simulation& sim, PlatformConfig config)
    : Platform(sim, std::move(config), SubstrateOnly{}) {
  storage::DatasetCatalog& catalog =
      add_store(cluster_.nodes_with_label("role=storage"));
  orch::Orchestrator& orchestrator = add_orchestrator(config_.orchestrator);
  const Route shared{&orchestrator, &catalog};
  bring_up(shared, shared, shared);
}

Platform::Platform(sim::Simulation& sim, PlatformConfig config, SubstrateOnly)
    : sim_(sim),
      config_(std::move(config)),
      cluster_(cluster::make_testbed(config_.compute_nodes,
                                     config_.storage_nodes,
                                     config_.accel_nodes, config_.racks)) {
  topology_ = std::make_unique<net::Topology>(cluster_);
  fabric_ = std::make_unique<net::Fabric>(sim_, *topology_);
  io_ = std::make_unique<storage::IoSubsystem>(sim_, cluster_);
}

storage::DatasetCatalog& Platform::add_store(
    std::vector<cluster::NodeId> servers) {
  stores_.push_back(std::make_unique<storage::ObjectStore>(
      sim_, cluster_, *fabric_, *io_, std::move(servers), config_.store));
  catalogs_.push_back(
      std::make_unique<storage::DatasetCatalog>(*stores_.back()));
  return *catalogs_.back();
}

orch::Orchestrator& Platform::add_orchestrator(
    orch::OrchestratorConfig config) {
  orchestrators_.push_back(std::make_unique<orch::Orchestrator>(
      sim_, cluster_, orch::SchedulingPolicy::spreading(cluster_),
      std::move(config)));
  return *orchestrators_.back();
}

void Platform::bring_up(Route cloud, Route bigdata, Route hpc) {
  routes_ = {cloud, bigdata, hpc};
  dataflow_ = std::make_unique<dataflow::DataflowEngine>(
      sim_, cluster_, *fabric_, *io_, *bigdata.catalog, config_.dataflow);
  accel_ = std::make_unique<accel::AccelPool>(
      sim_, cluster_, accel::KernelRegistry::standard(),
      config_.accel_device);
  workflow_engine_ = std::make_unique<workflow::WorkflowEngine>(sim_, *this);
}

void Platform::run_workflow(
    const workflow::Workflow& wf,
    std::function<void(const workflow::WorkflowResult&)> cb) {
  workflow_engine_->run(wf, std::move(cb));
}

void Platform::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  fabric_->set_tracer(tracer);
  for (const auto& store : stores_) store->set_tracer(tracer);
  for (const auto& orchestrator : orchestrators_) {
    orchestrator->set_tracer(tracer);
  }
  dataflow_->set_tracer(tracer);
  workflow_engine_->set_tracer(tracer);
}

storage::DatasetCatalog* Platform::catalog_with(const std::string& dataset) {
  for (const auto& catalog : catalogs_) {
    if (catalog->defined(dataset) && catalog->materialized(dataset)) {
      return catalog.get();
    }
  }
  return nullptr;
}

void Platform::stage_dataset(const std::string& dataset,
                             storage::DatasetCatalog& target,
                             std::function<void()> on_done) {
  if (target.defined(dataset) && target.materialized(dataset)) {
    on_done();
    return;
  }
  storage::DatasetCatalog* source = catalog_with(dataset);
  if (source == nullptr) {
    throw std::invalid_argument("dataset not found in any catalog: " +
                                dataset);
  }
  const storage::DatasetSpec spec = source->spec(dataset);
  target.define(spec);
  target.store().create_bucket(dataset);
  ++staging_ops_;
  staged_bytes_ += spec.total_bytes;

  // Gateway: the first node of the target store's server set; each
  // partition flows source server -> gateway -> target server. The PUTs
  // start from GET callbacks, so they re-enter the stager's trace
  // context explicitly.
  const cluster::NodeId gateway = target.store().servers().front();
  const trace::SpanId trace_parent =
      tracer_ ? tracer_->current() : trace::kNoSpan;
  auto remaining = std::make_shared<int>(spec.partitions);
  auto done = std::make_shared<std::function<void()>>(std::move(on_done));
  auto* target_ptr = &target;  // safe: catalogs live as long as the platform
  for (int i = 0; i < spec.partitions; ++i) {
    const auto key = storage::partition_key(spec, i);
    source->store().get(
        gateway, key,
        [this, key, gateway, remaining, done, target_ptr,
         trace_parent](const storage::GetResult& result) {
          if (!result.found) {
            throw std::logic_error("staged partition vanished: " + key.full());
          }
          trace::ScopedContext tctx(tracer_, trace_parent);
          target_ptr->store().put(gateway, key, result.size,
                                  [remaining, done] {
                                    if (--*remaining == 0) (*done)();
                                  });
        });
  }
}

void Platform::with_inputs(World world, const std::vector<std::string>& inputs,
                           std::function<void()> start) {
  storage::DatasetCatalog& target = catalog(world);
  std::vector<std::string> to_stage;
  for (const std::string& input : inputs) {
    if (target.defined(input) && target.materialized(input)) continue;
    if (catalog_with(input) == nullptr) {
      throw std::invalid_argument("input dataset not materialized: " + input);
    }
    if (std::find(to_stage.begin(), to_stage.end(), input) ==
        to_stage.end()) {
      to_stage.push_back(input);
    }
  }
  if (to_stage.empty()) {
    start();
    return;
  }
  const trace::SpanId trace_parent =
      tracer_ ? tracer_->current() : trace::kNoSpan;
  auto remaining = std::make_shared<std::size_t>(to_stage.size());
  for (const std::string& input : to_stage) {
    stage_dataset(input, target,
                  [this, remaining, start, trace_parent] {
                    if (--*remaining > 0) return;
                    trace::ScopedContext tctx(tracer_, trace_parent);
                    start();
                  });
  }
}

std::vector<cluster::NodeId> Platform::executor_preferences(
    const dataflow::LogicalPlan& plan) {
  if (!config_.locality_placement) return {};
  storage::DatasetCatalog& data = catalog(World::kBigData);
  const std::vector<cluster::NodeId> managed =
      orchestrator(World::kBigData).managed_nodes();
  std::vector<cluster::NodeId> preferred;
  for (const dataflow::Operator& op : plan.ops()) {
    if (op.kind != dataflow::OpKind::kSource) continue;
    if (!data.defined(op.dataset)) continue;
    for (const auto& replicas : data.locations(op.dataset)) {
      for (cluster::NodeId node : replicas) {
        if (std::binary_search(managed.begin(), managed.end(), node) &&
            std::find(preferred.begin(), preferred.end(), node) ==
                preferred.end()) {
          preferred.push_back(node);
        }
      }
    }
  }
  return preferred;
}

void Platform::run_dataflow(
    const dataflow::LogicalPlan& plan, int executors, int slots,
    std::function<void(const dataflow::JobStats&)> cb) {
  start_dataflow(plan, executors, slots, {}, std::move(cb));
}

void Platform::run_hpc(const hpc::MpiProgram& program, int ranks,
                       std::function<void(const hpc::MpiRunStats&)> cb) {
  start_hpc(program, ranks, {}, std::move(cb));
}

void Platform::start_dataflow(
    const dataflow::LogicalPlan& plan, int executors, int slots,
    std::vector<std::string> inputs,
    std::function<void(const dataflow::JobStats&)> cb) {
  if (executors <= 0 || slots <= 0) {
    throw std::invalid_argument("dataflow job needs executors and slots");
  }
  // Validate the plan up front (synchronously) so a malformed one fails
  // here rather than inside a later scheduling event.
  (void)dataflow::PhysicalPlan::compile(plan);
  for (const dataflow::Operator& op : plan.ops()) {
    if (op.kind == dataflow::OpKind::kSource) inputs.push_back(op.dataset);
  }
  with_inputs(
      World::kBigData, inputs,
      [this, plan, executors, slots, cb] {
        acquire_executors(plan, executors, slots, cb);
      });
}

void Platform::acquire_executors(
    const dataflow::LogicalPlan& plan, int executors, int slots,
    std::function<void(const dataflow::JobStats&)> cb) {
  orch::Orchestrator& orchestrator = this->orchestrator(World::kBigData);
  struct Acquire {
    std::vector<orch::PodId> pods;
    std::vector<dataflow::ExecutorSpec> specs;
    int remaining;
  };
  auto acquire = std::make_shared<Acquire>();
  acquire->remaining = executors;

  orch::PodSpec pod;
  pod.name = "dataflow-exec";
  pod.tenant = "dataflow";
  pod.request = cluster::cpu_mem(kExecutorMillicores, kExecutorMemory);
  pod.preferred_nodes = executor_preferences(plan);

  // Executor pods start from a scheduler event where the submitter's
  // trace context is gone; capture it now so the dataflow job span
  // still parents under e.g. the workflow step that launched it.
  const trace::SpanId trace_parent =
      tracer_ ? tracer_->current() : trace::kNoSpan;
  for (int i = 0; i < executors; ++i) {
    orch::PodSpec spec = pod;
    spec.name = "dataflow-exec-" + std::to_string(i);
    acquire->pods.push_back(orchestrator.submit(
        spec, /*duration=*/-1,
        [this, &orchestrator, acquire, slots, plan, cb,
         trace_parent](orch::PodId, cluster::NodeId node) {
          acquire->specs.push_back(dataflow::ExecutorSpec{node, slots});
          if (--acquire->remaining > 0) return;
          trace::ScopedContext tctx(tracer_, trace_parent);
          dataflow_->run(plan, acquire->specs,
                         [&orchestrator, acquire,
                          cb](const dataflow::JobStats& stats) {
                           for (orch::PodId pod_id : acquire->pods) {
                             orchestrator.finish(pod_id);
                           }
                           cb(stats);
                         });
        }));
  }
}

void Platform::start_hpc(const hpc::MpiProgram& program, int ranks,
                         const std::vector<std::string>& inputs,
                         std::function<void(const hpc::MpiRunStats&)> cb,
                         std::function<void()> on_killed) {
  if (ranks <= 0) throw std::invalid_argument("hpc job needs ranks");
  with_inputs(World::kHpc, inputs, [this, program, ranks, cb, on_killed] {
    launch_gang(program, ranks, cb, on_killed);
  });
}

void Platform::launch_gang(const hpc::MpiProgram& program, int ranks,
                           std::function<void(const hpc::MpiRunStats&)> cb,
                           std::function<void()> on_killed) {
  orch::Orchestrator& orchestrator = this->orchestrator(World::kHpc);
  struct Gang {
    std::vector<orch::PodId> pods;
    std::vector<cluster::NodeId> rank_nodes;
    std::shared_ptr<hpc::Communicator> comm;
    int remaining;
    std::function<void()> on_killed;
    bool killed = false;
  };
  auto gang = std::make_shared<Gang>();
  gang->remaining = ranks;
  gang->on_killed = std::move(on_killed);
  gang->rank_nodes.resize(static_cast<std::size_t>(ranks),
                          cluster::kInvalidNode);

  std::vector<orch::PodSpec> specs;
  specs.reserve(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    orch::PodSpec spec;
    spec.name = "mpi-rank-" + std::to_string(r);
    spec.tenant = "hpc";
    spec.request = cluster::cpu_mem(kRankMillicores, kRankMemory);
    specs.push_back(std::move(spec));
  }

  // submit_gang reports starts per pod; recover the rank from the pod id.
  // As in acquire_executors, capture the submitter's trace context so
  // the MPI phase spans parent under the launching step.
  const trace::SpanId trace_parent =
      tracer_ ? tracer_->current() : trace::kNoSpan;
  auto on_start = [this, &orchestrator, gang, program, cb, trace_parent](
                      orch::PodId id, cluster::NodeId node) {
    const auto it = std::find(gang->pods.begin(), gang->pods.end(), id);
    const auto rank = static_cast<std::size_t>(it - gang->pods.begin());
    gang->rank_nodes[rank] = node;
    if (--gang->remaining > 0) return;
    gang->comm = std::make_shared<hpc::Communicator>(
        sim_, *fabric_, gang->rank_nodes);
    trace::ScopedContext tctx(tracer_, trace_parent);
    hpc::run_mpi_program(
        sim_, *gang->comm, program,
        [&orchestrator, gang, cb](const hpc::MpiRunStats& stats) {
          // There is no collective cancel: a killed gang's program runs
          // out on the fabric, and the kill has already been reported.
          if (gang->killed) return;
          for (orch::PodId pod_id : gang->pods) orchestrator.finish(pod_id);
          cb(stats);
        },
        tracer_);
  };
  // A crash or drain that kills one rank pod kills the gang.
  auto on_finish = [gang](orch::PodId, orch::PodPhase phase) {
    if (phase != orch::PodPhase::kFailed || gang->killed) return;
    gang->killed = true;
    if (gang->on_killed) gang->on_killed();
  };

  gang->pods = orchestrator.submit_gang(specs, /*duration=*/-1, on_start,
                                        on_finish);
}

void Platform::run_step(const workflow::Step& step,
                        std::function<void(bool)> on_done) {
  using workflow::StepKind;
  try {
    switch (step.kind) {
      case StepKind::kContainer: {
        orchestrator(World::kCloud)
            .submit(step.pod, step.pod_duration, {},
                    [on_done](orch::PodId, orch::PodPhase phase) {
                      on_done(phase == orch::PodPhase::kSucceeded);
                    });
        return;
      }
      case StepKind::kDataflow:
        start_dataflow(
            step.plan, step.dataflow_executors, step.dataflow_slots,
            step.input_datasets,
            [on_done](const dataflow::JobStats&) { on_done(true); });
        return;
      case StepKind::kHpc:
        start_hpc(
            step.mpi, step.hpc_ranks, step.input_datasets,
            [on_done](const hpc::MpiRunStats&) { on_done(true); },
            [on_done] { on_done(false); });
        return;
      case StepKind::kAccel: {
        const trace::SpanId span = trace::begin_span(
            tracer_, trace::Layer::kAccel, "accel.offload");
        if (span != trace::kNoSpan) {
          tracer_->annotate(span, "kernel", step.kernel);
        }
        accel_->offload(step.kernel, step.accel_cpu_time,
                        cluster::kInvalidNode, [this, span, on_done] {
                          trace::end_span(tracer_, span);
                          on_done(true);
                        });
        return;
      }
      case StepKind::kCustom:
        if (!step.custom) throw std::invalid_argument("custom step w/o body");
        step.custom(on_done);
        return;
    }
    throw std::logic_error("unknown step kind");
  } catch (const std::exception& e) {
    EVOLVE_LOG(kWarn, "platform") << "step '" << step.name
                                  << "' failed: " << e.what();
    on_done(false);
  }
}

}  // namespace evolve::core
