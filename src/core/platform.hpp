// The EVOLVE converged platform: one cluster, one shared object store,
// one unified scheduler serving cloud pods, dataflow jobs, HPC gangs,
// and accelerator offloads — plus the workflow engine that mixes them.
//
// This is the paper's primary contribution assembled from the substrate
// libraries: Kubernetes-style orchestration (orch), Spark-style
// analytics (dataflow), MPI-style HPC (hpc), H3-style storage (storage),
// and FPGA sharing (accel), all on one simulated testbed. The siloed
// baseline (core/siloed.hpp) is a second layout of the same class.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accel/pool.hpp"
#include "cluster/cluster.hpp"
#include "dataflow/engine.hpp"
#include "hpc/communicator.hpp"
#include "hpc/job.hpp"
#include "net/fabric.hpp"
#include "orch/controllers.hpp"
#include "orch/scheduler.hpp"
#include "sim/simulation.hpp"
#include "storage/dataset.hpp"
#include "storage/object_store.hpp"
#include "trace/tracer.hpp"
#include "workflow/engine.hpp"

namespace evolve::core {

struct PlatformConfig {
  int compute_nodes = 8;
  int storage_nodes = 4;
  int accel_nodes = 2;
  int racks = 2;
  storage::ObjectStoreConfig store;
  dataflow::DataflowConfig dataflow;
  orch::OrchestratorConfig orchestrator;
  accel::DeviceConfig accel_device;
  /// When true, dataflow executors prefer the storage nodes holding the
  /// job's input (converged data locality). Ablation switch.
  bool locality_placement = true;
};

/// The three worlds EVOLVE converges. Each world runs its steps on an
/// (orchestrator, catalog) pair: the converged platform routes all three
/// to one orchestrator and one catalog, the siloed baseline
/// (core/siloed.hpp) to partitions of the same hardware.
enum class World { kCloud, kBigData, kHpc };

/// One platform, two layouts. Every step, dataflow job and MPI gang runs
/// through the same code; the layouts differ only in the routing table
/// built by the constructor. A step's inputs are resolved in its world's
/// catalog: used in place when materialized there (always, converged),
/// staged through a gateway when another catalog holds them, and
/// otherwise the step fails. Executor locality preferences keep only the
/// nodes the world's orchestrator manages.
class Platform : public workflow::StepRunner {
 public:
  /// The converged layout: one orchestrator over every node and one
  /// store over every storage node, shared by all three worlds.
  explicit Platform(sim::Simulation& sim, PlatformConfig config = {});

  // Subsystem access (the public API surface examples build on).
  sim::Simulation& sim() { return sim_; }
  const cluster::Cluster& cluster() const { return cluster_; }
  const net::Topology& topology() const { return *topology_; }
  net::Fabric& fabric() { return *fabric_; }
  /// A world's orchestrator, catalog and store. The default is the
  /// big-data world, where input datasets are ingested; on the converged
  /// layout every world shares them.
  orch::Orchestrator& orchestrator(World world = World::kBigData) {
    return *route(world).orchestrator;
  }
  storage::DatasetCatalog& catalog(World world = World::kBigData) {
    return *route(world).catalog;
  }
  storage::ObjectStore& store(World world = World::kBigData) {
    return catalog(world).store();
  }
  /// Every distinct orchestrator, in bring-up order.
  const std::vector<std::unique_ptr<orch::Orchestrator>>& orchestrators()
      const {
    return orchestrators_;
  }
  dataflow::DataflowEngine& dataflow() { return *dataflow_; }
  accel::AccelPool& accel() { return *accel_; }
  const PlatformConfig& config() const { return config_; }

  /// Runs a mixed workflow; the callback receives the result.
  void run_workflow(const workflow::Workflow& wf,
                    std::function<void(const workflow::WorkflowResult&)> cb);

  /// StepRunner: dispatches one step to its world.
  void run_step(const workflow::Step& step,
                std::function<void(bool)> on_done) override;

  /// Runs a dataflow plan in the big-data world end to end: acquires
  /// executor pods (with data-locality preferences), executes, releases.
  /// Bad arguments and a missing input throw.
  void run_dataflow(const dataflow::LogicalPlan& plan, int executors,
                    int slots,
                    std::function<void(const dataflow::JobStats&)> cb);

  /// Runs an MPI program on a gang of `ranks` pods in the HPC world. A
  /// gang that a crash or drain kills never calls `cb`.
  void run_hpc(const hpc::MpiProgram& program, int ranks,
               std::function<void(const hpc::MpiRunStats&)> cb);

  /// Copies `dataset` from whichever catalog holds it into `target`
  /// through the target store's gateway node; calls `on_done` at once
  /// when it is already materialized there. Throws when no catalog
  /// holds it.
  void stage_dataset(const std::string& dataset,
                     storage::DatasetCatalog& target,
                     std::function<void()> on_done);
  util::Bytes staged_bytes() const { return staged_bytes_; }
  std::int64_t staging_operations() const { return staging_ops_; }

  /// Attaches a span tracer to every subsystem (workflow steps, pods,
  /// dataflow jobs, HPC phases, storage ops, network transfers, accel
  /// offloads) of the layout. Null detaches; tracing off costs nothing.
  void set_tracer(trace::Tracer* tracer);

 protected:
  /// Selects the constructor that brings up only the shared substrate
  /// (cluster, topology, fabric, io); a layout then adds its stores and
  /// orchestrators and calls bring_up().
  struct SubstrateOnly {};
  struct Route {
    orch::Orchestrator* orchestrator = nullptr;
    storage::DatasetCatalog* catalog = nullptr;
  };

  Platform(sim::Simulation& sim, PlatformConfig config, SubstrateOnly);
  storage::DatasetCatalog& add_store(std::vector<cluster::NodeId> servers);
  orch::Orchestrator& add_orchestrator(orch::OrchestratorConfig config);
  /// Routes the worlds and builds the engines: dataflow jobs read and
  /// write the big-data world's catalog.
  void bring_up(Route cloud, Route bigdata, Route hpc);

 private:
  const Route& route(World world) const {
    return routes_[static_cast<std::size_t>(world)];
  }
  /// Calls `start` once every input is materialized in `world`'s
  /// catalog: at once when none needs staging, else after the last copy
  /// lands, back in the caller's trace context. Throws, before staging
  /// anything, when an input is in no catalog.
  void with_inputs(World world, const std::vector<std::string>& inputs,
                   std::function<void()> start);
  void start_dataflow(const dataflow::LogicalPlan& plan, int executors,
                      int slots, std::vector<std::string> inputs,
                      std::function<void(const dataflow::JobStats&)> cb);
  /// `on_killed` (optional) runs instead of `cb` when a crash or drain
  /// kills the gang.
  void start_hpc(const hpc::MpiProgram& program, int ranks,
                 const std::vector<std::string>& inputs,
                 std::function<void(const hpc::MpiRunStats&)> cb,
                 std::function<void()> on_killed = {});
  // Acquire and launch run in the submitter's trace context: directly,
  // or re-entered by with_inputs after staging.
  void acquire_executors(const dataflow::LogicalPlan& plan, int executors,
                         int slots,
                         std::function<void(const dataflow::JobStats&)> cb);
  void launch_gang(const hpc::MpiProgram& program, int ranks,
                   std::function<void(const hpc::MpiRunStats&)> cb,
                   std::function<void()> on_killed);
  std::vector<cluster::NodeId> executor_preferences(
      const dataflow::LogicalPlan& plan);
  storage::DatasetCatalog* catalog_with(const std::string& dataset);

  sim::Simulation& sim_;
  PlatformConfig config_;
  cluster::Cluster cluster_;
  std::unique_ptr<net::Topology> topology_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<storage::IoSubsystem> io_;
  std::vector<std::unique_ptr<storage::ObjectStore>> stores_;
  std::vector<std::unique_ptr<storage::DatasetCatalog>> catalogs_;
  std::vector<std::unique_ptr<orch::Orchestrator>> orchestrators_;
  std::array<Route, 3> routes_;
  std::unique_ptr<dataflow::DataflowEngine> dataflow_;
  std::unique_ptr<accel::AccelPool> accel_;
  std::unique_ptr<workflow::WorkflowEngine> workflow_engine_;
  trace::Tracer* tracer_ = nullptr;
  util::Bytes staged_bytes_ = 0;
  std::int64_t staging_ops_ = 0;
};

}  // namespace evolve::core
