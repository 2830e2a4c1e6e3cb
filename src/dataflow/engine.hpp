// The dataflow execution engine: runs a physical plan on a set of
// executors over the simulated cluster.
//
// Per task: launch overhead -> input (dataset GET or shuffle fetches
// through the shared fabric and device queues) -> compute (bytes x
// stage cost) -> output (shuffle spill to local NVMe, or sink PUT).
// Task placement uses delay scheduling against the input partitions'
// replica locations — the converged platform's data-locality story.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/conditions.hpp"
#include "dataflow/plan.hpp"
#include "dataflow/shuffle.hpp"
#include "dataflow/stage.hpp"
#include "dataflow/task_scheduler.hpp"
#include "metrics/registry.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "storage/dataset.hpp"
#include "storage/io_model.hpp"
#include "trace/tracer.hpp"
#include "util/retry_budget.hpp"

namespace evolve::dataflow {

struct ExecutorSpec {
  cluster::NodeId node = cluster::kInvalidNode;
  int slots = 1;
};

/// Reducer count when a wide op says 0.
inline constexpr int kDefaultParallelism = 8;

struct DataflowConfig {
  util::TimeNs locality_wait = util::millis(500);  // 0 = no delay sched

  // -- Straggler injection (models interference/slow nodes) ----------
  double straggler_probability = 0.0;  // per task
  double straggler_slowdown = 6.0;     // compute multiplier when hit
  std::uint64_t straggler_seed = 1;    // deterministic injection

  // -- Speculative execution (Spark-style backup copies) -------------
  bool speculation = false;
  /// A task is speculatable once it has run longer than this multiple
  /// of the median completed-task duration in its stage.
  double speculation_multiplier = 1.5;
  /// Fraction of a stage that must be complete before speculating.
  double speculation_quantile = 0.5;
  /// Health-driven speculation: a node's quarantine launches backups
  /// for every copy running on it — straggler detection by measured
  /// node health instead of blind stage quantiles. Independent of
  /// `speculation`.
  bool health_speculation = false;

  // -- Fault recovery (node crashes) ---------------------------------
  /// When false, any task lost to a node failure fails the whole job.
  bool fault_recovery = true;
  /// Per-task budget of fault-driven re-executions before the job fails.
  int max_task_retries = 4;
  /// Base delay before a lost task is re-enqueued; doubles per retry,
  /// with up to +25% seeded jitter to de-synchronize retry storms.
  util::TimeNs retry_backoff = util::millis(200);
};

struct StageStats {
  int id = -1;
  int tasks = 0;
  int local_tasks = 0;
  util::Bytes input_bytes = 0;
  util::Bytes output_bytes = 0;
  util::TimeNs start_time = -1;
  util::TimeNs finish_time = -1;
};

struct JobStats {
  util::TimeNs duration = 0;
  util::Bytes bytes_read = 0;      // dataset input
  util::Bytes bytes_shuffled = 0;  // cross-task traffic
  util::Bytes bytes_written = 0;   // sink output
  int tasks = 0;
  int local_tasks = 0;
  int stragglers_injected = 0;
  int speculative_launched = 0;
  int speculative_wins = 0;  // backup copy finished first
  bool failed = false;       // aborted (retry budget exhausted)
  int tasks_killed = 0;      // running copies lost to node crashes
  int tasks_reexecuted = 0;  // completed tasks redone (lost map output)
  int map_outputs_lost = 0;  // shuffle outputs dropped by node crashes
  int task_retries = 0;      // fault-driven re-enqueues
  std::vector<StageStats> stages;

  double locality_ratio() const {
    return tasks == 0 ? 0.0
                      : static_cast<double>(local_tasks) /
                            static_cast<double>(tasks);
  }
};

class DataflowEngine {
 public:
  using Callback = std::function<void(const JobStats&)>;

  DataflowEngine(sim::Simulation& sim, const cluster::Cluster& cluster,
                 net::Fabric& fabric, storage::IoSubsystem& io,
                 storage::DatasetCatalog& catalog,
                 DataflowConfig config = {});

  /// Runs `plan` on the given executors; `on_done` receives job stats.
  /// Input datasets must be materialized in the catalog's store. The
  /// engine supports several concurrent jobs (they contend for the
  /// fabric and devices but have separate executors).
  void run(const LogicalPlan& plan, const std::vector<ExecutorSpec>& executors,
           Callback on_done);

  const DataflowConfig& config() const { return config_; }
  metrics::Registry& metrics() { return metrics_; }

  /// Node conditions, written by the fault producers; every job, live
  /// or started later, reads them:
  ///  * down: kills every running task copy on the node, drops its
  ///    shuffle map outputs (re-executing the owning map tasks), and
  ///    withholds its executor slots until recovery. Retries are bounded
  ///    by `max_task_retries` per task with exponential backoff; past the
  ///    budget the job fails cleanly (stats.failed, `on_done` still runs);
  ///  * quarantined: the node's executors stop receiving new task copies
  ///    and drain (running copies finish), and with health_speculation
  ///    every copy running there gets a backup (`df.speculate`);
  ///  * cpu_slowdown: compute phases that start on the node run that
  ///    many times slower.
  cluster::NodeConditions& conditions() { return conditions_; }
  /// Observes every finished compute phase: (node, service time from
  /// copy start to compute end). Feeds the per-node health scorer.
  using TaskObserver = std::function<void(cluster::NodeId, util::TimeNs)>;
  void set_task_observer(TaskObserver observer) {
    task_observer_ = std::move(observer);
  }

  /// Attaches a span tracer: jobs/stages/task copies become kDataflow
  /// spans, shuffle fetches and spills kShuffle spans, and retry waits
  /// kScheduler spans. Null disables (the default, zero overhead).
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Attaches a (non-owned, possibly cross-layer shared) retry budget:
  /// fault-driven re-executions then withdraw a token per attempt and
  /// defer — without consuming a retry attempt — while the budget is
  /// empty. Completed tasks deposit. Null (default) disables.
  void set_retry_budget(util::RetryBudget* budget) { retry_budget_ = budget; }

 private:
  struct RunState;

  void start_stage(std::shared_ptr<RunState> run, int stage_id);
  void pump_tasks(std::shared_ptr<RunState> run);
  void execute_copy(std::shared_ptr<RunState> run, TaskId copy, int executor,
                    bool local);
  void release_copy(std::shared_ptr<RunState> run, int executor);
  void task_won(std::shared_ptr<RunState> run, TaskId task);
  void maybe_speculate(std::shared_ptr<RunState> run, int stage_id);
  void finish_stage(std::shared_ptr<RunState> run, int stage_id);
  void retry_task(std::shared_ptr<RunState> run, TaskId task_id);
  void fail_job(std::shared_ptr<RunState> run);
  void on_condition(cluster::NodeId node, const cluster::NodeCondition& before,
                    const cluster::NodeCondition& after);
  void handle_node_failure(cluster::NodeId node, bool was_available);
  /// Launches a backup copy for every task currently running on `node`
  /// (no-op unless config.health_speculation).
  void speculate_on_node(cluster::NodeId node);
  void prune_runs();

  sim::Simulation& sim_;
  const cluster::Cluster& cluster_;
  net::Fabric& fabric_;
  storage::IoSubsystem& io_;
  storage::DatasetCatalog& catalog_;
  DataflowConfig config_;
  metrics::Registry metrics_;
  trace::Tracer* tracer_ = nullptr;
  cluster::NodeConditions conditions_;
  TaskObserver task_observer_;
  util::RetryBudget* retry_budget_ = nullptr;  // non-owned, optional
  std::int64_t next_trace_job_ = 1;  // job id stamped on trace spans
  /// Live jobs, for failure fan-out; expired entries pruned lazily.
  std::vector<std::weak_ptr<RunState>> runs_;
};

}  // namespace evolve::dataflow
