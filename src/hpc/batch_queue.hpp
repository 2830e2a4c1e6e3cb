// Slurm-style batch queue with whole-node allocation.
//
// Jobs request N exclusive nodes for a bounded walltime estimate. Two
// policies: strict FCFS, and EASY backfill (later jobs may jump the queue
// if they cannot delay the head job's earliest possible start, computed
// from running jobs' walltime estimates).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "metrics/registry.hpp"
#include "metrics/timeseries.hpp"
#include "orch/fairshare.hpp"
#include "sim/simulation.hpp"
#include "trace/tracer.hpp"
#include "util/retry_budget.hpp"
#include "util/types.hpp"

namespace evolve::hpc {

using JobId = std::int64_t;
inline constexpr JobId kInvalidJob = -1;

enum class QueuePolicy { kFcfs, kEasyBackfill };

struct HpcJobSpec {
  std::string name;
  int nodes = 1;                 // exclusive nodes required
  util::TimeNs walltime = 0;     // user estimate (upper bound)
  util::TimeNs runtime = 0;      // actual runtime (<= walltime typically)
  int priority = 0;              // higher runs first
  std::vector<JobId> depends_on; // must finish before this job is eligible
  /// Fair-share pool-tree tenant; only meaningful with set_pool_tree().
  std::string tenant;
};

struct HpcJobStatus {
  JobId id = kInvalidJob;
  HpcJobSpec spec;
  util::TimeNs submit_time = 0;
  util::TimeNs start_time = -1;
  util::TimeNs finish_time = -1;
  std::vector<int> assigned_nodes;
  bool started = false;
  bool finished = false;
  int restarts = 0;  // times the job was requeued by a node failure
};

/// Failure semantics for gang (whole-node) jobs. A node crash aborts
/// every job touching it; aborted jobs requeue at the head and restart
/// from their last checkpoint.
struct BatchFaultConfig {
  /// Jobs checkpoint every interval; progress since the last checkpoint
  /// is lost on failure. 0 = no checkpointing (restart from scratch).
  util::TimeNs checkpoint_interval = 0;
  /// Fixed cost added to the remaining runtime on each restart
  /// (checkpoint load + re-initialization).
  util::TimeNs restart_cost = 0;
};

class BatchQueue {
 public:
  using StartFn = std::function<void(JobId, const std::vector<int>&)>;
  using FinishFn = std::function<void(JobId)>;

  /// `aging_interval`: waiting jobs gain +1 effective priority per
  /// interval (0 disables aging; ordering is then priority, then FIFO).
  BatchQueue(sim::Simulation& sim, int total_nodes,
             QueuePolicy policy = QueuePolicy::kFcfs,
             util::TimeNs aging_interval = 0, BatchFaultConfig fault = {});

  JobId submit(HpcJobSpec spec, StartFn on_start = {},
               FinishFn on_finish = {});

  const HpcJobStatus& job(JobId id) const;
  int free_nodes() const { return static_cast<int>(free_.size()); }
  int queued_jobs() const { return static_cast<int>(queue_.size()); }
  int running_jobs() const { return static_cast<int>(running_.size()); }

  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

  /// Node-level utilization since t=0.
  double utilization() const;

  /// Node crash: the node leaves the free pool and any gang job running
  /// on it aborts — surviving members' nodes free up, the job requeues
  /// at the head and will restart from its last checkpoint. Idempotent.
  void handle_node_failure(int node);
  /// Recovery: the node rejoins the free pool and the queue re-pumps.
  void handle_node_recovery(int node);
  bool node_alive(int node) const { return down_.count(node) == 0; }
  int down_nodes() const { return static_cast<int>(down_.size()); }

  /// Attaches a span tracer: jobs get kScheduler queue-wait spans and
  /// kHpc run spans (one per incarnation; gang aborts requeue). Null
  /// disables.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Attaches a fair-share pool tree (typically shared with the
  /// orchestrator so batch, HPC, and serving tenants contend in one
  /// share space). Each running job charges its tenant's pool
  /// `per_node * spec.nodes`; eligible jobs order by their pool's
  /// schedule key (most under-served tenant first, then priority/FIFO),
  /// and gang admission respects pool share: a job whose start would
  /// push its pool past a limit is held back — without blocking other
  /// tenants' jobs behind it. Null detaches.
  void set_pool_tree(orch::PoolTree* tree, cluster::Resources per_node);

  /// Attaches a (non-owned, possibly cross-layer shared) retry budget:
  /// fault-driven requeues then cost a token each; a job denied a token
  /// is held out of scheduling for `denied_hold << restarts` (saturating)
  /// before becoming eligible again — a mass gang-abort cannot restart
  /// the whole machine at once while the budget is drained. Finished
  /// jobs deposit. Null (default) disables.
  void set_retry_budget(util::RetryBudget* budget,
                        util::TimeNs denied_hold = util::seconds(1)) {
    retry_budget_ = budget;
    denied_hold_ = denied_hold;
  }
  std::int64_t requeues_held() const {
    return metrics_.counter("requeues_held");
  }

 private:
  struct JobRecord {
    HpcJobStatus status;
    StartFn on_start;
    FinishFn on_finish;
    util::TimeNs remaining = 0;     // runtime left (restarts shrink it)
    util::TimeNs hold_until = 0;    // budget-denied requeue hold
    std::int64_t incarnation = 0;   // invalidates stale finish timers
    trace::SpanId wait_span = trace::kNoSpan;
    trace::SpanId run_span = trace::kNoSpan;
    trace::SpanId trace_parent = trace::kNoSpan;  // submitter's context
  };

  void schedule_pass();
  /// Queue order for this pass: eligible jobs (dependencies satisfied)
  /// sorted by effective priority desc, then submit order.
  std::vector<JobId> eligible_order() const;
  bool dependencies_met(const JobRecord& rec) const;
  void start_job(JobRecord& rec);
  void finish_job(JobId id, std::int64_t incarnation);
  /// Earliest time the head job could start, from running jobs' walltime
  /// estimates (the EASY "shadow time").
  util::TimeNs shadow_time(int needed) const;
  /// Pool-tree resource footprint of a job (`per_node * spec.nodes`).
  cluster::Resources job_resources(const HpcJobSpec& spec) const;

  sim::Simulation& sim_;
  QueuePolicy policy_;
  util::TimeNs aging_interval_;
  BatchFaultConfig fault_;
  std::set<int> free_;
  std::set<int> down_;
  std::map<JobId, JobRecord> jobs_;
  std::deque<JobId> queue_;
  std::set<JobId> running_;
  JobId next_id_ = 1;
  metrics::Registry metrics_;
  metrics::UsageTracker usage_;
  trace::Tracer* tracer_ = nullptr;
  orch::PoolTree* pool_tree_ = nullptr;
  cluster::Resources per_node_;  // one node's worth of pool-tree charge
  util::RetryBudget* retry_budget_ = nullptr;  // non-owned, optional
  util::TimeNs denied_hold_ = util::seconds(1);
};

}  // namespace evolve::hpc
