// The orchestrator: pod admission, queueing, placement, lifecycle.
//
// A periodic scheduling pass drains the pending queue in priority order
// (FIFO within a priority). Gangs are placed all-or-nothing. Optional
// priority preemption evicts lower-priority pods when a high-priority pod
// cannot fit anywhere. With a PoolTree attached the queue is ordered by
// hierarchical fair share instead (most-starved pool first) and, when
// enabled, pods of under-served pools may preempt pods of pools running
// over their fair share. All voluntary evictions are gated by per-group
// disruption budgets.
//
// A gang submitted with a walltime estimate is a batch gang (Slurm-style
// HPC job): the first one a pass cannot place holds an EASY backfill
// reservation, and a member failure restarts the whole gang from its
// last checkpoint instead of killing it.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "metrics/registry.hpp"
#include "metrics/timeseries.hpp"
#include "orch/fairshare.hpp"
#include "orch/node_status.hpp"
#include "orch/pod.hpp"
#include "sim/simulation.hpp"
#include "trace/tracer.hpp"

namespace evolve::orch {

/// Caps voluntary disruption (preemption, rebalancing) of a pod group —
/// typically the replicas of one controller. Involuntary evictions
/// (node failure, drain) are not budgeted.
struct DisruptionBudget {
  /// Max voluntary evictions within any trailing `window`.
  int max_evictions_per_window = 1;
  util::TimeNs window = util::seconds(1);
  /// At least this many group members must stay running after an
  /// eviction (0 = the whole group may be disrupted).
  int min_available = 0;
};

/// Batch semantics for a gang. A gang with a walltime is a batch gang:
/// it takes part in EASY backfill, and when a member fails (crash,
/// drain, preemption) the whole gang goes back to the queue head with
/// `remaining - checkpointed + restart_cost` left to run.
struct BatchSpec {
  /// User estimate of the run time, raised to the duration when lower.
  /// 0 = not a batch gang (greedy placement, killed on failure).
  util::TimeNs walltime = 0;
  /// Progress is checkpointed every interval; work since the last
  /// checkpoint is lost on a restart. 0 = restart from scratch.
  util::TimeNs checkpoint_interval = 0;
  /// Fixed cost added to the remaining run time on each restart
  /// (checkpoint load + re-initialization).
  util::TimeNs restart_cost = 0;
};

struct OrchestratorConfig {
  util::TimeNs scheduling_interval = util::millis(10);
  util::TimeNs bind_latency = util::millis(50);  // image pull + start
  bool enable_preemption = false;
  /// With a PoolTree attached: pods of pools below their fair share may
  /// preempt pods (of equal or lower priority) from pools above theirs.
  /// Requires enable_preemption.
  bool enable_fair_preemption = false;
  /// Nodes this orchestrator manages; empty = the whole cluster.
  /// Siloed (partitioned) deployments give each silo its own subset.
  std::vector<cluster::NodeId> nodes;
};

/// Weights of the placement score terms (DESIGN §14). Every term lies
/// in [0, 1]; node_score adds them in declaration order, so a zero
/// weight adds an exact zero.
struct SchedulingPolicy {
  double least_allocated = 0;  // free share of CPU and memory after placing
  double most_allocated = 0;   // used share after placing (bin-packing)
  double balanced = 0;         // 1 - |CPU share - memory share| after placing
  double locality = 0;         // 1 on a preferred node, 0.5 in its rack
  double pod_spread = 0;       // 1 / (1 + pods on the node)

  /// Cloud default, spread-oriented: least-allocated 1, balanced 0.5,
  /// locality 2, pod-spread 0.25.
  static SchedulingPolicy spreading(const cluster::Cluster& cluster);
  /// Consolidation (frees whole nodes for gangs): most-allocated 1,
  /// locality 2.
  static SchedulingPolicy binpacking(const cluster::Cluster& cluster);
};

/// The one node-eligibility rule, capacity aside: no node condition is
/// set, the node carries every label of the pod's node selector, and it
/// hosts no pod of the pod's anti-affinity group. Placement is this plus
/// a free-capacity fit; preemption and the rebalancer ask it before
/// they pick victims.
bool eligible(const PodSpec& pod, const cluster::NodeSpec& spec,
              const NodeStatus& node);

/// Weighted score of placing `pod` on `node`; higher is better.
double node_score(const PodSpec& pod, const cluster::Cluster& cluster,
                  const NodeStatus& node, const SchedulingPolicy& policy);

/// Pure placement: the best-scoring eligible node whose free capacity
/// fits the pod, skipping `exclude`; ties go to the first in `nodes`.
/// Returns kInvalidNode when no node qualifies.
cluster::NodeId select_node(const PodSpec& pod,
                            const cluster::Cluster& cluster,
                            const std::vector<NodeStatus>& nodes,
                            const SchedulingPolicy& policy,
                            cluster::NodeId exclude = cluster::kInvalidNode);

class Orchestrator {
 public:
  using StartFn = std::function<void(PodId, cluster::NodeId)>;
  using FinishFn = std::function<void(PodId, PodPhase)>;

  Orchestrator(sim::Simulation& sim, const cluster::Cluster& cluster,
               SchedulingPolicy policy, OrchestratorConfig config = {});

  /// Submits a pod. If `duration` >= 0 the pod auto-finishes that long
  /// after it starts; if negative it runs until finish() is called.
  PodId submit(PodSpec spec, util::TimeNs duration, StartFn on_start = {},
               FinishFn on_finish = {});

  /// Submits a gang: the pods are placed all-or-nothing in one pass.
  /// Returns the pod ids ({} for an empty gang). A batch gang
  /// (`batch.walltime` > 0) needs `duration` >= 0; on_start fires at
  /// every (re)start and on_finish once per member, at the end.
  std::vector<PodId> submit_gang(std::vector<PodSpec> specs,
                                 util::TimeNs duration, StartFn on_start = {},
                                 FinishFn on_finish = {},
                                 BatchSpec batch = {});

  /// Marks a running pod finished, releasing its resources.
  void finish(PodId id);

  const PodStatus& pod(PodId id) const;
  const NodeStatus& node_status(cluster::NodeId node) const;
  const cluster::Cluster& cluster() const { return cluster_; }

  int pending_count() const { return static_cast<int>(queue_.size()); }
  int running_count() const { return running_count_; }

  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

  /// Attaches a (non-owned) fair-share pool tree: queue ordering becomes
  /// most-starved-pool-first, pending/live usage is accounted per pool,
  /// and enable_fair_preemption may evict over-share pods. If the tree's
  /// capacity is unset it is initialized from the managed nodes.
  void attach_pool_tree(PoolTree* tree);
  PoolTree* pool_tree() { return pool_tree_; }

  /// Registers (or replaces) the disruption budget for a pod group
  /// (PodSpec::budget_group). Groups without a budget are unprotected.
  void set_disruption_budget(const std::string& group,
                             DisruptionBudget budget);
  /// True when the group can absorb one more voluntary eviction right
  /// now (window cap not hit, min_available preserved).
  bool disruption_allowed(const std::string& group) const;

  /// Voluntary eviction on behalf of the background rebalancer: gated by
  /// the victim's disruption budget; the owning controller is expected
  /// to recreate the pod elsewhere. False when refused.
  bool evict_for_rebalance(PodId victim);

  /// Pending queue snapshot in submit order (rebalancer input).
  std::vector<PodId> pending_snapshot() const;
  /// Managed node ids, ascending.
  std::vector<cluster::NodeId> managed_nodes() const;
  /// Best feasible node for `spec` under the current policy, skipping
  /// `exclude`; kInvalidNode when nothing fits.
  cluster::NodeId feasible_node_for(const PodSpec& spec,
                                    cluster::NodeId exclude =
                                        cluster::kInvalidNode) const;

  /// Time-weighted CPU/memory utilization of the whole cluster since t=0.
  double cpu_utilization() const;
  double memory_utilization() const;
  /// Time-weighted mean of allocated CPU millicores (energy accounting).
  double mean_cpu_millicores() const;

  /// Marks a node unschedulable (existing pods keep running).
  void cordon(cluster::NodeId node);
  /// Makes a cordoned node schedulable again.
  void uncordon(cluster::NodeId node);
  bool is_cordoned(cluster::NodeId node) const;
  /// Cordons the node and evicts every pod on it (phase -> Failed, so
  /// controllers recreate them elsewhere). Models planned maintenance.
  void drain(cluster::NodeId node);

  /// True when this orchestrator manages `node`.
  bool manages(cluster::NodeId node) const;
  /// Node crash: marks the node NotReady (unschedulable until recovery)
  /// and evicts every pod on it. Distinct from cordon() so a manual
  /// cordon survives a failure/recovery cycle.
  void fail_node(cluster::NodeId node);
  /// Crash recovery: the node becomes schedulable and the queue re-pumps.
  void recover_node(cluster::NodeId node);
  bool is_ready(cluster::NodeId node) const;

  /// Health quarantine: the node stops receiving new pods but existing
  /// pods keep running (it drains). Distinct from cordon() (operator
  /// action) and NotReady (crash) so the three lifecycles compose.
  void quarantine(cluster::NodeId node);
  void unquarantine(cluster::NodeId node);
  bool is_quarantined(cluster::NodeId node) const;

  /// Partition liveness (driven by LeaseManager): an Unreachable node is
  /// unschedulable but its pods are *fenced in place*, not evicted — the
  /// node may still be running them on the far side of a partition.
  /// Distinct from NotReady (crash: pods evicted immediately) so a short
  /// partition heals without a pod massacre.
  void mark_unreachable(cluster::NodeId node);
  void clear_unreachable(cluster::NodeId node);
  bool is_unreachable(cluster::NodeId node) const;
  /// The lease grace elapsed without a reconnect: give up on the fenced
  /// pods and evict them so controllers reschedule elsewhere.
  void expire_unreachable(cluster::NodeId node);

  /// Attaches a span tracer: each pod gets a kScheduler wait span
  /// (submit -> placed) and, for auto-finishing pods, a kCloud run span
  /// (placed -> terminal). Preemptions emit orch.preempt spans. Null
  /// disables.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  trace::Tracer* tracer() const { return tracer_; }

  /// Runs one scheduling pass immediately (also runs periodically).
  void schedule_now();

  /// Stops the periodic scheduling loop (call when the experiment ends,
  /// so the simulation can drain).
  void shutdown();

 private:
  struct PodRecord {
    PodStatus status;
    util::TimeNs duration = -1;
    StartFn on_start;  // a single pod's; dropped once on_finish returns
    FinishFn on_finish;
    trace::SpanId wait_span = trace::kNoSpan;
    trace::SpanId run_span = trace::kNoSpan;
    std::int64_t incarnation = 0;  // a batch restart disarms old timers
  };
  /// One per gang, erased once its last member's on_finish returns.
  struct Gang {
    std::vector<PodId> members;  // submit order
    int live = 0;                // members not yet terminal
    StartFn on_start;
    FinishFn on_finish;
    BatchSpec batch;             // walltime 0: a plain gang
    util::TimeNs remaining = 0;  // a batch gang's next run time
    bool failing = false;        // a member failure is killing the rest
  };
  using Binding = std::vector<std::pair<PodId, cluster::NodeId>>;

  /// Records, traces and queues a new pending pod.
  PodRecord& add_pod(PodSpec spec, util::TimeNs duration);
  /// Opens the kScheduler wait span for a pending pod.
  void trace_submit(PodRecord& rec, trace::SpanId parent = trace::kNoSpan);

  PodRecord& record(PodId id);
  NodeStatus& status_for(cluster::NodeId node);
  /// The managed node's status, or null for a node managed elsewhere.
  NodeStatus* find_status(cluster::NodeId node);
  const NodeStatus* find_status(cluster::NodeId node) const;
  void enqueue(PodId id);
  void kick_pump();
  void place(PodRecord& rec, cluster::NodeId node);
  /// Releases a running pod's node, pool and usage accounting.
  void unbind(PodRecord& rec);
  void complete(PodId id, PodPhase phase);
  void evict_pods(cluster::NodeId node);
  /// A gang member failed: the surviving members are killed too
  /// (all-or-nothing gangs have all-or-nothing lifetimes).
  void fail_gang_of(Gang& gang);
  /// A batch gang member that started at `started` failed: every live
  /// member goes back to the queue head to rerun what its last
  /// checkpoint did not save.
  void restart_batch_gang(Gang& gang, util::TimeNs started);
  /// Trial binds (the node's resources and anti-affinity groups only).
  void trial_bind(PodId id, cluster::NodeId node);
  void trial_unbind(PodId id, cluster::NodeId node);
  /// Trial-binds `pods` greedily and appends the binds to `bound`; on
  /// failure rolls its own binds back and returns false.
  bool trial_fit(const std::vector<PodId>& pods, Binding& bound);
  /// start + walltime of a running batch gang; -1 for a pending or
  /// plain gang.
  util::TimeNs estimated_end(const Gang& gang) const;
  /// Earliest estimated end of a running batch gang at which `head`
  /// fits, or -1 when it never does.
  util::TimeNs shadow_time(const std::vector<PodId>& head);
  /// Whether `head` fits once every running batch gang that ends by
  /// `shadow` has released its nodes.
  bool fits_at(const std::vector<PodId>& head, util::TimeNs shadow);
  bool try_preempt_for(const PodRecord& rec);
  /// Budget check with `tentative` evictions already chosen against the
  /// group in the current decision.
  bool disruption_allowed(const std::string& group, int tentative) const;
  void note_eviction(const std::string& group);
  /// Drops every non-pending pod from the queue in one O(n) pass.
  void compact_queue();
  void pump();

  sim::Simulation& sim_;
  const cluster::Cluster& cluster_;
  SchedulingPolicy policy_;
  OrchestratorConfig config_;
  std::vector<NodeStatus> nodes_;
  std::map<cluster::NodeId, std::size_t> node_index_;
  std::map<PodId, PodRecord> pods_;
  // Live gangs. A callback in flight holds its gang's record, since it
  // may end the gang.
  std::map<GangId, std::shared_ptr<Gang>> gangs_;
  std::deque<PodId> queue_;
  PoolTree* pool_tree_ = nullptr;  // non-owned fair-share state
  struct BudgetState {
    DisruptionBudget budget;
    std::deque<util::TimeNs> recent;  // eviction timestamps, pruned lazily
  };
  std::map<std::string, BudgetState> budgets_;
  std::map<std::string, int> group_running_;  // live pods per budget group
  metrics::Registry metrics_;
  metrics::UsageTracker cpu_usage_;
  metrics::UsageTracker mem_usage_;
  PodId next_pod_ = 1;
  GangId next_gang_ = 1;
  int running_count_ = 0;
  bool pump_scheduled_ = false;
  bool shutdown_ = false;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace evolve::orch
