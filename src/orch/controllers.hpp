// Controllers: reconcile desired state on top of the Orchestrator.
//
// DeploymentController keeps N replicas of a pod template running
// (recreating failed/preempted replicas).
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "orch/scheduler.hpp"

namespace evolve::orch {

class DeploymentController {
 public:
  /// Fired when a replica pod starts running on a node (`up == true`)
  /// and when it leaves (finished, evicted, or scaled down). Pending
  /// pods that never started produce no events.
  using ReplicaObserver =
      std::function<void(PodId, cluster::NodeId, bool up)>;

  DeploymentController(Orchestrator& orch, std::string name, PodSpec base,
                       int replicas);

  /// Changes the desired replica count; reconciles immediately.
  void scale(int replicas);

  /// Registers a disruption budget for this deployment's replicas
  /// (budget group = the deployment's pod budget_group, default: name).
  void set_disruption_budget(DisruptionBudget budget);

  /// Stops all replicas and holds the deployment at zero.
  void stop();

  /// Installs the observer and replays every currently-running replica
  /// as an `up` event, so late subscribers see a complete picture.
  void set_replica_observer(ReplicaObserver observer);

  int desired() const { return desired_; }
  int live() const { return static_cast<int>(live_.size()); }
  int running() const { return static_cast<int>(started_.size()); }
  const std::string& name() const { return name_; }
  std::int64_t restarts() const { return restarts_; }

 private:
  void reconcile();
  PodSpec replica_spec();
  PodId pick_scale_down_victim() const;
  void notify(PodId pod, cluster::NodeId node, bool up);

  Orchestrator& orch_;
  std::string name_;
  PodSpec base_;
  int desired_ = 0;
  int next_index_ = 0;
  std::int64_t restarts_ = 0;
  bool stopped_ = false;
  std::set<PodId> live_;  // pods submitted and not yet terminal
  std::map<PodId, cluster::NodeId> started_;  // running replicas
  ReplicaObserver observer_;
};

}  // namespace evolve::orch
