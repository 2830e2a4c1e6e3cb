#include "orch/controllers.hpp"

#include <stdexcept>

namespace evolve::orch {

DeploymentController::DeploymentController(Orchestrator& orch,
                                           std::string name, PodSpec base,
                                           int replicas)
    : orch_(orch), name_(std::move(name)), base_(std::move(base)) {
  if (replicas < 0) throw std::invalid_argument("replicas must be >= 0");
  // Replicas share one disruption-budget group so preemption and
  // rebalancing can be capped per controller.
  if (base_.budget_group.empty()) base_.budget_group = name_;
  desired_ = replicas;
  reconcile();
}

void DeploymentController::set_disruption_budget(DisruptionBudget budget) {
  orch_.set_disruption_budget(base_.budget_group, budget);
}

PodSpec DeploymentController::replica_spec() {
  PodSpec spec = base_;
  spec.name = name_ + "-" + std::to_string(next_index_++);
  return spec;
}

void DeploymentController::reconcile() {
  if (stopped_) return;
  while (live() < desired_) {
    const PodId id = orch_.submit(
        replica_spec(), /*duration=*/-1,
        [this](PodId pod, cluster::NodeId node) {
          started_[pod] = node;
          notify(pod, node, true);
        },
        [this](PodId pod, PodPhase phase) {
          live_.erase(pod);
          auto it = started_.find(pod);
          if (it != started_.end()) {
            const cluster::NodeId node = it->second;
            started_.erase(it);
            notify(pod, node, false);
          }
          if (phase == PodPhase::kFailed && !stopped_) {
            ++restarts_;
          }
          reconcile();
        });
    live_.insert(id);
  }
  while (live() > desired_) {
    const PodId victim = pick_scale_down_victim();
    live_.erase(victim);
    orch_.finish(victim);
  }
}

PodId DeploymentController::pick_scale_down_victim() const {
  // Prefer evicting replicas that are already compromised: a pod on a
  // NotReady node first, then quarantined, then cordoned, then pods
  // that never got placed, and only then a healthy replica. Ties break
  // on the lowest pod id (the oldest) for determinism.
  PodId best = *live_.begin();
  int best_rank = 1 << 10;
  for (const PodId id : live_) {
    const PodStatus& status = orch_.pod(id);
    int rank = 4;
    if (status.phase == PodPhase::kPending) {
      rank = 3;
    } else if (status.node != cluster::kInvalidNode) {
      if (!orch_.is_ready(status.node)) {
        rank = 0;
      } else if (orch_.is_quarantined(status.node)) {
        rank = 1;
      } else if (orch_.is_cordoned(status.node)) {
        rank = 2;
      }
    }
    if (rank < best_rank) {
      best_rank = rank;
      best = id;
    }
  }
  return best;
}

void DeploymentController::set_replica_observer(ReplicaObserver observer) {
  observer_ = std::move(observer);
  if (!observer_) return;
  for (const auto& [pod, node] : started_) observer_(pod, node, true);
}

void DeploymentController::notify(PodId pod, cluster::NodeId node, bool up) {
  if (observer_) observer_(pod, node, up);
}

void DeploymentController::scale(int replicas) {
  if (replicas < 0) throw std::invalid_argument("replicas must be >= 0");
  desired_ = replicas;
  reconcile();
}

void DeploymentController::stop() {
  stopped_ = true;
  desired_ = 0;
  // Finish everything; callbacks see stopped_ and do not recreate.
  const std::set<PodId> snapshot = live_;
  for (PodId id : snapshot) orch_.finish(id);
  live_.clear();
}

}  // namespace evolve::orch
