// Per-node scheduling state: allocatable capacity vs bound pods, the
// anti-affinity groups those pods belong to, and the operator cordon.
// Crash, lease and quarantine conditions live in the orchestrator's
// cluster::NodeConditions table.
#pragma once

#include <map>
#include <set>
#include <string>

#include "cluster/cluster.hpp"
#include "orch/pod.hpp"
#include "util/types.hpp"

namespace evolve::orch {

class NodeStatus {
 public:
  NodeStatus(cluster::NodeId id, cluster::Resources allocatable)
      : id_(id), allocatable_(allocatable) {}

  cluster::NodeId id() const { return id_; }
  const cluster::Resources& allocatable() const { return allocatable_; }
  const cluster::Resources& allocated() const { return allocated_; }
  cluster::Resources free() const { return allocatable_ - allocated_; }

  bool fits(const cluster::Resources& request) const {
    return free().fits(request);
  }

  /// Binds a pod's resources and anti-affinity group (empty = none).
  /// Throws if it does not fit (scheduler bug).
  void bind(PodId pod, const cluster::Resources& request,
            const std::string& anti_affinity_group = {});

  /// Releases what bind() took. Throws if the pod is not bound here.
  void unbind(PodId pod, const cluster::Resources& request,
              const std::string& anti_affinity_group = {});

  bool has_pod(PodId pod) const { return pods_.count(pod) != 0; }
  const std::set<PodId>& pods() const { return pods_; }
  int pod_count() const { return static_cast<int>(pods_.size()); }

  /// True when a bound pod belongs to anti-affinity `group`.
  bool hosts_group(const std::string& group) const {
    const auto it = groups_.find(group);
    return it != groups_.end() && it->second > 0;
  }

  /// Operator cordon: admin state, not a node condition, so it survives
  /// a crash/recovery cycle.
  bool cordoned = false;
  util::TimeNs down_since = 0;  // start of the current NotReady spell

 private:
  cluster::NodeId id_;
  cluster::Resources allocatable_;
  cluster::Resources allocated_;
  std::set<PodId> pods_;
  std::map<std::string, int> groups_;  // bound pods per anti-affinity group
};

}  // namespace evolve::orch
