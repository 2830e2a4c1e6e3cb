// Pod model: the orchestrator's unit of placement (Kubernetes-style).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/resources.hpp"
#include "cluster/node.hpp"
#include "util/types.hpp"

namespace evolve::orch {

using PodId = std::int64_t;
inline constexpr PodId kInvalidPod = -1;

/// Gang identifier: pods sharing a gang id are placed all-or-nothing
/// (MPI-style co-scheduling). 0 means "no gang".
using GangId = std::int64_t;

enum class PodPhase {
  kPending,    // queued, not placed
  kRunning,    // bound to a node
  kSucceeded,  // finished normally
  kFailed,     // preempted, evicted or killed with its gang
};

struct PodSpec {
  std::string name;
  std::string tenant = "default";     // fair-share accounting unit
  cluster::Resources request;         // per-pod resource demand
  std::vector<std::string> node_selector;  // all labels must match
  std::vector<cluster::NodeId> preferred_nodes;  // data-locality hint
  int priority = 0;                   // higher = more important
  GangId gang = 0;
  /// Pods sharing a non-empty group never co-locate on one node
  /// (hard anti-affinity, e.g. replica spreading for availability).
  std::string anti_affinity_group;
  /// Disruption-budget group (typically the owning controller's name).
  /// Voluntary evictions — preemption and rebalancing — are gated by the
  /// group's DisruptionBudget; empty = no budget, freely evictable.
  std::string budget_group;
};

struct PodStatus {
  PodId id = kInvalidPod;
  PodSpec spec;
  PodPhase phase = PodPhase::kPending;
  cluster::NodeId node = cluster::kInvalidNode;
  util::TimeNs submit_time = 0;
  util::TimeNs start_time = -1;
  util::TimeNs finish_time = -1;

  bool is_terminal() const {
    return phase == PodPhase::kSucceeded || phase == PodPhase::kFailed;
  }
};

const char* to_string(PodPhase phase);

}  // namespace evolve::orch
