#include "orch/node_status.hpp"

#include <stdexcept>

namespace evolve::orch {

void NodeStatus::bind(PodId pod, const cluster::Resources& request,
                      const std::string& anti_affinity_group) {
  if (!fits(request)) {
    throw std::logic_error("bind would overcommit node " +
                           std::to_string(id_));
  }
  if (!pods_.insert(pod).second) {
    throw std::logic_error("pod already bound to node");
  }
  allocated_ += request;
  if (!anti_affinity_group.empty()) ++groups_[anti_affinity_group];
}

void NodeStatus::unbind(PodId pod, const cluster::Resources& request,
                        const std::string& anti_affinity_group) {
  if (pods_.erase(pod) == 0) {
    throw std::logic_error("pod not bound to node " + std::to_string(id_));
  }
  allocated_ -= request;
  if (allocated_.any_negative()) {
    throw std::logic_error("unbind drove allocation negative");
  }
  if (!anti_affinity_group.empty()) --groups_[anti_affinity_group];
}

}  // namespace evolve::orch
