#include "cluster/conditions.hpp"

#include <stdexcept>

namespace evolve::cluster {

template <typename Set>
void NodeConditions::write(NodeId node, Set set) {
  if (node < 0) throw std::out_of_range("node condition of an invalid node");
  const auto index = static_cast<std::size_t>(node);
  if (index >= nodes_.size()) nodes_.resize(index + 1);
  const NodeCondition before = nodes_[index];
  set(nodes_[index]);
  // The handler may write again; hand it a copy, not the slot.
  const NodeCondition after = nodes_[index];
  if (on_condition_) on_condition_(node, before, after);
}

void NodeConditions::set_down(NodeId node, bool down) {
  write(node, [down](NodeCondition& c) { c.down = down; });
}

void NodeConditions::set_unreachable(NodeId node, bool unreachable,
                                     std::int64_t epoch) {
  write(node, [unreachable, epoch](NodeCondition& c) {
    c.unreachable = unreachable;
    c.epoch = epoch;
  });
}

void NodeConditions::set_quarantined(NodeId node, bool quarantined) {
  write(node, [quarantined](NodeCondition& c) { c.quarantined = quarantined; });
}

void NodeConditions::set_slowdown(NodeId node, double cpu, double accel) {
  write(node, [cpu, accel](NodeCondition& c) {
    c.cpu_slowdown = cpu;
    c.accel_slowdown = accel;
  });
}

}  // namespace evolve::cluster
