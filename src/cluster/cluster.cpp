#include "cluster/cluster.hpp"

#include <algorithm>
#include <stdexcept>

namespace evolve::cluster {

NodeId Cluster::add_node(NodeSpec spec) {
  if (spec.cores <= 0) throw std::invalid_argument("node must have cores");
  if (spec.rack < 0) throw std::invalid_argument("rack must be >= 0");
  nodes_.push_back(std::move(spec));
  return static_cast<NodeId>(nodes_.size() - 1);
}

const NodeSpec& Cluster::node(NodeId id) const {
  if (id < 0 || id >= size()) throw std::out_of_range("bad node id");
  return nodes_[static_cast<std::size_t>(id)];
}

NodeId Cluster::find(const std::string& name) const {
  for (int i = 0; i < size(); ++i) {
    if (nodes_[static_cast<std::size_t>(i)].name == name) return i;
  }
  return kInvalidNode;
}

std::vector<NodeId> Cluster::nodes_with_label(const std::string& label) const {
  std::vector<NodeId> out;
  for (int i = 0; i < size(); ++i) {
    if (nodes_[static_cast<std::size_t>(i)].has_label(label)) {
      out.push_back(i);
    }
  }
  return out;
}

int Cluster::rack_count() const {
  int max_rack = -1;
  for (const auto& node : nodes_) max_rack = std::max(max_rack, node.rack);
  return max_rack + 1;
}

Resources Cluster::total_allocatable() const {
  Resources total;
  for (const auto& node : nodes_) total += node.allocatable();
  return total;
}

Cluster make_testbed(int compute, int storage, int accel, int racks) {
  if (racks <= 0) throw std::invalid_argument("racks must be > 0");
  Cluster cluster;
  int next = 0;
  for (int i = 0; i < compute; ++i, ++next) {
    cluster.add_node(
        make_compute_node("compute-" + std::to_string(i), next % racks));
  }
  for (int i = 0; i < storage; ++i, ++next) {
    cluster.add_node(
        make_storage_node("storage-" + std::to_string(i), next % racks));
  }
  for (int i = 0; i < accel; ++i, ++next) {
    cluster.add_node(
        make_accel_node("accel-" + std::to_string(i), next % racks));
  }
  return cluster;
}

}  // namespace evolve::cluster
