// The simulated cluster: an indexed set of nodes plus a builder for the
// standard EVOLVE testbed shapes used by tests and benchmarks.
#pragma once

#include <string>
#include <vector>

#include "cluster/node.hpp"

namespace evolve::cluster {

class Cluster {
 public:
  /// Adds a node; returns its id (dense, starting at 0).
  NodeId add_node(NodeSpec spec);

  const NodeSpec& node(NodeId id) const;
  NodeId find(const std::string& name) const;  // kInvalidNode if missing

  int size() const { return static_cast<int>(nodes_.size()); }
  const std::vector<NodeSpec>& nodes() const { return nodes_; }

  /// Node ids whose spec has the given label.
  std::vector<NodeId> nodes_with_label(const std::string& label) const;

  /// Number of racks (max rack index + 1).
  int rack_count() const;

  /// Total allocatable resources across all nodes.
  Resources total_allocatable() const;

 private:
  std::vector<NodeSpec> nodes_;
};

/// Builds the canonical EVOLVE-style converged testbed:
/// `compute` compute nodes, `storage` storage nodes, `accel` FPGA nodes,
/// spread round-robin across `racks` racks.
Cluster make_testbed(int compute, int storage, int accel, int racks = 2);

}  // namespace evolve::cluster
