// Network-partition reachability mask, shared by every fabric engine so
// only this module knows its format: each host belongs to an equivalence
// class, and blocked[a][b] marks class a -> class b as unreachable
// (directional, so asymmetric partitions are expressible). Loopback is
// never blocked.
#pragma once

#include <vector>

#include "cluster/node.hpp"

namespace evolve::net {

class Reachability {
 public:
  /// Fully connected: every pair is reachable.
  Reachability() = default;
  /// Throws std::invalid_argument unless `host_group` has `host_count`
  /// entries, every group id lies in [0, blocked.size()), and every row
  /// of `blocked` has blocked.size() entries.
  Reachability(int host_count, std::vector<int> host_group,
               std::vector<std::vector<char>> blocked);

  /// True when at least one class pair is blocked.
  bool partitioned() const { return partitioned_; }
  bool reachable(cluster::NodeId src, cluster::NodeId dst) const {
    if (!partitioned_ || src == dst) return true;
    const int a = host_group_[static_cast<std::size_t>(src)];
    const int b = host_group_[static_cast<std::size_t>(dst)];
    return blocked_[static_cast<std::size_t>(a)]
                   [static_cast<std::size_t>(b)] == 0;
  }

 private:
  std::vector<int> host_group_;
  std::vector<std::vector<char>> blocked_;
  bool partitioned_ = false;
};

}  // namespace evolve::net
