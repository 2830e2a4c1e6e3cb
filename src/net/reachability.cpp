#include "net/reachability.hpp"

#include <stdexcept>
#include <utility>

namespace evolve::net {

Reachability::Reachability(int host_count, std::vector<int> host_group,
                           std::vector<std::vector<char>> blocked)
    : host_group_(std::move(host_group)), blocked_(std::move(blocked)) {
  if (static_cast<int>(host_group_.size()) != host_count) {
    throw std::invalid_argument("set_reachability: host_group size mismatch");
  }
  const auto groups = static_cast<int>(blocked_.size());
  for (const int g : host_group_) {
    if (g < 0 || g >= groups) {
      throw std::invalid_argument("set_reachability: group id out of range");
    }
  }
  for (const auto& row : blocked_) {
    if (static_cast<int>(row.size()) != groups) {
      throw std::invalid_argument("set_reachability: blocked is not square");
    }
    for (const char b : row) {
      if (b != 0) partitioned_ = true;
    }
  }
}

}  // namespace evolve::net
