#include "net/topology.hpp"

#include <stdexcept>

namespace evolve::net {

// Link layout in links_: for each host h: [2h] = host up, [2h+1] = host
// down; then for each rack r: [2H + 2r] = ToR up (to core), [2H + 2r + 1]
// = ToR down (from core).
Topology::Topology(const cluster::Cluster& cluster)
    : host_count_(cluster.size()),
      rack_count_(cluster.rack_count()) {
  if (host_count_ == 0) throw std::invalid_argument("empty cluster");
  host_rack_.reserve(static_cast<std::size_t>(host_count_));
  for (const auto& node : cluster.nodes()) host_rack_.push_back(node.rack);

  links_.reserve(static_cast<std::size_t>(2 * host_count_ + 2 * rack_count_));
  for (int h = 0; h < host_count_; ++h) {
    const std::string& name = cluster.node(h).name;
    links_.push_back(Link{name + ":up", kHostLinkBytesPerS});
    links_.push_back(Link{name + ":down", kHostLinkBytesPerS});
  }
  for (int r = 0; r < rack_count_; ++r) {
    links_.push_back(
        Link{"tor-" + std::to_string(r) + ":up", kTorUplinkBytesPerS});
    links_.push_back(Link{"tor-" + std::to_string(r) + ":down",
                          kTorUplinkBytesPerS});
  }
}

LinkId Topology::host_up(cluster::NodeId host) const { return 2 * host; }
LinkId Topology::host_down(cluster::NodeId host) const { return 2 * host + 1; }
LinkId Topology::tor_up(int rack) const {
  return 2 * host_count_ + 2 * rack;
}
LinkId Topology::tor_down(int rack) const {
  return 2 * host_count_ + 2 * rack + 1;
}

Path Topology::path(cluster::NodeId src, cluster::NodeId dst) const {
  if (src < 0 || src >= host_count_ || dst < 0 || dst >= host_count_) {
    throw std::out_of_range("Topology::path: bad host id");
  }
  if (src == dst) return {};
  const int src_rack = host_rack_[static_cast<std::size_t>(src)];
  const int dst_rack = host_rack_[static_cast<std::size_t>(dst)];
  if (src_rack == dst_rack) {
    return {host_up(src), host_down(dst)};
  }
  return {host_up(src), tor_up(src_rack), tor_down(dst_rack), host_down(dst)};
}

int Topology::hops(cluster::NodeId src, cluster::NodeId dst) const {
  if (src == dst) return 0;
  return same_rack(src, dst) ? 1 : 2;
}

bool Topology::same_rack(cluster::NodeId a, cluster::NodeId b) const {
  return host_rack_[static_cast<std::size_t>(a)] ==
         host_rack_[static_cast<std::size_t>(b)];
}

util::TimeNs Topology::latency(cluster::NodeId src, cluster::NodeId dst) const {
  if (src == dst) return kBaseLatency / 2;
  return kBaseLatency +
         static_cast<util::TimeNs>(hops(src, dst) + 1) *
             kPerHopLatency;
}

}  // namespace evolve::net
