// Datacenter topology: hosts -> rack (ToR) switches -> core switch.
//
// Links are directed (full-duplex modeled as two independent directed
// links). The topology resolves a source/destination host pair into the
// ordered list of directed links a flow occupies, and the end-to-end
// propagation latency.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "util/types.hpp"

namespace evolve::net {

using LinkId = std::int32_t;

struct Link {
  std::string name;
  double capacity_bytes_per_s = 0;
};

/// The directed links one flow occupies, stored inline: a two-tier
/// topology never routes over more than four (host up, ToR up, ToR down,
/// host down), so building or copying a path never touches the heap.
class Path {
 public:
  static constexpr std::size_t kMaxLinks = 4;

  Path() = default;
  Path(std::initializer_list<LinkId> links) {
    for (const LinkId l : links) links_[size_++] = l;
  }

  const LinkId* begin() const { return links_.data(); }
  const LinkId* end() const { return links_.data() + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  LinkId operator[](std::size_t i) const { return links_[i]; }

 private:
  std::array<LinkId, kMaxLinks> links_{};
  std::size_t size_ = 0;
};

inline constexpr double kHostLinkBytesPerS = 1.25e9;  // 10 GbE access links
inline constexpr double kTorUplinkBytesPerS = 5e9;    // 40 GbE rack uplinks
inline constexpr util::TimeNs kPerHopLatency = util::micros(2);
inline constexpr util::TimeNs kBaseLatency = util::micros(10);  // NIC + stack
inline constexpr double kLoopbackBytesPerS = 16e9;  // intra-node memcpy

class Topology {
 public:
  /// Builds host and ToR links for every node in `cluster`.
  explicit Topology(const cluster::Cluster& cluster);

  int host_count() const { return host_count_; }
  int rack_count() const { return rack_count_; }

  const Link& link(LinkId id) const { return links_[static_cast<std::size_t>(id)]; }
  int link_count() const { return static_cast<int>(links_.size()); }

  /// Directed links traversed by a flow from host `src` to host `dst`.
  /// Empty for src == dst (loopback).
  Path path(cluster::NodeId src, cluster::NodeId dst) const;

  /// End-to-end latency for one message src -> dst.
  util::TimeNs latency(cluster::NodeId src, cluster::NodeId dst) const;

  /// Number of switch hops between two hosts (0 loopback, 1 same rack,
  /// 2 across racks through the core).
  int hops(cluster::NodeId src, cluster::NodeId dst) const;

  /// True when both hosts are in the same rack.
  bool same_rack(cluster::NodeId a, cluster::NodeId b) const;

  /// Rack (failure-domain) index of a host.
  int rack_of(cluster::NodeId host) const {
    return host_rack_[static_cast<std::size_t>(host)];
  }

  /// The two directed NIC links of a host: {egress (up), ingress (down)}.
  /// Lets fault wiring translate "this node's NIC degraded" into link ids.
  std::array<LinkId, 2> host_links(cluster::NodeId host) const {
    return {host_up(host), host_down(host)};
  }

 private:
  LinkId host_up(cluster::NodeId host) const;
  LinkId host_down(cluster::NodeId host) const;
  LinkId tor_up(int rack) const;
  LinkId tor_down(int rack) const;

  int host_count_ = 0;
  int rack_count_ = 0;
  std::vector<int> host_rack_;
  std::vector<Link> links_;
};

}  // namespace evolve::net
