// Storage-device service model.
//
// Each (node, device) pair gets a DeviceQueue that serializes requests:
// a request's service time is the device's fixed access latency plus
// size/bandwidth, and requests queue FIFO behind the device's busy time.
// This reproduces device-level contention (e.g. many shuffle spills
// hitting one NVMe) without per-sector detail.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "sim/simulation.hpp"
#include "util/types.hpp"

namespace evolve::storage {

enum class IoKind { kRead, kWrite };

/// Pure service-time formula (no queueing). Exposed for tests and for
/// quick analytic estimates.
util::TimeNs service_time(const cluster::StorageDeviceSpec& device,
                          IoKind kind, util::Bytes bytes);

/// FIFO queue in front of one device.
class DeviceQueue {
 public:
  DeviceQueue(sim::Simulation& sim, cluster::StorageDeviceSpec spec);

  /// Enqueues an I/O; `on_done` fires when it completes.
  void submit(IoKind kind, util::Bytes bytes, std::function<void()> on_done);

  const cluster::StorageDeviceSpec& spec() const { return spec_; }
  std::int64_t completed_requests() const { return completed_; }

  /// Time at which the device becomes idle given current queue.
  util::TimeNs busy_until() const { return busy_until_; }

 private:
  sim::Simulation& sim_;
  cluster::StorageDeviceSpec spec_;
  util::TimeNs busy_until_ = 0;
  std::int64_t completed_ = 0;
};

/// Per-cluster registry of device queues, keyed by (node, device name).
/// Queues never move once built, so a reference to one stays valid for
/// the subsystem's lifetime.
class IoSubsystem {
 public:
  IoSubsystem(sim::Simulation& sim, const cluster::Cluster& cluster);

  /// Returns the queue for a device; throws if the node lacks it.
  DeviceQueue& device(cluster::NodeId node, const std::string& name);

  /// True if the node has a device with this name.
  bool has_device(cluster::NodeId node, const std::string& name) const;

 private:
  /// The queue of `node`'s first device named `name`, or null.
  DeviceQueue* find(cluster::NodeId node, const std::string& name);

  /// Each node's queues in its device order (a node has a handful, so a
  /// name lookup is a short scan).
  std::vector<std::vector<DeviceQueue>> queues_;
};

}  // namespace evolve::storage
