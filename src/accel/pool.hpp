// Cluster-wide accelerator pool: device discovery, least-loaded
// dispatch, and queueing when every device is saturated.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accel/device.hpp"
#include "accel/kernels.hpp"
#include "cluster/cluster.hpp"
#include "cluster/conditions.hpp"
#include "metrics/registry.hpp"
#include "sim/simulation.hpp"

namespace evolve::accel {

class AccelPool {
 public:
  /// Builds one AccelDevice per physical card in the cluster.
  AccelPool(sim::Simulation& sim, const cluster::Cluster& cluster,
            KernelRegistry registry = KernelRegistry::standard(),
            DeviceConfig device_config = {});

  int device_count() const { return static_cast<int>(devices_.size()); }
  const AccelDevice& device(int index) const;
  const KernelRegistry& kernels() const { return registry_; }

  /// Offloads `cpu_time` worth of CPU work through `kernel`. Queues if
  /// all devices are saturated. Prefers a device on `near_node`
  /// (PCIe-local), falling back to the least-loaded device anywhere.
  void offload(const std::string& kernel, util::TimeNs cpu_time,
               cluster::NodeId near_node, std::function<void()> on_done);

  /// CPU-only execution time for comparison (no offload).
  static util::TimeNs cpu_time_for(util::TimeNs cpu_time) { return cpu_time; }

  /// Device time `kernel` needs for `cpu_time` of CPU work.
  util::TimeNs device_work(const std::string& kernel,
                           util::TimeNs cpu_time) const;

  int queued() const { return static_cast<int>(queue_.size()); }
  metrics::Registry& metrics() { return metrics_; }

  /// Mean utilization across devices.
  double mean_utilization() const;

  /// Gray-failure producers write here: each slowdown write paces every
  /// device hosted on the node at its accel_slowdown (>= 1; 1 restores
  /// full speed).
  cluster::NodeConditions& conditions() { return conditions_; }

 private:
  struct PendingOffload {
    std::string kernel;
    util::TimeNs work;
    cluster::NodeId near_node;
    std::function<void()> on_done;
  };

  int pick_device(cluster::NodeId near_node) const;
  void dispatch(PendingOffload pending);
  void drain_queue();

  sim::Simulation& sim_;
  KernelRegistry registry_;
  std::vector<std::unique_ptr<AccelDevice>> devices_;
  std::vector<cluster::NodeId> device_nodes_;
  std::deque<PendingOffload> queue_;
  cluster::NodeConditions conditions_;
  metrics::Registry metrics_;
};

}  // namespace evolve::accel
