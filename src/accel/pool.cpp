#include "accel/pool.hpp"

#include <climits>
#include <cmath>
#include <stdexcept>

namespace evolve::accel {

AccelPool::AccelPool(sim::Simulation& sim, const cluster::Cluster& cluster,
                     KernelRegistry registry, DeviceConfig device_config)
    : sim_(sim),
      registry_(std::move(registry)),
      conditions_([this](cluster::NodeId node,
                         const cluster::NodeCondition& before,
                         const cluster::NodeCondition& after) {
        // Every slowdown write re-paces the node's devices, one that
        // leaves the factor as it was too; a write by another producer
        // (it changes only its own field) leaves them alone.
        cluster::NodeCondition slowed = before;
        slowed.cpu_slowdown = after.cpu_slowdown;
        slowed.accel_slowdown = after.accel_slowdown;
        if (!(slowed == after)) return;
        for (std::size_t i = 0; i < devices_.size(); ++i) {
          if (device_nodes_[i] == node) {
            devices_[i]->set_slowdown(after.accel_slowdown);
          }
        }
      }) {
  for (cluster::NodeId n = 0; n < cluster.size(); ++n) {
    const auto& node = cluster.node(n);
    for (int card = 0; card < node.accel_devices; ++card) {
      devices_.push_back(std::make_unique<AccelDevice>(
          sim, node.name + "/fpga" + std::to_string(card), device_config));
      device_nodes_.push_back(n);
    }
  }
}

const AccelDevice& AccelPool::device(int index) const {
  return *devices_.at(static_cast<std::size_t>(index));
}

util::TimeNs AccelPool::device_work(const std::string& kernel,
                                    util::TimeNs cpu_time) const {
  const KernelProfile& profile = registry_.profile(kernel);
  return profile.invoke_overhead +
         static_cast<util::TimeNs>(
             std::ceil(static_cast<double>(cpu_time) / profile.speedup));
}

int AccelPool::pick_device(cluster::NodeId near_node) const {
  int best = -1;
  int best_load = INT_MAX;
  // First preference: least-loaded device with capacity on the near node.
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (device_nodes_[i] != near_node) continue;
    if (!devices_[i]->has_capacity()) continue;
    if (devices_[i]->running() < best_load) {
      best_load = devices_[i]->running();
      best = static_cast<int>(i);
    }
  }
  if (best >= 0) return best;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (!devices_[i]->has_capacity()) continue;
    if (devices_[i]->running() < best_load) {
      best_load = devices_[i]->running();
      best = static_cast<int>(i);
    }
  }
  return best;
}

void AccelPool::dispatch(PendingOffload pending) {
  const int index = pick_device(pending.near_node);
  if (index < 0) {
    queue_.push_back(std::move(pending));
    metrics_.set_gauge("queued", static_cast<double>(queue_.size()));
    return;
  }
  metrics_.count("offloads");
  auto on_done = std::move(pending.on_done);
  const auto id = devices_[static_cast<std::size_t>(index)]->execute(
      pending.kernel, pending.work,
      [this, cb = std::move(on_done)]() mutable {
        // Run the completion first, then admit queued work.
        cb();
        drain_queue();
      });
  if (id < 0) throw std::logic_error("picked device had no capacity");
}

void AccelPool::drain_queue() {
  while (!queue_.empty()) {
    // Try the head; if nothing has capacity it goes right back.
    PendingOffload pending = std::move(queue_.front());
    queue_.pop_front();
    const int index = pick_device(pending.near_node);
    if (index < 0) {
      queue_.push_front(std::move(pending));
      break;
    }
    dispatch(std::move(pending));
  }
  metrics_.set_gauge("queued", static_cast<double>(queue_.size()));
}

void AccelPool::offload(const std::string& kernel, util::TimeNs cpu_time,
                        cluster::NodeId near_node,
                        std::function<void()> on_done) {
  if (devices_.empty()) {
    throw std::logic_error("no accelerator devices in the cluster");
  }
  if (!registry_.has(kernel)) {
    throw std::invalid_argument("unknown kernel: " + kernel);
  }
  dispatch(PendingOffload{kernel, device_work(kernel, cpu_time), near_node,
                          std::move(on_done)});
}

double AccelPool::mean_utilization() const {
  if (devices_.empty()) return 0.0;
  double total = 0;
  for (const auto& device : devices_) total += device->utilization();
  return total / static_cast<double>(devices_.size());
}

}  // namespace evolve::accel
