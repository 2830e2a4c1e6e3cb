#include "storage/io_model.hpp"

#include <cmath>
#include <stdexcept>

namespace evolve::storage {

util::TimeNs service_time(const cluster::StorageDeviceSpec& device,
                          IoKind kind, util::Bytes bytes) {
  if (bytes < 0) throw std::invalid_argument("service_time: negative bytes");
  const double bw = kind == IoKind::kRead ? device.read_bw_bytes_per_s
                                          : device.write_bw_bytes_per_s;
  if (bw <= 0) throw std::logic_error("device has no bandwidth");
  const double transfer_s = static_cast<double>(bytes) / bw;
  return device.access_latency +
         static_cast<util::TimeNs>(std::ceil(transfer_s * 1e9));
}

DeviceQueue::DeviceQueue(sim::Simulation& sim,
                         cluster::StorageDeviceSpec spec)
    : sim_(sim), spec_(std::move(spec)) {}

void DeviceQueue::submit(IoKind kind, util::Bytes bytes,
                         std::function<void()> on_done) {
  const util::TimeNs start = std::max(sim_.now(), busy_until_);
  const util::TimeNs done = start + service_time(spec_, kind, bytes);
  busy_until_ = done;
  sim_.at(done, [this, cb = std::move(on_done)]() mutable {
    ++completed_;
    cb();
  });
}

IoSubsystem::IoSubsystem(sim::Simulation& sim,
                         const cluster::Cluster& cluster) {
  queues_.resize(static_cast<std::size_t>(cluster.size()));
  for (cluster::NodeId n = 0; n < cluster.size(); ++n) {
    const auto& devices = cluster.node(n).devices;
    auto& queues = queues_[static_cast<std::size_t>(n)];
    queues.reserve(devices.size());
    for (const auto& dev : devices) queues.emplace_back(sim, dev);
  }
}

DeviceQueue* IoSubsystem::find(cluster::NodeId node,
                               const std::string& name) {
  if (node < 0 || static_cast<std::size_t>(node) >= queues_.size()) {
    return nullptr;
  }
  for (DeviceQueue& queue : queues_[static_cast<std::size_t>(node)]) {
    if (queue.spec().name == name) return &queue;
  }
  return nullptr;
}

DeviceQueue& IoSubsystem::device(cluster::NodeId node,
                                 const std::string& name) {
  DeviceQueue* queue = find(node, name);
  if (queue == nullptr) {
    throw std::out_of_range("no device '" + name + "' on node " +
                            std::to_string(node));
  }
  return *queue;
}

bool IoSubsystem::has_device(cluster::NodeId node,
                             const std::string& name) const {
  return const_cast<IoSubsystem*>(this)->find(node, name) != nullptr;
}

}  // namespace evolve::storage
