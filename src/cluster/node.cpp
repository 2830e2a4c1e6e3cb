#include "cluster/node.hpp"

#include <algorithm>

namespace evolve::cluster {

Resources NodeSpec::allocatable() const {
  Resources r;
  r.cpu_millicores = static_cast<std::int64_t>(cores) * 1000;
  r.memory_bytes = dram;
  r.accel_slots = static_cast<std::int64_t>(accel_devices);
  return r;
}

const StorageDeviceSpec* NodeSpec::device(
    const std::string& device_name) const {
  for (const auto& dev : devices) {
    if (dev.name == device_name) return &dev;
  }
  return nullptr;
}

bool NodeSpec::has_label(const std::string& label) const {
  return std::find(labels.begin(), labels.end(), label) != labels.end();
}

namespace {

StorageDeviceSpec dram_tier(util::Bytes capacity) {
  return StorageDeviceSpec{
      .name = "dram",
      .capacity = capacity,
      .read_bw_bytes_per_s = 20e9,
      .write_bw_bytes_per_s = 20e9,
      .access_latency = util::micros(1),
  };
}

StorageDeviceSpec nvme_tier(util::Bytes capacity) {
  return StorageDeviceSpec{
      .name = "nvme",
      .capacity = capacity,
      .read_bw_bytes_per_s = 3e9,
      .write_bw_bytes_per_s = 2e9,
      .access_latency = util::micros(80),
  };
}

StorageDeviceSpec hdd_tier(util::Bytes capacity) {
  return StorageDeviceSpec{
      .name = "hdd",
      .capacity = capacity,
      .read_bw_bytes_per_s = 180e6,
      .write_bw_bytes_per_s = 160e6,
      .access_latency = util::millis(8),
  };
}

}  // namespace

NodeSpec make_compute_node(const std::string& name, int rack) {
  NodeSpec node;
  node.name = name;
  node.cores = 32;
  node.core_speed = 1.0;
  node.dram = 128 * util::kGiB;
  node.accel_devices = 0;
  node.rack = rack;
  node.devices = {dram_tier(32 * util::kGiB), nvme_tier(2 * 1024 * util::kGiB)};
  node.labels = {"role=compute"};
  return node;
}

NodeSpec make_storage_node(const std::string& name, int rack) {
  NodeSpec node;
  node.name = name;
  node.cores = 16;
  node.core_speed = 1.0;
  node.dram = 192 * util::kGiB;
  node.accel_devices = 0;
  node.rack = rack;
  node.devices = {dram_tier(64 * util::kGiB), nvme_tier(8 * 1024 * util::kGiB),
                  hdd_tier(64 * 1024 * util::kGiB)};
  node.labels = {"role=storage"};
  return node;
}

NodeSpec make_accel_node(const std::string& name, int rack) {
  NodeSpec node;
  node.name = name;
  node.cores = 24;
  node.core_speed = 1.0;
  node.dram = 96 * util::kGiB;
  node.accel_devices = 2;
  node.rack = rack;
  node.devices = {dram_tier(24 * util::kGiB), nvme_tier(1024 * util::kGiB)};
  node.labels = {"role=accel"};
  return node;
}

}  // namespace evolve::cluster
