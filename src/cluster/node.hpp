// Node hardware model: cores, DRAM, storage devices, rack placement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/resources.hpp"
#include "util/types.hpp"

namespace evolve::cluster {

using NodeId = std::int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// One storage device class on a node (DRAM tier, NVMe, HDD).
struct StorageDeviceSpec {
  std::string name;               // "dram", "nvme", "hdd"
  util::Bytes capacity = 0;       // usable bytes
  double read_bw_bytes_per_s = 0;
  double write_bw_bytes_per_s = 0;
  util::TimeNs access_latency = 0;  // per-request fixed cost
};

/// Static description of a node.
struct NodeSpec {
  std::string name;
  int cores = 0;
  double core_speed = 1.0;  // relative CPU speed multiplier
  util::Bytes dram = 0;
  int accel_devices = 0;    // physical FPGA cards
  int rack = 0;
  std::vector<StorageDeviceSpec> devices;  // ordered fast -> slow
  std::vector<std::string> labels;         // scheduler-visible labels

  /// Allocatable resource vector derived from the hardware
  /// (1000 millicores per core; one schedulable slot per accel device,
  /// which the accel pool refines by its virtualization factor).
  Resources allocatable() const;

  const StorageDeviceSpec* device(const std::string& device_name) const;
  bool has_label(const std::string& label) const;
};

/// Standard node flavors used across the benchmarks. These follow the
/// EVOLVE testbed's mix: fat compute nodes, storage-heavy nodes, and
/// FPGA-equipped accelerator nodes.
NodeSpec make_compute_node(const std::string& name, int rack);
NodeSpec make_storage_node(const std::string& name, int rack);
NodeSpec make_accel_node(const std::string& name, int rack);

}  // namespace evolve::cluster
