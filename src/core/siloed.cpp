#include "core/siloed.hpp"

#include <stdexcept>

namespace evolve::core {

namespace {

PlatformConfig checked(PlatformConfig config) {
  if (config.compute_nodes < 3 || config.storage_nodes < 2) {
    throw std::invalid_argument(
        "siloed platform needs >= 3 compute and >= 2 storage nodes");
  }
  return config;
}

}  // namespace

SiloedPlatform::SiloedPlatform(sim::Simulation& sim, PlatformConfig config)
    : Platform(sim, checked(std::move(config)), SubstrateOnly{}) {
  // Partition the hardware: compute nodes in thirds, accel nodes to the
  // HPC silo, storage servers in halves.
  const auto compute = cluster().nodes_with_label("role=compute");
  const auto storage_nodes = cluster().nodes_with_label("role=storage");
  const auto accel_nodes = cluster().nodes_with_label("role=accel");
  const std::size_t third = compute.size() / 3;
  std::vector<cluster::NodeId> silo_nodes[3];
  for (std::size_t i = 0; i < compute.size(); ++i) {
    silo_nodes[i < third ? 0 : i < 2 * third ? 1 : 2].push_back(compute[i]);
  }
  for (auto node : accel_nodes) silo_nodes[2].push_back(node);
  const auto half = storage_nodes.begin() +
                    static_cast<std::ptrdiff_t>(storage_nodes.size() / 2);

  storage::DatasetCatalog& bigdata = add_store({storage_nodes.begin(), half});
  storage::DatasetCatalog& hpc = add_store({half, storage_nodes.end()});
  orch::Orchestrator* orchestrators[3];
  for (int i = 0; i < 3; ++i) {
    orch::OrchestratorConfig oc = this->config().orchestrator;
    oc.nodes = silo_nodes[i];
    orchestrators[i] = &add_orchestrator(std::move(oc));
  }
  bring_up({orchestrators[0], &bigdata}, {orchestrators[1], &bigdata},
           {orchestrators[2], &hpc});
}

}  // namespace evolve::core
