// The siloed baseline: the SAME hardware as the converged platform, but
// operated as three disjoint silos (cloud / big-data / HPC), each with
// its own scheduler partition, and two storage namespaces.
//
// It is a layout of core::Platform, not a second platform: steps run
// through the same code and only the routing differs. A step whose input
// lives in the other silo's store must stage-copy its partitions through
// a gateway node first — exactly the overhead EVOLVE's shared-storage
// convergence eliminates. Static partitioning also strands capacity,
// which the unified scheduler recovers (experiment F4).
#pragma once

#include "core/platform.hpp"

namespace evolve::core {

class SiloedPlatform : public Platform {
 public:
  /// Builds the same testbed as Platform(config) and partitions it:
  /// compute nodes split three ways (cloud/bigdata/hpc), storage nodes
  /// split between the big-data store and the HPC store, accel nodes to
  /// the HPC silo. The cloud silo reads through the big-data store.
  /// Requires >= 3 compute and >= 2 storage nodes.
  explicit SiloedPlatform(sim::Simulation& sim, PlatformConfig config = {});
};

}  // namespace evolve::core
