// Network partition injection on top of net::Fabric reachability masks.
//
// A PartitionInjector composes any number of concurrently active
// partition "edicts" — symmetric splits, node/rack isolation, and
// asymmetric (one-directional) partitions — into a single reachability
// mask. Each edict labels every host; a host's signature across the
// active edicts defines its reachability equivalence class, and the
// injector rebuilds the class-level blocked matrix on every start/heal
// transition (partitions are rare events, so the O(hosts · edicts)
// rebuild is off the hot path). The fabric parks flows crossing a
// blocked pair and resumes them on heal, so the layers above experience
// a partition as *stalled* — not failed — traffic: exactly the
// "slow vs. dead is undecidable" ambiguity that lease-based liveness
// (orch::LeaseManager) exists to resolve.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "cluster/cluster.hpp"
#include "metrics/timeseries.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace evolve::fault {

using PartitionId = std::int64_t;

struct PartitionInjectorConfig {
  std::uint64_t seed = 1;  // drives the seeded random-partition process
};

class PartitionInjector {
 public:
  /// Called with the simulated time of the transition.
  using PartitionFn = std::function<void(util::TimeNs)>;

  PartitionInjector(sim::Simulation& sim, net::Fabric& fabric,
                    PartitionInjectorConfig config = {});
  PartitionInjector(const PartitionInjector&) = delete;
  PartitionInjector& operator=(const PartitionInjector&) = delete;

  /// Registers a subscriber; callbacks fire in registration order, once
  /// per partition start / heal.
  void on_partition(PartitionFn fn) { partition_subs_.push_back(std::move(fn)); }
  void on_heal(PartitionFn fn) { heal_subs_.push_back(std::move(fn)); }

  // -- Immediate partitions (each returns a healable id) --------------
  /// Symmetric split: hosts in different sides cannot reach each other
  /// in either direction. Hosts listed in no side are unaffected (they
  /// still reach everyone — a partial partition with bridge nodes).
  PartitionId split(const std::vector<std::vector<cluster::NodeId>>& sides);
  /// Cuts `nodes` off from the rest of the cluster (both directions);
  /// the isolated nodes still reach each other.
  PartitionId isolate(const std::vector<cluster::NodeId>& nodes);
  /// Isolates every host in one rack (ToR partition, not ToR death:
  /// intra-rack traffic still flows).
  PartitionId isolate_rack(int rack);
  /// Asymmetric partition: hosts in `from` cannot reach hosts in `to`,
  /// but the reverse direction still works.
  PartitionId asymmetric(const std::vector<cluster::NodeId>& from,
                         const std::vector<cluster::NodeId>& to);
  /// Heals one partition. No-op if already healed.
  void heal(PartitionId id);
  /// Heals everything (end-of-experiment drain).
  void heal_all();

  // -- Deterministic schedules ---------------------------------------
  void schedule_split(std::vector<std::vector<cluster::NodeId>> sides,
                      util::TimeNs at, util::TimeNs duration);
  void schedule_rack_isolation(int rack, util::TimeNs at,
                               util::TimeNs duration);
  void schedule_asymmetric(std::vector<cluster::NodeId> from,
                           std::vector<cluster::NodeId> to, util::TimeNs at,
                           util::TimeNs duration);

  // -- Seeded random process -----------------------------------------
  /// Starts a renewal process injecting rack isolations: exponential
  /// inter-partition time with mean `mtbp_s` seconds, exponential
  /// duration with mean `mean_duration_s`, uniformly random rack. No
  /// partitions are *initiated* after `until` (active ones still heal).
  /// Deterministic for a given config seed.
  void random_partitions(double mtbp_s, double mean_duration_s,
                         util::TimeNs until);

  bool active() const { return !edicts_.empty(); }
  int active_partitions() const { return static_cast<int>(edicts_.size()); }
  std::int64_t partitions_injected() const { return partitions_injected_; }
  std::int64_t heals() const { return heals_; }
  /// Accumulated seconds during which at least one partition was active
  /// (open intervals are charged up to `now`).
  double partition_seconds() const {
    return any_active_.integral(sim_.now()) / 1e9;
  }

 private:
  struct Edict {
    bool asymmetric = false;
    // Per-host label. Symmetric edicts: 0 = unaffected, labels 1..k are
    // mutually unreachable sides. Asymmetric edicts: bitmask with 1 =
    // "from" side, 2 = "to" side; blocked when src has the from bit and
    // dst the to bit.
    std::vector<int> labels;
  };
  struct RandomProcess {
    double mtbp_s;
    double mean_duration_s;
    util::TimeNs until;
    util::Rng rng;
  };

  PartitionId install(Edict edict);
  /// Recomputes host equivalence classes and the blocked matrix from the
  /// active edicts and pushes the mask into the fabric.
  void rebuild();
  static bool edict_blocks(const Edict& e, int from_label, int to_label);
  void arm_random(std::size_t process);

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  PartitionInjectorConfig config_;
  util::Rng rng_;
  std::vector<PartitionFn> partition_subs_;
  std::vector<PartitionFn> heal_subs_;
  PartitionId next_id_ = 1;
  std::map<PartitionId, Edict> edicts_;  // id order: deterministic rebuild
  std::vector<RandomProcess> processes_;
  std::int64_t partitions_injected_ = 0;
  std::int64_t heals_ = 0;
  metrics::UsageTracker any_active_;  // 1 while any edict is installed
};

}  // namespace evolve::fault
