// Cluster-wide fault injection driven by the shared simulation clock.
//
// A FaultInjector kills and restores whole nodes, either on a
// deterministic schedule or through a seeded MTBF/MTTR renewal process
// per node class. It knows nothing about the layers above it: it writes
// `down` into every attached cluster::NodeConditions table (see
// fault/wiring.hpp), and each consumer translates a node death into its
// own recovery actions, so one crash propagates coherently through every
// subsystem that shares the clock.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/conditions.hpp"
#include "metrics/registry.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace evolve::fault {

struct FaultInjectorConfig {
  std::uint64_t seed = 1;  // drives every MTBF/MTTR process
};

class FaultInjector {
 public:
  explicit FaultInjector(sim::Simulation& sim, FaultInjectorConfig config = {})
      : sim_(sim), config_(config), rng_(config.seed) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Attaches a consumer's table: every crash and recovery writes its
  /// `down`, tables in attach order.
  void attach(cluster::NodeConditions& table) { tables_.attach(table); }

  // -- Deterministic schedules ---------------------------------------
  void schedule_failure(cluster::NodeId node, util::TimeNs at);
  void schedule_recovery(cluster::NodeId node, util::TimeNs at);
  /// Failure at `at`, recovery at `at + downtime`. Overlapping outages
  /// on one node coalesce: the node stays down until the latest
  /// scheduled recovery, tables are written once per actual transition,
  /// and downtime accounting covers the union of the intervals.
  void schedule_outage(cluster::NodeId node, util::TimeNs at,
                       util::TimeNs downtime);

  // -- Correlated failures -------------------------------------------
  /// Rack-scoped outage: the rack's ToR switch dies, so every host in
  /// `rack` fails together at `at` and recovers together at
  /// `at + downtime`. Per-node overlap coalescing applies as in
  /// schedule_outage. This is the failure mode that distinguishes
  /// failure-domain-aware placement from rack-oblivious placement: a
  /// stripe with more than m fragments in one rack dies with it.
  void schedule_rack_outage(const cluster::Cluster& cluster, int rack,
                            util::TimeNs at, util::TimeNs downtime);
  std::int64_t rack_outages_scheduled() const {
    return metrics_.counter("rack_outages");
  }

  // -- Seeded random process -----------------------------------------
  /// Starts an independent MTBF/MTTR renewal process on each node:
  /// exponential time-to-failure with mean `mtbf_s` seconds, exponential
  /// repair with mean `mttr_s` seconds. No failures are *initiated* after
  /// `until`, so the fabric can drain (a node down at `until` still
  /// recovers). Deterministic for a given config seed.
  void random_process(const std::vector<cluster::NodeId>& nodes,
                      double mtbf_s, double mttr_s, util::TimeNs until);

  // -- Immediate transitions (also used by the schedulers above) ------
  /// Kills a node now. No-op if it is already down.
  void kill(cluster::NodeId node);
  /// Restores a node now. No-op if it is up.
  void restore(cluster::NodeId node);
  /// Restores every downed node now (end-of-experiment drain).
  void restore_all();

  bool is_down(cluster::NodeId node) const { return down_.count(node) != 0; }
  int down_count() const { return static_cast<int>(down_.size()); }

  std::int64_t failures_injected() const {
    return metrics_.counter("node_failures");
  }
  std::int64_t recoveries() const {
    return metrics_.counter("node_recoveries");
  }
  /// Accumulated node-seconds of downtime (downed intervals only; open
  /// intervals are charged up to `now`).
  double downtime_node_seconds() const;

  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

 private:
  struct Process {
    cluster::NodeId node;
    double mtbf_s;
    double mttr_s;
    util::TimeNs until;
    util::Rng rng;
  };

  void arm_failure(std::size_t process);
  void arm_recovery(std::size_t process);

  sim::Simulation& sim_;
  FaultInjectorConfig config_;
  util::Rng rng_;
  cluster::ConditionTables tables_;
  std::vector<Process> processes_;
  std::set<cluster::NodeId> down_;
  std::map<cluster::NodeId, util::TimeNs> down_since_;
  // Latest scheduled-outage end per node; an outage recovery only
  // restores once the hold has elapsed, so overlapping outages coalesce.
  std::map<cluster::NodeId, util::TimeNs> outage_hold_until_;
  util::TimeNs downtime_ns_ = 0;
  metrics::Registry metrics_;
};

}  // namespace evolve::fault
