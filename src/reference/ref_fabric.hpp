// The original from-scratch per-flow max-min engine, preserved as a
// reference implementation of net::Fabric. Every rate change settles
// every flow eagerly and re-solves water-filling over individual flows;
// there is no path grouping, lazy settlement or same-time batching. It
// exists so the churn-equivalence, max-min property and partition tests
// and bench_f9_churn can check the grouped engine against it over
// identical schedules. It has no tracer and no link degradation: nothing
// drives those on the oracle.
#pragma once

#include <map>
#include <vector>

#include "net/fabric.hpp"
#include "net/reachability.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace evolve::reference {

class RefFabric {
 public:
  RefFabric(sim::Simulation& sim, const net::Topology& topology);
  // Scheduled simulation events hold `this`.
  RefFabric(const RefFabric&) = delete;
  RefFabric& operator=(const RefFabric&) = delete;

  /// Same contract as net::Fabric::transfer.
  net::FlowId transfer(cluster::NodeId src, cluster::NodeId dst,
                       util::Bytes bytes, net::FlowCallback on_complete);
  bool cancel(net::FlowId id);
  double flow_rate(net::FlowId id) const;

  int active_flows() const { return static_cast<int>(flows_.size()); }
  const net::FlowStats& stats() const { return stats_; }

  /// Same contract as net::Fabric::set_reachability/clear_partitions.
  void set_reachability(std::vector<int> host_group,
                        std::vector<std::vector<char>> blocked);
  void clear_partitions();

 private:
  struct Flow {
    cluster::NodeId src = 0;
    cluster::NodeId dst = 0;
    net::Path path;
    double remaining = 0;
    double rate = 0;
    util::Bytes bytes = 0;
    util::TimeNs latency = 0;
    net::FlowCallback on_complete;
  };

  void settle_progress();
  void recompute();
  void solve_max_min();
  void on_completion_event();
  /// Parks live flows the mask now blocks and resumes parked flows it
  /// unblocks, in flow-id order.
  void apply_reachability();
  void deliver(util::Bytes bytes, bool remote, util::TimeNs latency,
               net::FlowCallback cb);

  sim::Simulation& sim_;
  const net::Topology& topology_;

  net::FlowId next_id_ = 1;
  util::TimeNs last_settle_ = 0;
  sim::EventId pending_event_ = 0;
  bool has_pending_event_ = false;
  net::FlowStats stats_;

  // std::map keeps iteration order deterministic (flow-id order), which
  // makes completion-callback and post-heal resume order reproducible.
  std::map<net::FlowId, Flow> flows_;
  net::Reachability mask_;
  std::map<net::FlowId, Flow> parked_;
  // Zero-byte transfers still waiting out their latency.
  std::map<net::FlowId, sim::EventId> latency_only_;
};

}  // namespace evolve::reference
