// Lease-based liveness with fencing tokens.
//
// "Slow vs. dead is undecidable" over an asynchronous network: a
// partitioned node looks exactly like a crashed one from the control
// plane, yet it may still be running pods and issuing writes on the far
// side. The LeaseManager resolves the ambiguity the way production
// control planes do — with time, not certainty:
//
//  * Every managed node renews a lease by sending a heartbeat *through
//    the fabric* to the leader node. A partition parks the heartbeat,
//    so lease expiry emerges from the modeled network, not from an
//    oracle.
//  * A node whose lease expires becomes Unreachable (unschedulable in
//    the orchestrator, pods fenced in place) and its fencing epoch is
//    bumped. Expiry and reconnect write `unreachable` and `epoch` into
//    the orchestrator's cluster::NodeConditions table first, then into
//    every attached one (see fault/wiring.hpp): layers that fence treat
//    writes stamped with an older epoch as zombie writes and reject
//    them — the node may be alive, but it can no longer mutate shared
//    state.
//  * Only after the lease *grace* elapses are the fenced pods evicted
//    and rescheduled. A partition shorter than the grace therefore heals
//    without a pod massacre: the first heartbeat that lands after the
//    heal reconnects the node.
//
// Crashes are not leases' business: connected to a FaultInjector, the
// manager pauses a node's lease while the node is down (the crash path
// already evicted its pods) and resumes it with a fresh lease on
// recovery. A node whose lease had already expired stays Unreachable
// while down and after recovery, until its first heartbeat lands: each
// expiry gets exactly one reconnect.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/conditions.hpp"
#include "net/fabric.hpp"
#include "orch/scheduler.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace evolve::orch {

struct LeaseManagerConfig {
  /// After expiry, how long fenced pods wait before being evicted.
  util::TimeNs grace = util::seconds(10);
  /// Staggers each node's renewal phase so heartbeats don't arrive as a
  /// synchronized wave.
  std::uint64_t seed = 1;
};

class LeaseManager {
 public:
  /// Node hosting the lease table (the control plane's vantage point).
  static constexpr cluster::NodeId kLeader = 0;
  static constexpr util::TimeNs kRenewInterval = util::millis(500);
  /// Lease length: expiry fires this long after the last heartbeat
  /// landed at the leader. It exceeds the renew interval, or every
  /// healthy renewal would race its own expiry.
  static constexpr util::TimeNs kTtl = util::seconds(2);
  static_assert(kTtl > kRenewInterval);
  /// Heartbeat message size.
  static constexpr util::Bytes kRenewBytes = 256;

  /// Called with the node, its current fencing epoch, and the time.
  using LeaseFn =
      std::function<void(cluster::NodeId, std::int64_t, util::TimeNs)>;

  LeaseManager(sim::Simulation& sim, net::Fabric& fabric, Orchestrator& orch,
               LeaseManagerConfig config = {});
  LeaseManager(const LeaseManager&) = delete;
  LeaseManager& operator=(const LeaseManager&) = delete;

  /// Attaches a consumer's table, written after the orchestrator's: a
  /// lease expiry sets `unreachable` with the bumped epoch, a heartbeat
  /// from an Unreachable node clears it.
  void attach(cluster::NodeConditions& table) { tables_.attach(table); }
  /// Crashes reach the manager here (pause while down, resume after).
  cluster::NodeConditions& conditions() { return conditions_; }
  /// Grace elapsed: the node's fenced pods were evicted for reschedule.
  void on_evict(LeaseFn fn) { evict_subs_.push_back(std::move(fn)); }

  /// Grants initial leases and starts the renewal loops for every node
  /// the orchestrator manages.
  void start();
  /// Cancels all renewal/expiry events and in-flight heartbeats
  /// (end-of-experiment drain).
  void stop();

  /// Current fencing epoch of a node (bumped on every expiry). Writes
  /// stamped with an older epoch are zombie writes.
  std::int64_t epoch(cluster::NodeId node) const;
  bool is_unreachable(cluster::NodeId node) const;
  int unreachable_count() const { return unreachable_count_; }
  std::int64_t expiries() const { return expiries_; }
  std::int64_t reconnects() const { return reconnects_; }
  std::int64_t evictions() const { return evictions_; }
  /// Accumulated node-seconds spent Unreachable (open intervals charged
  /// up to now).
  double unreachable_node_seconds() const;

 private:
  struct NodeLease {
    bool paused = false;       // FaultInjector holds the node down
    bool unreachable = false;  // lease expired, not yet reconnected
    std::int64_t epoch = 1;
    net::FlowId pending = 0;  // in-flight heartbeat (0 = none)
    sim::EventId renew_event = 0;
    sim::EventId expiry_event = 0;
    sim::EventId grace_event = 0;
    bool has_renew_event = false;
    bool has_expiry_event = false;
    bool has_grace_event = false;
    util::TimeNs unreachable_since = 0;
    util::Rng rng;  // per-node renewal phase jitter
  };

  /// Crash: a downed node stops renewing without becoming Unreachable —
  /// the crash path already evicted its pods. An already Unreachable
  /// node stays so.
  void pause(cluster::NodeId node);
  /// Recovery: fresh lease, renewals restart; an Unreachable node
  /// reconnects when a heartbeat lands.
  void resume(cluster::NodeId node);
  void arm_renewal(cluster::NodeId node, util::TimeNs delay);
  void send_renewal(cluster::NodeId node);
  void handle_ack(cluster::NodeId node);
  void handle_expiry(cluster::NodeId node);
  void handle_grace(cluster::NodeId node);
  void arm_expiry(cluster::NodeId node);
  void cancel_events(NodeLease& lease);
  NodeLease& lease(cluster::NodeId node);

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  Orchestrator& orch_;
  LeaseManagerConfig config_;
  util::Rng rng_;
  bool started_ = false;
  bool stopped_ = false;
  cluster::ConditionTables tables_;  // the orchestrator's first
  cluster::NodeConditions conditions_;
  std::vector<LeaseFn> evict_subs_;
  std::map<cluster::NodeId, NodeLease> leases_;
  int unreachable_count_ = 0;
  std::int64_t expiries_ = 0;
  std::int64_t reconnects_ = 0;
  std::int64_t evictions_ = 0;
  util::TimeNs unreachable_ns_ = 0;
};

}  // namespace evolve::orch
