#include "orch/lease.hpp"

#include <stdexcept>

namespace evolve::orch {

LeaseManager::LeaseManager(sim::Simulation& sim, net::Fabric& fabric,
                           Orchestrator& orch, LeaseManagerConfig config)
    : sim_(sim),
      fabric_(fabric),
      orch_(orch),
      config_(config),
      rng_(config.seed),
      conditions_([this](cluster::NodeId node,
                         const cluster::NodeCondition& before,
                         const cluster::NodeCondition& after) {
        if (after.down && !before.down) pause(node);
        if (before.down && !after.down) resume(node);
      }) {
  tables_.attach(orch_.conditions());
  if (config_.grace < 0) {
    throw std::invalid_argument("lease grace must not be negative");
  }
}

LeaseManager::NodeLease& LeaseManager::lease(cluster::NodeId node) {
  const auto it = leases_.find(node);
  if (it == leases_.end()) {
    throw std::out_of_range("node has no lease (start() not called?)");
  }
  return it->second;
}

void LeaseManager::start() {
  if (started_) return;
  started_ = true;
  for (const cluster::NodeId node : orch_.managed_nodes()) {
    NodeLease& l = leases_[node];
    l.rng = rng_.fork();
    // Initial lease granted at t=start; the first renewal lands at a
    // per-node phase inside the first interval so heartbeats stay
    // desynchronized forever after.
    arm_expiry(node);
    arm_renewal(node, static_cast<util::TimeNs>(
                          l.rng.uniform(0.0, 1.0) *
                          static_cast<double>(kRenewInterval)));
  }
}

void LeaseManager::stop() {
  stopped_ = true;
  for (auto& [node, l] : leases_) {
    cancel_events(l);
    if (l.pending != 0) {
      fabric_.cancel(l.pending);
      l.pending = 0;
    }
    if (l.unreachable) {
      l.unreachable = false;
      unreachable_.add(sim_.now(), -1);
    }
  }
}

void LeaseManager::cancel_events(NodeLease& l) {
  if (l.has_renew_event) {
    sim_.cancel(l.renew_event);
    l.has_renew_event = false;
  }
  if (l.has_expiry_event) {
    sim_.cancel(l.expiry_event);
    l.has_expiry_event = false;
  }
  if (l.has_grace_event) {
    sim_.cancel(l.grace_event);
    l.has_grace_event = false;
  }
}

void LeaseManager::arm_renewal(cluster::NodeId node, util::TimeNs delay) {
  NodeLease& l = lease(node);
  l.renew_event = sim_.after(delay, [this, node] {
    lease(node).has_renew_event = false;
    send_renewal(node);
  });
  l.has_renew_event = true;
}

void LeaseManager::send_renewal(cluster::NodeId node) {
  NodeLease& l = lease(node);
  if (stopped_ || l.paused) return;
  // At most one heartbeat in flight per node: a parked (partitioned)
  // renewal is superseded, not stacked — the fabric would otherwise
  // accumulate one parked flow per interval for the partition's whole
  // lifetime.
  if (l.pending != 0) fabric_.cancel(l.pending);
  l.pending = fabric_.transfer(node, kLeader, kRenewBytes,
                               [this, node] { handle_ack(node); });
  arm_renewal(node, kRenewInterval);
}

void LeaseManager::handle_ack(cluster::NodeId node) {
  NodeLease& l = lease(node);
  l.pending = 0;
  if (stopped_ || l.paused) return;
  arm_expiry(node);
  if (!l.unreachable) return;
  // First heartbeat through the healed network: the node reconnects.
  l.unreachable = false;
  unreachable_.add(sim_.now(), -1);
  ++reconnects_;
  if (l.has_grace_event) {
    sim_.cancel(l.grace_event);
    l.has_grace_event = false;
  }
  tables_.set_unreachable(node, false, l.epoch);
}

void LeaseManager::arm_expiry(cluster::NodeId node) {
  NodeLease& l = lease(node);
  if (l.has_expiry_event) sim_.cancel(l.expiry_event);
  l.expiry_event =
      sim_.after(kTtl, [this, node] { handle_expiry(node); });
  l.has_expiry_event = true;
}

void LeaseManager::handle_expiry(cluster::NodeId node) {
  NodeLease& l = lease(node);
  l.has_expiry_event = false;
  if (stopped_ || l.paused || l.unreachable) return;
  l.unreachable = true;
  unreachable_.add(sim_.now(), +1);
  ++expiries_;
  // Bump the fencing epoch *before* notifying: everything the node wrote
  // under the old epoch is now rejectable, even though the node itself
  // may still be alive behind the partition.
  ++l.epoch;
  tables_.set_unreachable(node, true, l.epoch);
  l.grace_event =
      sim_.after(config_.grace, [this, node] { handle_grace(node); });
  l.has_grace_event = true;
}

void LeaseManager::handle_grace(cluster::NodeId node) {
  NodeLease& l = lease(node);
  l.has_grace_event = false;
  if (stopped_ || !l.unreachable) return;
  ++evictions_;
  orch_.expire_unreachable(node);
  for (const LeaseFn& fn : evict_subs_) fn(node, l.epoch, sim_.now());
}

void LeaseManager::pause(cluster::NodeId node) {
  const auto it = leases_.find(node);
  if (it == leases_.end()) return;  // crash before start(): nothing to do
  NodeLease& l = it->second;
  if (l.paused) return;
  l.paused = true;
  cancel_events(l);
  if (l.pending != 0) {
    fabric_.cancel(l.pending);
    l.pending = 0;
  }
  // An Unreachable node stays Unreachable through the crash: the crash
  // path evicts its pods, and only a heartbeat after recovery reconnects
  // it, so every expiry its subscribers saw gets its reconnect.
}

void LeaseManager::resume(cluster::NodeId node) {
  const auto it = leases_.find(node);
  if (it == leases_.end()) return;
  NodeLease& l = it->second;
  if (!l.paused || stopped_) return;
  l.paused = false;
  // Fresh lease: the recovered node gets a full kTtl and rejoins the
  // renewal cadence at its own phase.
  arm_expiry(node);
  arm_renewal(node, static_cast<util::TimeNs>(
                        l.rng.uniform(0.0, 1.0) *
                        static_cast<double>(kRenewInterval)));
}

std::int64_t LeaseManager::epoch(cluster::NodeId node) const {
  const auto it = leases_.find(node);
  return it == leases_.end() ? 1 : it->second.epoch;
}

bool LeaseManager::is_unreachable(cluster::NodeId node) const {
  const auto it = leases_.find(node);
  return it != leases_.end() && it->second.unreachable;
}

}  // namespace evolve::orch
