// The Service: a deployment turned into a real request-serving endpoint.
//
// Wires the whole request path together:
//
//   generator -> admission (CoDel shed) -> router (RR / least-out / p2c)
//     -> fabric transfer to the replica's node -> bounded FIFO queue
//     -> dynamic batch -> CPU share or accel offload -> response transfer
//
// Replicas track the DeploymentController one-to-one through its replica
// observer: a pod start brings a ReplicaServer up on the pod's node, an
// eviction/scale-down closes it and re-routes its queued requests. The
// router skips replicas on drained nodes (any node condition that takes
// a node out of service: quarantined, lease-expired, down), falling back
// to them only when nothing healthy is left — availability over purity.
// Gray CPU slowdowns stretch batch execution on the affected node.
//
// Hedging mirrors the ObjectStore's: when the primary copy has not
// completed after the service's own latency quantile (p95 by default), a
// duplicate is routed to a *different* replica; the first finisher wins,
// the loser is cancelled out of its queue (or its execution counted as
// wasted work). A request bounced off a full queue is shed, not retried
// — the bounded queue is the backpressure signal, and hedges are for
// slowness, not for overload.
//
// A request has at most two copies, each named by (request id, copy
// index): the primary (0) and its hedge (1). The index travels with the
// copy into the replica queue, the batch and the callbacks, so a copy
// re-routed onto the replica its sibling is on stays distinct. A copy
// is unassigned, parked or assigned, and every path that ends an
// assignment (lost on the wire, closed replica, queue full, wasted or
// evicted execution, orphaned by a close, cancelled loser, finalized)
// goes through one retire(), which releases its slot and ends a hedge's
// span. Open replicas live in one table in key order: the router's
// view, the node and the server at the same index.
//
// Every request emits serve.request / serve.queue / serve.exec spans
// (plus serve.hedge and replica-level serve.batch), with fabric
// transfers parented underneath, so the critical-path walk attributes
// request latency across serve/network layers.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/arena.hpp"
#include "util/flat_id_map.hpp"
#include "util/ring_queue.hpp"

#include "cluster/conditions.hpp"
#include "metrics/registry.hpp"
#include "net/fabric.hpp"
#include "orch/controllers.hpp"
#include "serve/admission.hpp"
#include "serve/replica.hpp"
#include "serve/request.hpp"
#include "serve/router.hpp"
#include "serve/signal.hpp"
#include "sim/simulation.hpp"
#include "trace/tracer.hpp"
#include "util/retry_budget.hpp"

namespace evolve::serve {

/// Post-heal admission ramp (see Service::set_reconnect_ramp()): a freshly
/// reconnected node's replicas start with this much virtual load,
/// decaying linearly over the ramp window, so traffic returns gradually
/// instead of as a thundering herd into a cold node.
inline constexpr int kRampMaxPenalty = 32;

struct ServiceConfig {
  BalancePolicy policy = BalancePolicy::kPowerOfTwo;
  ReplicaConfig replica;
  AdmissionConfig admission;
  /// Duplicate slow requests to a second replica after the service's own
  /// latency p95 (metrics::hedge_delay).
  bool hedging = false;
  util::TimeNs hedge_min_delay = util::millis(5);
  int hedge_min_samples = 32;
  std::uint64_t seed = 0x5e12e;  // p2c sampling
};

class Service {
 public:
  /// node, batch execution time — feeds gray-failure health scoring.
  using ExecObserver = std::function<void(cluster::NodeId, util::TimeNs)>;
  using CompletionFn = std::function<void(
      const Request&, const RequestClass&, util::TimeNs latency, bool slo_ok)>;

  Service(sim::Simulation& sim, net::Fabric& fabric,
          orch::DeploymentController& deploy,
          std::vector<RequestClass> classes, ServiceConfig config = {});
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service();

  /// Accepts one request (the generator's sink).
  void submit(Request req);
  std::function<void(Request)> sink() {
    return [this](Request req) { submit(std::move(req)); };
  }

  // -- node conditions (fault/wiring.hpp) -----------------------------
  /// Written by the fault producers. The router skips replicas on a
  /// node that is not usable (each producer holds its own field, so
  /// clearing one reason leaves a node another still holds drained);
  /// cpu_slowdown stretches batch execution on the node's replicas.
  cluster::NodeConditions& conditions() { return conditions_; }
  bool is_node_drained(cluster::NodeId node) const {
    return !conditions_[node].usable();
  }
  /// Post-heal admission ramp: for `window` after a node reconnects (its
  /// lease condition clears) the router treats its replicas as carrying
  /// extra virtual load (`kRampMaxPenalty` decaying linearly to zero),
  /// so a healed node re-absorbs traffic gradually. 0 (default) is off.
  void set_reconnect_ramp(util::TimeNs window) { reconnect_ramp_ = window; }

  void set_accel_pool(accel::AccelPool* pool);
  void set_tracer(trace::Tracer* tracer);
  /// Latency-aware autoscaling: the service feeds the signal arrivals,
  /// queue delays, and in-flight depth.
  void attach_signal(ScalingSignal* signal);
  void set_exec_observer(ExecObserver fn) { exec_observer_ = std::move(fn); }
  void set_completion_observer(CompletionFn fn) {
    completion_observer_ = std::move(fn);
  }
  /// Attaches a (non-owned, possibly cross-layer shared) retry budget:
  /// hedges then cost a token each and are suppressed while the budget
  /// is empty; completed requests deposit. Null (default) disables.
  void set_retry_budget(util::RetryBudget* budget) { retry_budget_ = budget; }

  // -- introspection ---------------------------------------------------
  int replica_count() const { return static_cast<int>(live_.size()); }
  /// Requests assigned to replicas and not yet retired (in the network,
  /// queued, or executing).
  int outstanding() const { return total_outstanding_; }
  int parked() const { return static_cast<int>(parked_.size()); }
  int replica_queue_depth(std::int64_t key) const;

  const std::vector<RequestClass>& classes() const { return classes_; }
  const std::map<std::string, TenantStats>& tenants() const {
    return tenants_;
  }
  const TenantStats& tenant(const std::string& name) const;

  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

  std::int64_t hedges_launched() const {
    return metrics_.counter("serve.hedges_launched");
  }
  std::int64_t hedges_suppressed() const {
    return metrics_.counter("serve.hedges_suppressed");
  }
  std::int64_t hedge_wins() const {
    return metrics_.counter("serve.hedge_wins");
  }
  std::int64_t hedges_cancelled() const {
    return metrics_.counter("serve.hedges_cancelled");
  }
  std::int64_t wasted_exec() const {
    return metrics_.counter("serve.wasted_exec");
  }
  std::int64_t rerouted() const { return metrics_.counter("serve.rerouted"); }

 private:
  /// Assigned: routed and not yet retired (in the network, queued,
  /// executing, or on its response leg). Parked: waiting for any
  /// replica to exist.
  enum class CopyState : std::uint8_t { kUnassigned, kParked, kAssigned };
  struct Copy {
    /// Key of the replica whose slot the copy holds; -1 when it holds
    /// none (not assigned, or executed and on its response leg).
    std::int64_t replica = -1;
    trace::SpanId span = trace::kNoSpan;
    CopyState state = CopyState::kUnassigned;
  };
  struct InFlight {
    Request req;
    bool done = false;  // first finisher seen (or request shed)
    Copy copies[2];     // [0] primary, [1] hedge
    trace::SpanId root = trace::kNoSpan;
    sim::EventId hedge_event = 0;
    bool hedge_armed = false;
  };

  void on_replica_event(orch::PodId pod, cluster::NodeId node, bool up);
  void on_condition(cluster::NodeId node, const cluster::NodeCondition& before,
                    const cluster::NodeCondition& after);
  ReplicaServer* replica(std::int64_t key);
  /// The record of a request in flight. It outlives every assigned or
  /// parked copy and an armed hedge timer, so each event finds it.
  InFlight& record(RequestId id) {
    InFlight* const* rec = inflight_.find(id);
    assert(rec != nullptr);
    return **rec;
  }
  TenantStats& tenant_of(const InFlight& rec) {
    return *class_tenants_[static_cast<std::size_t>(rec.req.cls)];
  }
  const RequestClass& class_of(const InFlight& rec) const {
    return classes_[static_cast<std::size_t>(rec.req.cls)];
  }

  /// Routes one copy; parks it when no replica exists (a hedge only
  /// once its primary is gone). Returns false only when the copy could
  /// be neither routed nor parked (no distinct replica for a hedge).
  bool route_copy(InFlight& rec, int which, std::int64_t exclude_key);
  void deliver_to_replica(RequestId id, int which, std::int64_t key);
  void on_dequeue(util::TimeNs sojourn);
  void on_batch_done(std::int64_t key, const std::vector<CopyRef>& copies,
                     int cls, util::TimeNs exec);
  void finalize(RequestId id, int which);
  void arm_hedge(InFlight& rec);
  void launch_hedge(InFlight& rec);
  /// Whole-request shed: accounts, closes spans, erases the record.
  void shed_request(InFlight& rec, Outcome outcome);
  /// Ends a copy's assignment: releases the slot it holds, marks it
  /// unassigned and ends a hedge's serve.hedge span. The caller then
  /// counts, re-routes or calls maybe_erase.
  void retire(InFlight& rec, int which);
  /// Gives back the replica slot the copy holds, if any.
  void release_slot(Copy& copy);
  /// The first index in live_ whose key is not below `key`.
  std::size_t live_position(std::int64_t key) const;
  /// The replica's index in live_, or live_.size() when it is not open.
  std::size_t live_index(std::int64_t key) const;
  int ramp_penalty(cluster::NodeId node);
  void note_inflight();
  void maybe_erase(InFlight& rec);
  void drain_parked();
  void sweep_retired();

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  orch::DeploymentController& deploy_;
  std::vector<RequestClass> classes_;
  ServiceConfig config_;
  Router router_;
  AdmissionController admission_;

  /// The replica table: one view per open replica in key order, and its
  /// node and server at the same index. Replica events insert and erase
  /// entries; assign and release update `outstanding` in place;
  /// `available` is refreshed from conditions_ per route.
  std::vector<ReplicaView> live_;
  std::vector<cluster::NodeId> live_nodes_;
  std::vector<std::unique_ptr<ReplicaServer>> live_servers_;
  /// Closed replicas still draining an executing batch (events capture
  /// their `this`); swept once idle.
  std::vector<std::unique_ptr<ReplicaServer>> retired_;
  cluster::NodeConditions conditions_;
  util::TimeNs reconnect_ramp_ = 0;
  struct Ramp {
    util::TimeNs start = 0;
    util::TimeNs end = 0;
  };
  /// Active post-heal admission ramps; entries expire lazily.
  std::map<cluster::NodeId, Ramp> ramp_;
  // route_copy scratch while a ramp is active: live_ plus the penalties.
  std::vector<ReplicaView> route_view_;

  // In-flight records live on a slab (stable addresses, recycled cells)
  // and are indexed by a flat id map, so a request costs no malloc/free.
  // The index is probed by id and iterated only by the destructor, so
  // ordering stays deterministic.
  util::Slab<InFlight> inflight_slab_;
  util::FlatIdMap<InFlight*> inflight_;
  util::RingQueue<CopyRef> parked_;

  std::map<std::string, TenantStats> tenants_;
  /// Each class's tenant entry, resolved once (map nodes do not move).
  std::vector<TenantStats*> class_tenants_;
  metrics::Registry metrics_;
  int total_outstanding_ = 0;

  accel::AccelPool* pool_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  ScalingSignal* signal_ = nullptr;
  ExecObserver exec_observer_;
  CompletionFn completion_observer_;
  util::RetryBudget* retry_budget_ = nullptr;  // non-owned, optional
};

}  // namespace evolve::serve
