// Glue between the FaultInjector and the platform layers.
//
// Each connect() subscribes one subsystem to failure/recovery events so
// a single node crash propagates coherently: the orchestrator evicts
// pods (and restarts batch gangs), the dataflow engine re-executes lost
// tasks, and the object store re-replicates. The layers stay decoupled —
// none of them includes fault_injector.hpp.
#pragma once

#include "cluster/cluster.hpp"
#include "fault/fault_injector.hpp"
#include "fault/gray.hpp"
#include "fault/health.hpp"

namespace evolve::orch {
class Orchestrator;
class LeaseManager;
}
namespace evolve::dataflow {
class DataflowEngine;
}
namespace evolve::storage {
class ObjectStore;
}
namespace evolve::net {
class Fabric;
}
namespace evolve::accel {
class AccelPool;
}
namespace evolve::serve {
class Service;
}
namespace evolve::tablet {
class TabletService;
}

namespace evolve::fault {

/// Orchestrator: fail_node()/recover_node() for nodes it manages.
void connect(FaultInjector& injector, orch::Orchestrator& orch);

/// Dataflow engine: kill running copies, drop shuffle outputs, park
/// executor slots until recovery.
void connect(FaultInjector& injector, dataflow::DataflowEngine& engine);

/// Object store: drop dead replicas, repair, rejoin empty on recovery.
void connect(FaultInjector& injector, storage::ObjectStore& store);

// -- Leases / partitions ------------------------------------------------

/// Lease manager: a crashed node's lease pauses (the crash path owns its
/// pods) and resumes fresh on recovery — so a node that is *down* is
/// never double-counted as *unreachable*.
void connect(FaultInjector& injector, orch::LeaseManager& leases);

/// Object store fencing: a lease expiry fences the node at its new
/// epoch, so writes the isolated (but still live) node issues under the
/// old epoch are rejected — the zombie-writer defense.
void connect(orch::LeaseManager& leases, storage::ObjectStore& store);

/// Serving: lease expiry drains the node's replicas; reconnect undrains
/// them and (when `ramp_window` > 0) ramps traffic back gradually
/// instead of stampeding the healed node. This drain is kept apart from
/// the quarantine drain: a reconnect leaves a quarantined node drained.
void connect(orch::LeaseManager& leases, serve::Service& service,
             util::TimeNs ramp_window = 0);

/// Health scoring: crashed nodes drop out of peer medians while down.
void connect(FaultInjector& injector, HealthScorer& scorer);

/// Health scoring: lease-expired (unreachable) nodes drop out of peer
/// medians until they reconnect.
void connect(orch::LeaseManager& leases, HealthScorer& scorer);

// -- Gray failures ----------------------------------------------------

/// Dataflow engine: CPU slowdown factors stretch task service times.
void connect(GrayInjector& gray, dataflow::DataflowEngine& engine);

/// Accelerator pool: devices on a slowed node pace down.
void connect(GrayInjector& gray, accel::AccelPool& pool);

/// Fabric: NIC degradation scales the node's host up/down link capacity
/// (bandwidth loss and packet-loss goodput penalty folded together) and
/// adds one-way latency to new transfers through the node.
void connect(GrayInjector& gray, net::Fabric& fabric);

/// Object store: bit-rot events corrupt seeded random stored replicas.
void connect(GrayInjector& gray, storage::ObjectStore& store);

/// Quarantine time-to-detect accounting: degradation starts are noted so
/// the controller can report time-to-quarantine.
void connect(GrayInjector& gray, QuarantineController& controller);

/// Health scoring: every task completion on a node (winners and losers)
/// feeds the scorer's per-node EWMA.
void connect(dataflow::DataflowEngine& engine, HealthScorer& scorer);

/// Orchestrator quarantine: flagged nodes stop receiving pods, drain,
/// and rejoin when probed back in.
void connect(QuarantineController& controller, orch::Orchestrator& orch);

/// Dataflow quarantine: flagged nodes stop receiving tasks; their
/// running copies get health-driven speculative backups elsewhere.
void connect(QuarantineController& controller,
             dataflow::DataflowEngine& engine);

// -- Request serving ---------------------------------------------------

/// Service: gray CPU slowdowns stretch batch execution on replicas of
/// the affected node.
void connect(GrayInjector& gray, serve::Service& service);

/// Serving quarantine: the router drains flagged nodes (skips their
/// replicas) and puts them back when the probe clears them.
void connect(QuarantineController& controller, serve::Service& service);

/// Health scoring: every batch execution on a replica feeds the
/// per-node EWMA, so serving load alone can surface a gray node.
void connect(serve::Service& service, HealthScorer& scorer);

// -- Tablets (stateful serving) ----------------------------------------

/// Tablets: lease expiry sheds the node's tablets (recovery re-open on
/// survivors) without telling the node — its in-flight epoch-stamped
/// WAL/flush PUTs become zombie writes. Wire connect(leases, store)
/// FIRST so the store's fence is raised before the tablet layer reacts.
/// Reconnect hands the node its new epoch and lets it host again.
void connect(orch::LeaseManager& leases, tablet::TabletService& tablets);

/// Tablets: gray CPU slowdowns stretch tablet op execution on the node.
void connect(GrayInjector& gray, tablet::TabletService& tablets);

/// Tablets: quarantined nodes drain — their tablets move off gracefully
/// and the balancer stops targeting them until the probe clears them.
void connect(QuarantineController& controller,
             tablet::TabletService& tablets);

}  // namespace evolve::fault
