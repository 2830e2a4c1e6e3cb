// Glue between the fault producers and the platform layers.
//
// A node's condition (down, unreachable with its epoch, quarantined, the
// gray slowdowns; cluster/conditions.hpp) reaches a layer by one rule:
// connect(producer, consumer) attaches the consumer's NodeConditions
// table to the producer, and the consumer reacts to each write in its
// own handler. So one crash propagates coherently: the orchestrator
// evicts pods (and restarts batch gangs), the dataflow engine
// re-executes lost tasks, and the object store re-replicates. A producer
// writes its tables in attach order, so the order of the connect() calls
// is the order the layers react in: connect(leases, store) goes before
// connect(leases, tablets), so the store's fence is raised before the
// tablet layer sheds. The layers stay decoupled — none of them includes a
// producer's header.
//
// The overloads below are the hooks that are not node conditions.
#pragma once

#include "cluster/cluster.hpp"
#include "fault/fault_injector.hpp"
#include "fault/gray.hpp"
#include "fault/health.hpp"

namespace evolve::orch {
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
namespace evolve::serve {
class Service;
}

namespace evolve::fault {

/// Producers: FaultInjector, orch::LeaseManager, QuarantineController,
/// GrayInjector. Consumers: the orchestrator, the dataflow engine, the
/// object store, serve::Service, tablet::TabletService, HealthScorer,
/// accel::AccelPool, and LeaseManager (a crash pauses its lease).
template <typename Producer, typename Consumer>
void connect(Producer& producer, Consumer& consumer) {
  producer.attach(consumer.conditions());
}

/// Serving: as connect(leases, service), and for `ramp_window` after a
/// node reconnects its replicas take traffic back gradually instead of
/// stampeding the healed node.
void connect(orch::LeaseManager& leases, serve::Service& service,
             util::TimeNs ramp_window);

/// Fabric: NIC degradation scales the node's host up/down link capacity
/// (bandwidth loss and packet-loss goodput penalty folded together) and
/// adds one-way latency to new transfers through the node.
void connect(GrayInjector& gray, net::Fabric& fabric);

/// Object store: bit-rot events corrupt seeded random stored replicas.
void connect(GrayInjector& gray, storage::ObjectStore& store);

/// Quarantine time-to-detect accounting: slowdown and NIC degradation
/// starts are noted so the controller can report time-to-quarantine.
void connect(GrayInjector& gray, QuarantineController& controller);

/// Health scoring: every task completion on a node (winners and losers)
/// feeds the scorer's per-node EWMA.
void connect(dataflow::DataflowEngine& engine, HealthScorer& scorer);

/// Health scoring: every batch execution on a replica feeds the
/// per-node EWMA, so serving load alone can surface a gray node.
void connect(serve::Service& service, HealthScorer& scorer);

}  // namespace evolve::fault
