#include "fault/wiring.hpp"

#include "accel/pool.hpp"
#include "dataflow/engine.hpp"
#include "net/fabric.hpp"
#include "orch/lease.hpp"
#include "orch/scheduler.hpp"
#include "serve/service.hpp"
#include "storage/object_store.hpp"
#include "tablet/service.hpp"

namespace evolve::fault {

void connect(FaultInjector& injector, orch::Orchestrator& orch) {
  injector.on_failure([&orch](cluster::NodeId node, util::TimeNs) {
    if (orch.manages(node)) orch.fail_node(node);
  });
  injector.on_recovery([&orch](cluster::NodeId node, util::TimeNs) {
    if (orch.manages(node)) orch.recover_node(node);
  });
}

void connect(FaultInjector& injector, dataflow::DataflowEngine& engine) {
  injector.on_failure([&engine](cluster::NodeId node, util::TimeNs) {
    engine.handle_node_failure(node);
  });
  injector.on_recovery([&engine](cluster::NodeId node, util::TimeNs) {
    engine.handle_node_recovery(node);
  });
}

void connect(FaultInjector& injector, storage::ObjectStore& store) {
  injector.on_failure([&store](cluster::NodeId node, util::TimeNs) {
    store.handle_node_failure(node);
  });
  injector.on_recovery([&store](cluster::NodeId node, util::TimeNs) {
    store.handle_node_recovery(node);
  });
}

void connect(FaultInjector& injector, orch::LeaseManager& leases) {
  injector.on_failure([&leases](cluster::NodeId node, util::TimeNs) {
    leases.pause(node);
  });
  injector.on_recovery([&leases](cluster::NodeId node, util::TimeNs) {
    leases.resume(node);
  });
}

void connect(orch::LeaseManager& leases, storage::ObjectStore& store) {
  leases.on_expire([&store](cluster::NodeId node, std::int64_t epoch,
                            util::TimeNs) { store.fence_node(node, epoch); });
}

void connect(orch::LeaseManager& leases, serve::Service& service,
             util::TimeNs ramp_window) {
  leases.on_expire([&service](cluster::NodeId node, std::int64_t,
                              util::TimeNs) {
    service.set_node_unreachable(node, true);
  });
  leases.on_reconnect([&service, ramp_window](cluster::NodeId node,
                                              std::int64_t, util::TimeNs) {
    service.set_node_unreachable(node, false);
    if (ramp_window > 0) service.ramp_node(node, ramp_window);
  });
}

void connect(FaultInjector& injector, HealthScorer& scorer) {
  injector.on_failure([&scorer](cluster::NodeId node, util::TimeNs) {
    scorer.set_node_down(node, true);
  });
  injector.on_recovery([&scorer](cluster::NodeId node, util::TimeNs) {
    scorer.set_node_down(node, false);
  });
}

void connect(orch::LeaseManager& leases, HealthScorer& scorer) {
  leases.on_expire([&scorer](cluster::NodeId node, std::int64_t,
                             util::TimeNs) {
    scorer.set_node_down(node, true);
  });
  leases.on_reconnect([&scorer](cluster::NodeId node, std::int64_t,
                                util::TimeNs) {
    scorer.set_node_down(node, false);
  });
}

void connect(GrayInjector& gray, dataflow::DataflowEngine& engine) {
  gray.on_slowdown(
      [&engine](cluster::NodeId node, double cpu, double /*accel*/) {
        engine.set_node_slowdown(node, cpu);
      });
}

void connect(GrayInjector& gray, accel::AccelPool& pool) {
  gray.on_slowdown(
      [&pool](cluster::NodeId node, double /*cpu*/, double accel) {
        pool.set_node_slowdown(node, accel);
      });
}

void connect(GrayInjector& gray, net::Fabric& fabric) {
  gray.on_nic([&fabric](cluster::NodeId node,
                        const NicDegradation& nic) {
    for (const net::LinkId link : fabric.topology().host_links(node)) {
      fabric.set_link_capacity_factor(link, nic.capacity_factor());
      fabric.set_link_extra_latency(link, nic.extra_latency);
    }
  });
}

void connect(GrayInjector& gray, storage::ObjectStore& store) {
  gray.on_bitrot([&store](std::uint64_t seed, int replicas) {
    store.corrupt_random_replicas(seed, replicas);
  });
}

void connect(GrayInjector& gray, QuarantineController& controller) {
  gray.on_slowdown([&gray, &controller](cluster::NodeId node, double cpu,
                                        double accel) {
    if (cpu > 1.0 || accel > 1.0) {
      controller.note_degradation_start(node, gray.degraded_since(node));
    }
  });
  gray.on_nic([&gray, &controller](cluster::NodeId node,
                                   const NicDegradation& nic) {
    if (nic.capacity_factor() < 1.0 || nic.extra_latency > 0) {
      controller.note_degradation_start(node, gray.degraded_since(node));
    }
  });
}

void connect(dataflow::DataflowEngine& engine, HealthScorer& scorer) {
  engine.set_task_observer(
      [&scorer](cluster::NodeId node, util::TimeNs service_time) {
        scorer.record(node, service_time);
      });
}

void connect(QuarantineController& controller, orch::Orchestrator& orch) {
  controller.on_change(
      [&orch](cluster::NodeId node, bool quarantined, util::TimeNs) {
        if (!orch.manages(node)) return;
        if (quarantined) {
          orch.quarantine(node);
        } else {
          orch.unquarantine(node);
        }
      });
}

void connect(QuarantineController& controller,
             dataflow::DataflowEngine& engine) {
  controller.on_change(
      [&engine](cluster::NodeId node, bool quarantined, util::TimeNs) {
        engine.set_node_quarantined(node, quarantined);
        // The slow node keeps its running copies (drain), but backups
        // race them on healthy nodes so stragglers stop gating stages.
        if (quarantined) engine.speculate_on_node(node);
      });
}

void connect(GrayInjector& gray, serve::Service& service) {
  gray.on_slowdown(
      [&service](cluster::NodeId node, double cpu, double /*accel*/) {
        service.set_node_slowdown(node, cpu);
      });
}

void connect(QuarantineController& controller, serve::Service& service) {
  controller.on_change(
      [&service](cluster::NodeId node, bool quarantined, util::TimeNs) {
        service.set_node_drained(node, quarantined);
      });
}

void connect(serve::Service& service, HealthScorer& scorer) {
  service.set_exec_observer(
      [&scorer](cluster::NodeId node, util::TimeNs exec) {
        scorer.record(node, exec);
      });
}

void connect(orch::LeaseManager& leases, tablet::TabletService& tablets) {
  leases.on_expire([&tablets](cluster::NodeId node, std::int64_t epoch,
                              util::TimeNs) {
    tablets.handle_lease_expired(node, epoch);
  });
  leases.on_reconnect([&tablets](cluster::NodeId node, std::int64_t epoch,
                                 util::TimeNs) {
    tablets.handle_node_reconnected(node, epoch);
  });
}

void connect(GrayInjector& gray, tablet::TabletService& tablets) {
  gray.on_slowdown(
      [&tablets](cluster::NodeId node, double cpu, double /*accel*/) {
        tablets.set_node_slowdown(node, cpu);
      });
}

void connect(QuarantineController& controller,
             tablet::TabletService& tablets) {
  controller.on_change(
      [&tablets](cluster::NodeId node, bool quarantined, util::TimeNs) {
        tablets.set_node_drained(node, quarantined);
      });
}

}  // namespace evolve::fault
