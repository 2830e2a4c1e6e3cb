#include "fault/wiring.hpp"

#include "dataflow/engine.hpp"
#include "net/fabric.hpp"
#include "orch/lease.hpp"
#include "serve/service.hpp"
#include "storage/object_store.hpp"

namespace evolve::fault {

void connect(orch::LeaseManager& leases, serve::Service& service,
             util::TimeNs ramp_window) {
  service.set_reconnect_ramp(ramp_window);
  leases.attach(service.conditions());
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
  controller.track_degradation(gray);
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

void connect(serve::Service& service, HealthScorer& scorer) {
  service.set_exec_observer(
      [&scorer](cluster::NodeId node, util::TimeNs exec) {
        scorer.record(node, exec);
      });
}

}  // namespace evolve::fault
