// Gray-failure injection: degradation instead of death.
//
// Where the FaultInjector models crash-stop (a node is down or up), the
// GrayInjector models the partial failures that dominate real converged
// clusters: nodes that run slow (CPU and/or accelerator), NICs that lose
// bandwidth, add latency, or drop packets, and storage that silently
// returns wrong bytes. Like the FaultInjector it knows nothing about the
// layers above: slowdowns are written into every attached
// cluster::NodeConditions table, and NIC and bit-rot subscribers (see
// fault/wiring.hpp) turn those events into fabric link capacity factors
// or object-store corruption. Every degradation interval emits a
// `fault.degrade` trace span so critical-path attribution can show where
// mitigation paid off.
//
// Overlapping degradations on one node coalesce the same way overlapping
// outages do: the strongest (max) factor wins while interval spans
// overlap, and the clear fires only when the last interval ends.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/conditions.hpp"
#include "metrics/registry.hpp"
#include "sim/simulation.hpp"
#include "trace/tracer.hpp"
#include "util/types.hpp"

namespace evolve::fault {

/// One NIC's degradation. `bandwidth_factor` scales nominal link
/// capacity; `loss` models retransmission goodput loss (effective
/// capacity = nominal * bandwidth_factor * (1 - loss)); `extra_latency`
/// is added one-way to new transfers crossing the NIC.
struct NicDegradation {
  double bandwidth_factor = 1.0;  // (0, 1]: fraction of nominal bandwidth
  double loss = 0.0;              // [0, 1): packet-loss goodput penalty
  util::TimeNs extra_latency = 0;

  double capacity_factor() const { return bandwidth_factor * (1.0 - loss); }
};

class GrayInjector {
 public:
  /// node, degradation ({} = healthy).
  using NicFn = std::function<void(cluster::NodeId, const NicDegradation&)>;
  /// Seeded bit-rot event: corrupt `replicas` stored replicas.
  using BitrotFn = std::function<void(std::uint64_t seed, int replicas)>;

  explicit GrayInjector(sim::Simulation& sim) : sim_(sim) {}
  GrayInjector(const GrayInjector&) = delete;
  GrayInjector& operator=(const GrayInjector&) = delete;

  /// Attaches a consumer's table: every slowdown start, overlap and
  /// clear writes the node's factors (>= 1, 1 = healthy), changed or not.
  void attach(cluster::NodeConditions& table) { tables_.attach(table); }
  void on_nic(NicFn fn) { nic_subs_.push_back(std::move(fn)); }
  void on_bitrot(BitrotFn fn) { bitrot_subs_.push_back(std::move(fn)); }

  /// Node runs `cpu_factor`x slower (its accelerators `accel_factor`x)
  /// from `at` until `at + duration`, then returns to healthy. Factors
  /// must be >= 1.
  void schedule_slow_node(cluster::NodeId node, double cpu_factor,
                          double accel_factor, util::TimeNs at,
                          util::TimeNs duration);

  /// Node's NIC degrades from `at` until `at + duration`.
  void schedule_nic_degradation(cluster::NodeId node, NicDegradation nic,
                                util::TimeNs at, util::TimeNs duration);

  /// At `at`, corrupt `replicas` randomly chosen stored replicas
  /// (seeded; the subscriber owns replica selection).
  void schedule_bitrot(util::TimeNs at, std::uint64_t seed, int replicas);

  bool is_slowed(cluster::NodeId node) const {
    return slow_until_.count(node) != 0;
  }
  bool is_nic_degraded(cluster::NodeId node) const {
    return nic_until_.count(node) != 0;
  }

  std::int64_t degradations_injected() const {
    return metrics_.counter("slow_node_degradations") +
           metrics_.counter("nic_degradations");
  }
  std::int64_t bitrot_events() const {
    return metrics_.counter("bitrot_events");
  }

  /// When the node degraded (slow or NIC), or -1 when healthy. The
  /// quarantine controller uses this for time-to-quarantine accounting.
  util::TimeNs degraded_since(cluster::NodeId node) const;

  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

 private:
  struct Active {
    util::TimeNs until = 0;
    util::TimeNs since = 0;
    double cpu = 1.0;    // slowdown use
    double accel = 1.0;  // slowdown use
    NicDegradation nic;  // NIC use
    trace::SpanId span = trace::kNoSpan;
  };

  void apply_slowdown(cluster::NodeId node, double cpu, double accel,
                      util::TimeNs until);
  void clear_slowdown(cluster::NodeId node, util::TimeNs end);
  void apply_nic(cluster::NodeId node, const NicDegradation& nic,
                 util::TimeNs until);
  void clear_nic(cluster::NodeId node, util::TimeNs end);

  sim::Simulation& sim_;
  cluster::ConditionTables tables_;
  std::vector<NicFn> nic_subs_;
  std::vector<BitrotFn> bitrot_subs_;
  std::map<cluster::NodeId, Active> slow_until_;
  std::map<cluster::NodeId, Active> nic_until_;
  trace::Tracer* tracer_ = nullptr;
  metrics::Registry metrics_;
};

}  // namespace evolve::fault
