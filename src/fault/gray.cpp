#include "fault/gray.hpp"

#include <algorithm>
#include <stdexcept>

namespace evolve::fault {

void GrayInjector::schedule_slow_node(cluster::NodeId node, double cpu_factor,
                                      double accel_factor, util::TimeNs at,
                                      util::TimeNs duration) {
  if (cpu_factor < 1.0 || accel_factor < 1.0) {
    throw std::invalid_argument("slowdown factors must be >= 1");
  }
  if (duration <= 0) throw std::invalid_argument("slowdown needs duration > 0");
  const util::TimeNs end = at + duration;
  sim_.at(at, [this, node, cpu_factor, accel_factor, end] {
    apply_slowdown(node, cpu_factor, accel_factor, end);
  });
  sim_.at(end, [this, node, end] { clear_slowdown(node, end); });
}

void GrayInjector::apply_slowdown(cluster::NodeId node, double cpu,
                                  double accel, util::TimeNs until) {
  Active& a = slow_until_[node];
  const bool fresh = a.until == 0;
  if (fresh) {
    a.since = sim_.now();
    metrics_.count("slow_node_degradations");
    if (tracer_) {
      a.span = tracer_->begin(trace::Layer::kDataflow, "fault.degrade",
                              trace::kNoSpan);
      tracer_->annotate(a.span, "kind", "slow_node");
      tracer_->annotate(a.span, "node", std::to_string(node));
      tracer_->annotate(a.span, "cpu_factor", std::to_string(cpu));
    }
  }
  // Overlapping slowdowns: the strongest factor wins, the longest holds.
  a.cpu = std::max(a.cpu, cpu);
  a.accel = std::max(a.accel, accel);
  a.until = std::max(a.until, until);
  metrics_.set_gauge("slowed_nodes", static_cast<double>(slow_until_.size()));
  tables_.set_slowdown(node, a.cpu, a.accel);
}

void GrayInjector::clear_slowdown(cluster::NodeId node, util::TimeNs end) {
  const auto it = slow_until_.find(node);
  if (it == slow_until_.end() || it->second.until > end) return;
  if (tracer_) tracer_->end(it->second.span);
  slow_until_.erase(it);
  metrics_.set_gauge("slowed_nodes", static_cast<double>(slow_until_.size()));
  tables_.set_slowdown(node, 1.0, 1.0);
}

void GrayInjector::schedule_nic_degradation(cluster::NodeId node,
                                            NicDegradation nic, util::TimeNs at,
                                            util::TimeNs duration) {
  if (!(nic.bandwidth_factor > 0.0) || nic.bandwidth_factor > 1.0) {
    throw std::invalid_argument("bandwidth factor must be in (0, 1]");
  }
  if (nic.loss < 0.0 || nic.loss >= 1.0) {
    throw std::invalid_argument("loss must be in [0, 1)");
  }
  if (nic.extra_latency < 0) {
    throw std::invalid_argument("extra latency must be >= 0");
  }
  if (duration <= 0) throw std::invalid_argument("nic needs duration > 0");
  const util::TimeNs end = at + duration;
  sim_.at(at, [this, node, nic, end] { apply_nic(node, nic, end); });
  sim_.at(end, [this, node, end] { clear_nic(node, end); });
}

void GrayInjector::apply_nic(cluster::NodeId node, const NicDegradation& nic,
                             util::TimeNs until) {
  Active& a = nic_until_[node];
  const bool fresh = a.until == 0;
  if (fresh) {
    a.since = sim_.now();
    a.nic = nic;
    metrics_.count("nic_degradations");
    if (tracer_) {
      a.span = tracer_->begin(trace::Layer::kNetwork, "fault.degrade",
                              trace::kNoSpan);
      tracer_->annotate(a.span, "kind", "nic");
      tracer_->annotate(a.span, "node", std::to_string(node));
      tracer_->annotate(a.span, "loss", std::to_string(nic.loss));
    }
  } else {
    // Strongest degradation wins across overlapping intervals.
    a.nic.bandwidth_factor = std::min(a.nic.bandwidth_factor,
                                      nic.bandwidth_factor);
    a.nic.loss = std::max(a.nic.loss, nic.loss);
    a.nic.extra_latency = std::max(a.nic.extra_latency, nic.extra_latency);
  }
  a.until = std::max(a.until, until);
  metrics_.set_gauge("nic_degraded_nodes",
                     static_cast<double>(nic_until_.size()));
  for (const NicFn& fn : nic_subs_) fn(node, a.nic);
}

void GrayInjector::clear_nic(cluster::NodeId node, util::TimeNs end) {
  const auto it = nic_until_.find(node);
  if (it == nic_until_.end() || it->second.until > end) return;
  if (tracer_) tracer_->end(it->second.span);
  nic_until_.erase(it);
  metrics_.set_gauge("nic_degraded_nodes",
                     static_cast<double>(nic_until_.size()));
  const NicDegradation healthy;
  for (const NicFn& fn : nic_subs_) fn(node, healthy);
}

void GrayInjector::schedule_bitrot(util::TimeNs at, std::uint64_t seed,
                                   int replicas) {
  if (replicas <= 0) throw std::invalid_argument("bitrot needs replicas > 0");
  sim_.at(at, [this, seed, replicas] {
    metrics_.count("bitrot_events");
    metrics_.count("bitrot_replicas", replicas);
    if (tracer_) {
      const trace::SpanId span = tracer_->begin(
          trace::Layer::kStorage, "fault.degrade", trace::kNoSpan);
      tracer_->annotate(span, "kind", "bitrot");
      tracer_->annotate(span, "replicas", std::to_string(replicas));
      tracer_->end(span);
    }
    for (const BitrotFn& fn : bitrot_subs_) fn(seed, replicas);
  });
}

util::TimeNs GrayInjector::degraded_since(cluster::NodeId node) const {
  util::TimeNs since = -1;
  const auto slow = slow_until_.find(node);
  if (slow != slow_until_.end()) since = slow->second.since;
  const auto nic = nic_until_.find(node);
  if (nic != nic_until_.end()) {
    since = since < 0 ? nic->second.since : std::min(since, nic->second.since);
  }
  return since;
}

}  // namespace evolve::fault
