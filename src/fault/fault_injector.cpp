#include "fault/fault_injector.hpp"

#include <stdexcept>

namespace evolve::fault {

void FaultInjector::schedule_failure(cluster::NodeId node, util::TimeNs at) {
  sim_.at(at, [this, node] { kill(node); });
}

void FaultInjector::schedule_recovery(cluster::NodeId node, util::TimeNs at) {
  sim_.at(at, [this, node] { restore(node); });
}

void FaultInjector::schedule_outage(cluster::NodeId node, util::TimeNs at,
                                    util::TimeNs downtime) {
  if (downtime <= 0) throw std::invalid_argument("outage needs downtime > 0");
  const util::TimeNs end = at + downtime;
  schedule_failure(node, at);
  sim_.at(end, [this, node, end] {
    const auto it = outage_hold_until_.find(node);
    // A longer overlapping outage still holds the node down; its own
    // recovery event will run this check again at the later end time.
    if (it != outage_hold_until_.end() && it->second > end) return;
    outage_hold_until_.erase(node);
    restore(node);
  });
  util::TimeNs& hold = outage_hold_until_[node];
  if (end > hold) hold = end;
}

void FaultInjector::schedule_rack_outage(const cluster::Cluster& cluster,
                                         int rack, util::TimeNs at,
                                         util::TimeNs downtime) {
  if (rack < 0 || rack >= cluster.rack_count()) {
    throw std::invalid_argument("rack outage: no such rack");
  }
  bool any = false;
  for (cluster::NodeId node = 0; node < cluster.size(); ++node) {
    if (cluster.node(node).rack != rack) continue;
    schedule_outage(node, at, downtime);
    any = true;
  }
  if (!any) throw std::invalid_argument("rack outage: rack has no hosts");
  metrics_.count("rack_outages");
}

void FaultInjector::random_process(const std::vector<cluster::NodeId>& nodes,
                                   double mtbf_s, double mttr_s,
                                   util::TimeNs until) {
  if (mtbf_s <= 0 || mttr_s <= 0) {
    throw std::invalid_argument("MTBF and MTTR must be > 0");
  }
  for (cluster::NodeId node : nodes) {
    processes_.push_back(Process{node, mtbf_s, mttr_s, until, rng_.fork()});
    arm_failure(processes_.size() - 1);
  }
}

void FaultInjector::arm_failure(std::size_t process) {
  Process& p = processes_[process];
  const auto ttf =
      static_cast<util::TimeNs>(p.rng.exponential(1.0 / p.mtbf_s) * 1e9);
  const util::TimeNs when = sim_.now() + ttf;
  if (when > p.until) return;  // process expires: no more failures initiated
  sim_.at(when, [this, process] {
    const cluster::NodeId node = processes_[process].node;
    if (!is_down(node)) {
      kill(node);
      arm_recovery(process);
    } else {
      // Someone else downed the node; try again after it comes back.
      arm_failure(process);
    }
  });
}

void FaultInjector::arm_recovery(std::size_t process) {
  Process& p = processes_[process];
  const auto ttr =
      static_cast<util::TimeNs>(p.rng.exponential(1.0 / p.mttr_s) * 1e9);
  sim_.after(ttr, [this, process] {
    const cluster::NodeId node = processes_[process].node;
    if (is_down(node)) restore(node);
    arm_failure(process);
  });
}

void FaultInjector::kill(cluster::NodeId node) {
  if (!down_.insert(node).second) return;
  down_since_[node] = sim_.now();
  metrics_.count("node_failures");
  metrics_.set_gauge("nodes_down", static_cast<double>(down_.size()));
  tables_.set_down(node, true);
}

void FaultInjector::restore(cluster::NodeId node) {
  if (down_.erase(node) == 0) return;
  const auto it = down_since_.find(node);
  downtime_ns_ += sim_.now() - it->second;
  metrics_.observe("downtime_ms", (sim_.now() - it->second) / util::kMillisecond);
  down_since_.erase(it);
  metrics_.count("node_recoveries");
  metrics_.set_gauge("nodes_down", static_cast<double>(down_.size()));
  tables_.set_down(node, false);
}

void FaultInjector::restore_all() {
  while (!down_.empty()) restore(*down_.begin());
}

double FaultInjector::downtime_node_seconds() const {
  util::TimeNs open = 0;
  for (const auto& [node, since] : down_since_) open += sim_.now() - since;
  return util::to_seconds(downtime_ns_ + open);
}

}  // namespace evolve::fault
