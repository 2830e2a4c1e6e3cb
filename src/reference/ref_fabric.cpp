#include "reference/ref_fabric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace evolve::reference {

namespace {
constexpr double kDrainEpsilon = 1e-6;  // bytes
}

RefFabric::RefFabric(sim::Simulation& sim, const net::Topology& topology)
    : sim_(sim), topology_(topology), last_settle_(sim.now()) {}

net::FlowId RefFabric::transfer(cluster::NodeId src, cluster::NodeId dst,
                                util::Bytes bytes,
                                net::FlowCallback on_complete) {
  if (bytes < 0) throw std::invalid_argument("transfer: negative bytes");
  const net::FlowId id = next_id_++;
  ++stats_.flows_started;
  ++stats_.flows_in_flight;
  Flow flow;
  flow.src = src;
  flow.dst = dst;
  flow.path = topology_.path(src, dst);
  flow.remaining = static_cast<double>(bytes);
  flow.bytes = bytes;
  flow.latency = topology_.latency(src, dst);
  flow.on_complete = std::move(on_complete);
  if (!mask_.reachable(src, dst)) {
    ++stats_.flows_parked;
    parked_.emplace(id, std::move(flow));
    return id;
  }
  if (bytes == 0) {
    const util::TimeNs latency = flow.latency;
    latency_only_[id] = sim_.after(
        latency, [this, id, cb = std::move(flow.on_complete)]() mutable {
          latency_only_.erase(id);
          ++stats_.flows_completed;
          --stats_.flows_in_flight;
          cb();
        });
    return id;
  }
  settle_progress();
  flows_.emplace(id, std::move(flow));
  recompute();
  return id;
}

bool RefFabric::cancel(net::FlowId id) {
  if (parked_.erase(id) != 0) {
    ++stats_.flows_cancelled;
    --stats_.flows_in_flight;
    return true;
  }
  if (auto lit = latency_only_.find(id); lit != latency_only_.end()) {
    sim_.cancel(lit->second);
    latency_only_.erase(lit);
    ++stats_.flows_cancelled;
    --stats_.flows_in_flight;
    return true;
  }
  auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  settle_progress();
  flows_.erase(it);
  ++stats_.flows_cancelled;
  --stats_.flows_in_flight;
  recompute();
  return true;
}

double RefFabric::flow_rate(net::FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.rate;
}

void RefFabric::settle_progress() {
  const util::TimeNs now = sim_.now();
  if (now == last_settle_) return;
  const double dt = util::to_seconds(now - last_settle_);
  last_settle_ = now;
  for (auto& [id, flow] : flows_) {
    flow.remaining = std::max(0.0, flow.remaining - flow.rate * dt);
  }
}

void RefFabric::solve_max_min() {
  ++stats_.rate_recomputations;
  const int link_count = topology_.link_count();
  std::vector<double> capacity(static_cast<std::size_t>(link_count));
  std::vector<int> unfixed(static_cast<std::size_t>(link_count), 0);
  for (int l = 0; l < link_count; ++l) {
    capacity[static_cast<std::size_t>(l)] =
        topology_.link(l).capacity_bytes_per_s;
  }

  std::vector<Flow*> pending;
  pending.reserve(flows_.size());
  for (auto& [id, flow] : flows_) {
    if (flow.path.empty()) {
      flow.rate = net::kLoopbackBytesPerS;
      continue;
    }
    flow.rate = -1.0;  // unfixed marker
    pending.push_back(&flow);
    for (net::LinkId l : flow.path) ++unfixed[static_cast<std::size_t>(l)];
  }

  std::size_t remaining = pending.size();
  while (remaining > 0) {
    double best_share = std::numeric_limits<double>::infinity();
    for (int l = 0; l < link_count; ++l) {
      const auto idx = static_cast<std::size_t>(l);
      if (unfixed[idx] == 0) continue;
      const double share = std::max(0.0, capacity[idx]) / unfixed[idx];
      best_share = std::min(best_share, share);
    }
    if (!std::isfinite(best_share)) {
      throw std::logic_error("max-min: unfixed flows but no loaded link");
    }
    bool fixed_any = false;
    for (Flow* flow : pending) {
      if (flow->rate >= 0) continue;
      bool at_bottleneck = false;
      for (net::LinkId l : flow->path) {
        const auto idx = static_cast<std::size_t>(l);
        const double share = std::max(0.0, capacity[idx]) / unfixed[idx];
        if (share <= best_share * (1 + 1e-12)) {
          at_bottleneck = true;
          break;
        }
      }
      if (!at_bottleneck) continue;
      flow->rate = best_share;
      fixed_any = true;
      --remaining;
      for (net::LinkId l : flow->path) {
        const auto idx = static_cast<std::size_t>(l);
        capacity[idx] -= best_share;
        --unfixed[idx];
      }
    }
    if (!fixed_any) {
      throw std::logic_error("max-min: made no progress");
    }
  }
}

void RefFabric::recompute() {
  if (has_pending_event_) {
    sim_.cancel(pending_event_);
    has_pending_event_ = false;
  }
  if (flows_.empty()) return;
  solve_max_min();
  double earliest_s = std::numeric_limits<double>::infinity();
  for (const auto& [id, flow] : flows_) {
    if (flow.rate <= 0) {
      throw std::logic_error("flow with zero rate would never complete");
    }
    earliest_s = std::min(earliest_s, flow.remaining / flow.rate);
  }
  const auto delay = static_cast<util::TimeNs>(std::ceil(earliest_s * 1e9));
  pending_event_ = sim_.after(std::max<util::TimeNs>(delay, 0),
                              [this] { on_completion_event(); });
  has_pending_event_ = true;
}

void RefFabric::on_completion_event() {
  has_pending_event_ = false;
  settle_progress();
  std::vector<Flow> done;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (it->second.remaining <= kDrainEpsilon) {
      done.push_back(std::move(it->second));
      it = flows_.erase(it);
      ++stats_.flows_completed;
      --stats_.flows_in_flight;
    } else {
      ++it;
    }
  }
  recompute();
  for (Flow& flow : done) {
    deliver(flow.bytes, !flow.path.empty(), flow.latency,
            std::move(flow.on_complete));
  }
}

void RefFabric::set_reachability(std::vector<int> host_group,
                                 std::vector<std::vector<char>> blocked) {
  mask_ = net::Reachability(topology_.host_count(), std::move(host_group),
                            std::move(blocked));
  apply_reachability();
}

void RefFabric::clear_partitions() {
  if (!mask_.partitioned() && parked_.empty()) return;
  mask_ = net::Reachability();
  apply_reachability();
}

void RefFabric::apply_reachability() {
  // Settle at the pre-change rates first: parked flows keep exactly the
  // bytes they had drained up to this instant.
  settle_progress();
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (mask_.reachable(it->second.src, it->second.dst)) {
      ++it;
      continue;
    }
    ++stats_.flows_parked;
    parked_.insert(flows_.extract(it++));
  }
  for (auto it = parked_.begin(); it != parked_.end();) {
    Flow& flow = it->second;
    if (!mask_.reachable(flow.src, flow.dst)) {
      ++it;
      continue;
    }
    ++stats_.flows_resumed;
    if (flow.remaining > kDrainEpsilon) {
      flows_.insert(parked_.extract(it++));
      continue;
    }
    // Everything had drained before the park (or the transfer was
    // zero-byte): only the propagation latency is still owed.
    ++stats_.flows_completed;
    --stats_.flows_in_flight;
    deliver(flow.bytes, flow.src != flow.dst, flow.latency,
            std::move(flow.on_complete));
    it = parked_.erase(it);
  }
  recompute();
}

void RefFabric::deliver(util::Bytes bytes, bool remote, util::TimeNs latency,
                        net::FlowCallback cb) {
  stats_.bytes_delivered += bytes;
  if (remote) stats_.bytes_remote += bytes;
  sim_.after(latency, std::move(cb));
}

}  // namespace evolve::reference
