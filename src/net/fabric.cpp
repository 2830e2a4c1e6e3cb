#include "net/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace evolve::net {

namespace {
constexpr double kDrainEpsilon = 1e-6;  // bytes
}

Fabric::Fabric(sim::Simulation& sim, const Topology& topology)
    : sim_(sim), topology_(topology), last_settle_(sim.now()) {
  cap_scratch_.assign(static_cast<std::size_t>(topology_.link_count()), 0.0);
  unfixed_scratch_.assign(static_cast<std::size_t>(topology_.link_count()), 0);
  link_capacity_factor_.assign(static_cast<std::size_t>(topology_.link_count()),
                               1.0);
  link_extra_latency_.assign(static_cast<std::size_t>(topology_.link_count()),
                             0);
}

void Fabric::set_link_capacity_factor(LinkId link, double factor) {
  if (!(factor > 0.0)) {
    throw std::invalid_argument("link capacity factor must be > 0");
  }
  // Settle progress at the old rates before the capacity change, then
  // trigger a re-solve so in-flight flows pick up the new rates.
  settle_progress();
  link_capacity_factor_[static_cast<std::size_t>(link)] = factor;
  mark_dirty();
}

void Fabric::set_link_extra_latency(LinkId link, util::TimeNs extra) {
  if (extra < 0) throw std::invalid_argument("extra latency must be >= 0");
  link_extra_latency_[static_cast<std::size_t>(link)] = extra;
  any_extra_latency_ = false;
  for (const util::TimeNs e : link_extra_latency_) {
    if (e > 0) any_extra_latency_ = true;
  }
}

FlowId Fabric::transfer(cluster::NodeId src, cluster::NodeId dst,
                        util::Bytes bytes, FlowCallback on_complete) {
  if (bytes < 0) throw std::invalid_argument("transfer: negative bytes");
  util::TimeNs latency = topology_.latency(src, dst);
  if (any_extra_latency_) {
    for (const LinkId l : topology_.path(src, dst)) {
      latency += link_extra_latency_[static_cast<std::size_t>(l)];
    }
  }
  const FlowId id = next_id_++;
  ++stats_.flows_started;
  ++stats_.flows_in_flight;
  if (tracer_) {
    // Span covers the whole flow lifetime including propagation latency;
    // it ends inside the wrapped completion callback or on cancel.
    const trace::SpanId span =
        tracer_->begin(trace::Layer::kNetwork, "net.transfer");
    tracer_->annotate(span, "bytes", std::to_string(bytes));
    tracer_->annotate(span, "src", std::to_string(src));
    tracer_->annotate(span, "dst", std::to_string(dst));
    span_of_.try_emplace(id, span);
    on_complete = [this, id, cb = std::move(on_complete)]() mutable {
      end_flow_span(id);
      if (cb) cb();
    };
  }
  if (!mask_.reachable(src, dst)) {
    // The pair is partitioned: the flow parks immediately and makes no
    // progress until a heal/mask change reconnects src → dst.
    ++stats_.flows_parked;
    parked_.emplace(id, ParkedFlow{src, dst, static_cast<double>(bytes), bytes,
                                   latency, std::move(on_complete)});
    return id;
  }
  if (bytes == 0) {
    // Completion is counted when the latency-deferred callback actually
    // fires, so stats never report completions that have not happened yet.
    // The event is indexed under the flow id so cancel() can withdraw it.
    const sim::EventId event =
        sim_.after(latency, [this, id, cb = std::move(on_complete)]() mutable {
          live_.erase(id);
          ++stats_.flows_completed;
          --stats_.flows_in_flight;
          cb();
        });
    live_.try_emplace(id, LiveFlow{-1, event});
    return id;
  }
  settle_progress();
  const int slot = acquire_flow_slot();
  const auto si = static_cast<std::size_t>(slot);
  const int gi = group_for_pair(src, dst);
  Group& group = groups_[static_cast<std::size_t>(gi)];
  flow_id_[si] = id;
  flow_group_[si] = gi;
  flow_bytes_[si] = bytes;
  flow_latency_[si] = latency;
  flow_src_[si] = src;
  flow_dst_[si] = dst;
  flow_finish_drain_[si] = group.drain_total + static_cast<double>(bytes);
  flow_cb_[si] = std::move(on_complete);
  push_member(group, Member{flow_finish_drain_[si], id, slot});
  ++group.size;
  live_.try_emplace(id, LiveFlow{slot, 0});
  ++active_flows_;
  mark_dirty();
  return id;
}

bool Fabric::cancel(FlowId id) {
  auto pit = parked_.find(id);
  if (pit != parked_.end()) {
    // Parked flows never entered (or already left) the solver, so only
    // the in-flight accounting needs unwinding.
    end_flow_span(id);
    parked_.erase(pit);
    ++stats_.flows_cancelled;
    --stats_.flows_in_flight;
    return true;
  }
  const LiveFlow* live = live_.find(id);
  if (live == nullptr) return false;
  end_flow_span(id);
  ++stats_.flows_cancelled;
  --stats_.flows_in_flight;
  if (live->slot < 0) {
    // A zero-byte transfer never entered the solver.
    sim_.cancel(live->latency_event);
    live_.erase(id);
    return true;
  }
  settle_progress();
  const int slot = live->slot;
  leave_group(flow_group_[static_cast<std::size_t>(slot)]);
  release_flow_slot(slot);
  live_.erase(id);
  --active_flows_;
  mark_dirty();
  return true;
}

double Fabric::flow_rate(FlowId id) const {
  // Rates may be stale inside a same-timestamp churn batch; flush first.
  const_cast<Fabric*>(this)->flush_if_dirty();
  const LiveFlow* live = live_.find(id);
  if (live == nullptr || live->slot < 0) return 0.0;
  const int gi = flow_group_[static_cast<std::size_t>(live->slot)];
  return groups_[static_cast<std::size_t>(gi)].rate;
}

// ---------------------------------------------------------------------------
// Incremental grouped engine
// ---------------------------------------------------------------------------

int Fabric::acquire_flow_slot() {
  if (!free_slots_.empty()) {
    const int s = free_slots_.back();
    free_slots_.pop_back();
    return s;
  }
  flow_id_.push_back(0);
  flow_group_.push_back(-1);
  flow_bytes_.push_back(0);
  flow_latency_.push_back(0);
  flow_src_.push_back(0);
  flow_dst_.push_back(0);
  flow_finish_drain_.push_back(0.0);
  flow_cb_.emplace_back();
  return static_cast<int>(flow_id_.size()) - 1;
}

void Fabric::release_flow_slot(int slot) {
  const auto si = static_cast<std::size_t>(slot);
  flow_id_[si] = 0;
  flow_group_[si] = -1;
  flow_cb_[si] = nullptr;
  free_slots_.push_back(slot);
}

int Fabric::group_for_pair(cluster::NodeId src, cluster::NodeId dst) {
  const std::uint64_t key =
      src == dst ? ~std::uint64_t{0}
                 : std::uint64_t{static_cast<std::uint32_t>(src)} << 32 |
                       static_cast<std::uint32_t>(dst);
  if (const int* live = group_of_pair_.find(key)) return *live;
  int gi;
  if (!free_groups_.empty()) {
    gi = free_groups_.back();
    free_groups_.pop_back();
  } else {
    gi = static_cast<int>(groups_.size());
    groups_.emplace_back();
  }
  Group& group = groups_[static_cast<std::size_t>(gi)];
  group.key = key;
  group.path = topology_.path(src, dst);
  group.rate =
      group.path.empty() ? kLoopbackBytesPerS : 0.0;
  group.drain_total = 0.0;
  group.size = 0;
  group_of_pair_.try_emplace(key, gi);
  return gi;
}

void Fabric::leave_group(int group_index) {
  Group& group = groups_[static_cast<std::size_t>(group_index)];
  --group.size;
  if (group.size == 0) {
    group_of_pair_.erase(group.key);
    group.path = Path();
    group.members.clear();
    group.rate = 0.0;
    group.drain_total = 0.0;
    free_groups_.push_back(group_index);
  }
}

void Fabric::push_member(Group& group, Member member) {
  group.members.push_back(member);
  std::push_heap(group.members.begin(), group.members.end(), MemberLater{});
}

void Fabric::pop_member(Group& group) {
  std::pop_heap(group.members.begin(), group.members.end(), MemberLater{});
  group.members.pop_back();
}

void Fabric::purge_dead_members(Group& group) {
  while (!group.members.empty()) {
    const Member& m = group.members.front();
    if (flow_id_[static_cast<std::size_t>(m.slot)] == m.id) return;
    pop_member(group);  // cancelled flow; its slot moved on
  }
}

void Fabric::settle_progress() {
  const util::TimeNs now = sim_.now();
  if (now == last_settle_) return;
  const double dt = util::to_seconds(now - last_settle_);
  last_settle_ = now;
  for (Group& group : groups_) {
    if (group.size > 0) group.drain_total += group.rate * dt;
  }
}

void Fabric::mark_dirty() {
  dirty_ = true;
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  // One recompute per timestamp batch: every same-time arrival/cancel
  // (e.g. a whole shuffle wave) shares this deferred flush.
  sim_.defer([this] {
    flush_scheduled_ = false;
    flush_if_dirty();
  });
}

void Fabric::flush_if_dirty() {
  if (!dirty_) return;
  dirty_ = false;
  settle_progress();
  clear_pending_event();
  if (active_flows_ == 0) return;
  solve_grouped();
  double earliest_s = std::numeric_limits<double>::infinity();
  for (Group& group : groups_) {
    if (group.size == 0) continue;
    if (group.rate <= 0) {
      throw std::logic_error("flow with zero rate would never complete");
    }
    purge_dead_members(group);
    earliest_s = std::min(
        earliest_s,
        (group.members.front().finish_drain - group.drain_total) /
            group.rate);
  }
  schedule_completion(earliest_s);
}

void Fabric::solve_grouped() {
  ++stats_.rate_recomputations;
  // Link state comes from the pending groups' paths: a capacity is read
  // on first touch, and unfixed counts return to 0 as groups are fixed.
  loaded_scratch_.clear();
  pending_scratch_.clear();
  std::int64_t remaining = 0;
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    Group& group = groups_[gi];
    if (group.size == 0 || group.path.empty()) continue;
    group.rate = -1.0;  // unfixed marker
    pending_scratch_.push_back(static_cast<int>(gi));
    remaining += group.size;
    for (LinkId l : group.path) {
      const auto idx = static_cast<std::size_t>(l);
      if (unfixed_scratch_[idx] == 0) {
        loaded_scratch_.push_back(l);
        cap_scratch_[idx] = topology_.link(l).capacity_bytes_per_s *
                            link_capacity_factor_[idx];
      }
      unfixed_scratch_[idx] += group.size;
    }
  }

  while (remaining > 0) {
    // Find the bottleneck: the link with the smallest fair share.
    double best_share = std::numeric_limits<double>::infinity();
    for (LinkId l : loaded_scratch_) {
      const auto idx = static_cast<std::size_t>(l);
      if (unfixed_scratch_[idx] == 0) continue;
      const double share =
          std::max(0.0, cap_scratch_[idx]) / unfixed_scratch_[idx];
      best_share = std::min(best_share, share);
    }
    if (!std::isfinite(best_share)) {
      throw std::logic_error("max-min: unfixed flows but no loaded link");
    }
    // Fix every unfixed group crossing a link at the bottleneck share. The
    // residual capacity is drained with one subtraction per member flow so
    // the arithmetic matches the per-flow reference solver bit for bit.
    bool fixed_any = false;
    for (int gi : pending_scratch_) {
      Group& group = groups_[static_cast<std::size_t>(gi)];
      if (group.rate >= 0) continue;
      bool at_bottleneck = false;
      for (LinkId l : group.path) {
        const auto idx = static_cast<std::size_t>(l);
        const double share =
            std::max(0.0, cap_scratch_[idx]) / unfixed_scratch_[idx];
        if (share <= best_share * (1 + 1e-12)) {
          at_bottleneck = true;
          break;
        }
      }
      if (!at_bottleneck) continue;
      group.rate = best_share;
      fixed_any = true;
      remaining -= group.size;
      for (LinkId l : group.path) {
        const auto idx = static_cast<std::size_t>(l);
        for (int k = 0; k < group.size; ++k) cap_scratch_[idx] -= best_share;
        unfixed_scratch_[idx] -= group.size;
      }
    }
    if (!fixed_any) {
      throw std::logic_error("max-min: made no progress");
    }
  }
}

void Fabric::on_completion_event() {
  has_pending_event_ = false;
  settle_progress();
  done_scratch_.clear();
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    Group& group = groups_[gi];
    if (group.size == 0) continue;
    const bool remote = !group.path.empty();
    for (;;) {
      purge_dead_members(group);
      if (group.members.empty()) break;
      const Member m = group.members.front();
      if (m.finish_drain > group.drain_total + kDrainEpsilon) break;
      pop_member(group);
      const auto si = static_cast<std::size_t>(m.slot);
      done_scratch_.push_back(DoneFlow{m.id, flow_bytes_[si], remote,
                                       flow_latency_[si],
                                       std::move(flow_cb_[si])});
      release_flow_slot(m.slot);
      live_.erase(m.id);
      ++stats_.flows_completed;
      --stats_.flows_in_flight;
      --active_flows_;
      leave_group(static_cast<int>(gi));
      if (group.size == 0) break;  // group recycled; its heap was cleared
    }
  }
  // Completion callbacks fire in flow-id order — the determinism contract.
  std::sort(done_scratch_.begin(), done_scratch_.end(),
            [](const DoneFlow& a, const DoneFlow& b) { return a.id < b.id; });
  dirty_ = true;
  flush_if_dirty();
  for (DoneFlow& d : done_scratch_) {
    deliver(d.bytes, d.remote, d.latency, std::move(d.cb));
  }
}

// ---------------------------------------------------------------------------
// Network partitions
// ---------------------------------------------------------------------------

void Fabric::set_reachability(std::vector<int> host_group,
                              std::vector<std::vector<char>> blocked) {
  mask_ = Reachability(topology_.host_count(), std::move(host_group),
                       std::move(blocked));
  apply_reachability();
}

void Fabric::clear_partitions() {
  if (!mask_.partitioned() && parked_.empty()) return;
  mask_ = Reachability();
  apply_reachability();
}

void Fabric::apply_reachability() {
  // Settle at the pre-change rates first: parked flows keep exactly the
  // bytes they had drained up to this instant.
  settle_progress();
  for (std::size_t si = 0; si < flow_id_.size(); ++si) {
    const FlowId id = flow_id_[si];
    if (id == 0) continue;
    if (mask_.reachable(flow_src_[si], flow_dst_[si])) continue;
    const Group& group = groups_[static_cast<std::size_t>(flow_group_[si])];
    const double remaining =
        std::max(0.0, flow_finish_drain_[si] - group.drain_total);
    ++stats_.flows_parked;
    parked_.emplace(id, ParkedFlow{flow_src_[si], flow_dst_[si], remaining,
                                   flow_bytes_[si], flow_latency_[si],
                                   std::move(flow_cb_[si])});
    // The heap member left behind purges lazily (slot id mismatch).
    leave_group(flow_group_[si]);
    release_flow_slot(static_cast<int>(si));
    live_.erase(id);
    --active_flows_;
  }
  // Resume every parked flow whose pair is reachable again, in flow-id
  // order (the determinism contract for post-heal re-entry).
  for (auto it = parked_.begin(); it != parked_.end();) {
    if (!mask_.reachable(it->second.src, it->second.dst)) {
      ++it;
      continue;
    }
    const FlowId id = it->first;
    ParkedFlow p = std::move(it->second);
    it = parked_.erase(it);
    ++stats_.flows_resumed;
    resume_flow(id, std::move(p));
  }
  mark_dirty();
}

void Fabric::resume_flow(FlowId id, ParkedFlow p) {
  const bool remote = p.src != p.dst;
  if (p.remaining <= kDrainEpsilon) {
    // Everything had drained before the park (or the transfer was
    // zero-byte): only the propagation latency is still owed.
    ++stats_.flows_completed;
    --stats_.flows_in_flight;
    deliver(p.bytes, remote, p.latency, std::move(p.cb));
    return;
  }
  const int slot = acquire_flow_slot();
  const auto si = static_cast<std::size_t>(slot);
  const int gi = group_for_pair(p.src, p.dst);
  Group& group = groups_[static_cast<std::size_t>(gi)];
  flow_id_[si] = id;
  flow_group_[si] = gi;
  flow_bytes_[si] = p.bytes;
  flow_latency_[si] = p.latency;
  flow_src_[si] = p.src;
  flow_dst_[si] = p.dst;
  flow_finish_drain_[si] = group.drain_total + p.remaining;
  flow_cb_[si] = std::move(p.cb);
  push_member(group, Member{flow_finish_drain_[si], id, slot});
  ++group.size;
  live_.try_emplace(id, LiveFlow{slot, 0});
  ++active_flows_;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

void Fabric::end_flow_span(FlowId id) {
  if (!tracer_) return;
  const trace::SpanId* span = span_of_.find(id);
  if (span == nullptr) return;
  tracer_->end(*span);
  span_of_.erase(id);
}

void Fabric::deliver(util::Bytes bytes, bool remote, util::TimeNs latency,
                     FlowCallback cb) {
  stats_.bytes_delivered += bytes;
  if (remote) stats_.bytes_remote += bytes;
  sim_.after(latency, std::move(cb));
}

void Fabric::schedule_completion(double earliest_s) {
  const auto delay = static_cast<util::TimeNs>(std::ceil(earliest_s * 1e9));
  pending_event_ = sim_.after(std::max<util::TimeNs>(delay, 0),
                              [this] { on_completion_event(); });
  has_pending_event_ = true;
}

void Fabric::clear_pending_event() {
  if (!has_pending_event_) return;
  sim_.cancel(pending_event_);
  has_pending_event_ = false;
}

}  // namespace evolve::net
