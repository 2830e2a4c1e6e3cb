#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace evolve::serve {

Service::Service(sim::Simulation& sim, net::Fabric& fabric,
                 orch::DeploymentController& deploy,
                 std::vector<RequestClass> classes, ServiceConfig config)
    : sim_(sim),
      fabric_(fabric),
      deploy_(deploy),
      classes_(std::move(classes)),
      config_(config),
      router_(config.policy, config.seed),
      admission_(config.admission),
      conditions_([this](cluster::NodeId node,
                         const cluster::NodeCondition& before,
                         const cluster::NodeCondition& after) {
        on_condition(node, before, after);
      }) {
  if (classes_.empty()) {
    throw std::invalid_argument("service needs at least one request class");
  }
  for (const RequestClass& klass : classes_) {
    class_tenants_.push_back(&tenants_.try_emplace(klass.tenant).first->second);
  }
  deploy_.set_replica_observer(
      [this](orch::PodId pod, cluster::NodeId node, bool up) {
        on_replica_event(pod, node, up);
      });
}

void Service::on_condition(cluster::NodeId node,
                           const cluster::NodeCondition& before,
                           const cluster::NodeCondition& after) {
  if (after.cpu_slowdown != before.cpu_slowdown) {
    for (const auto& rep : live_servers_) {
      if (rep->node() == node) rep->set_slowdown(after.cpu_slowdown);
    }
  }
  if (before.unreachable && !after.unreachable && reconnect_ramp_ > 0) {
    ramp_[node] = Ramp{sim_.now(), sim_.now() + reconnect_ramp_};
  }
}

int Service::ramp_penalty(cluster::NodeId node) {
  if (ramp_.empty()) return 0;
  const auto it = ramp_.find(node);
  if (it == ramp_.end()) return 0;
  const util::TimeNs now = sim_.now();
  if (now >= it->second.end) {
    ramp_.erase(it);
    return 0;
  }
  const double frac = static_cast<double>(now - it->second.start) /
                      static_cast<double>(it->second.end - it->second.start);
  return static_cast<int>(std::ceil(
      (1.0 - frac) * static_cast<double>(kRampMaxPenalty)));
}

void Service::set_accel_pool(accel::AccelPool* pool) {
  pool_ = pool;
  for (const auto& rep : live_servers_) rep->set_accel_pool(pool);
}

void Service::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  for (const auto& rep : live_servers_) rep->set_tracer(tracer);
}

void Service::attach_signal(ScalingSignal* signal) {
  signal_ = signal;
  note_inflight();
}

int Service::replica_queue_depth(std::int64_t key) const {
  const std::size_t i = live_index(key);
  return i < live_.size() ? live_servers_[i]->queue_depth() : 0;
}

const TenantStats& Service::tenant(const std::string& name) const {
  static const TenantStats kEmpty;
  auto it = tenants_.find(name);
  return it == tenants_.end() ? kEmpty : it->second;
}

Service::~Service() {
  // Records still in flight at teardown go back to the slab so their
  // owned members (request payload, callbacks) are destroyed.
  inflight_.for_each(
      [this](std::uint64_t, InFlight* rec) { inflight_slab_.release(rec); });
}

ReplicaServer* Service::replica(std::int64_t key) {
  const std::size_t i = live_index(key);
  if (i < live_.size()) return live_servers_[i].get();
  for (auto& rep : retired_) {
    if (rep->key() == key) return rep.get();
  }
  return nullptr;
}

void Service::submit(Request req) {
  if (req.cls < 0 || req.cls >= static_cast<int>(classes_.size())) {
    throw std::invalid_argument("request class out of range");
  }
  const util::TimeNs now = sim_.now();
  const RequestClass& klass = classes_[static_cast<std::size_t>(req.cls)];
  req.arrival = now;

  TenantStats& tenant = *class_tenants_[static_cast<std::size_t>(req.cls)];
  tenant.arrived += 1;
  metrics_.count("serve.requests");
  if (signal_) signal_->on_arrival();

  trace::SpanId root =
      trace::begin_span(tracer_, trace::Layer::kServe, "serve.request");
  if (tracer_ && root != trace::kNoSpan) {
    tracer_->set_job(root, req.id);
    tracer_->annotate(root, "class", klass.name);
    tracer_->annotate(root, "tenant", klass.tenant);
  }

  if (!admission_.admit(now)) {
    tenant.shed_admission += 1;
    metrics_.count("serve.shed_admission");
    if (tracer_ && root != trace::kNoSpan) {
      tracer_->annotate(root, "outcome", to_string(Outcome::kShedAdmission));
    }
    trace::end_span(tracer_, root);
    return;
  }
  tenant.admitted += 1;
  metrics_.count("serve.admitted");

  auto [slot, inserted] = inflight_.try_emplace(req.id, nullptr);
  if (!inserted) throw std::invalid_argument("duplicate request id");
  *slot = inflight_slab_.acquire();
  InFlight& rec = **slot;
  rec.req = req;
  rec.root = root;

  route_copy(rec, 0, -1);
  if (config_.hedging) arm_hedge(rec);
}

bool Service::route_copy(InFlight& rec, int which, std::int64_t exclude_key) {
  Copy& copy = rec.copies[which];
  if (live_.empty()) {
    // A hedge is not worth waiting for while its primary lives on.
    if (which != 0 && rec.copies[0].state != CopyState::kUnassigned) {
      return false;
    }
    copy.state = CopyState::kParked;
    parked_.push_back({rec.req.id, which});
    metrics_.count("serve.parked");
    return true;
  }

  bool any_available = false;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    live_[i].available = conditions_[live_nodes_[i]].usable();
    any_available = any_available || live_[i].available;
  }
  std::vector<ReplicaView>* view = &live_;
  if (!ramp_.empty()) {
    // Ramp penalties are virtual load: they go into a copy of the table,
    // never into the counts the table keeps.
    route_view_ = live_;
    for (std::size_t i = 0; i < live_.size(); ++i) {
      route_view_[i].outstanding += ramp_penalty(live_nodes_[i]);
    }
    view = &route_view_;
  }
  if (!any_available) {
    // Every node is drained: availability beats purity.
    for (ReplicaView& rv : *view) rv.available = true;
    metrics_.count("serve.routed_degraded");
  }
  int exclude_idx = -1;
  if (exclude_key >= 0) {
    const std::size_t pos = live_index(exclude_key);
    if (pos < live_.size()) exclude_idx = static_cast<int>(pos);
  }
  const int idx = router_.pick(*view, exclude_idx);
  if (idx < 0) return false;  // only the excluded replica was available

  ReplicaView& picked = live_[static_cast<std::size_t>(idx)];
  const std::int64_t key = picked.key;
  const cluster::NodeId target = live_nodes_[static_cast<std::size_t>(idx)];
  copy.replica = key;
  copy.state = CopyState::kAssigned;
  picked.outstanding += 1;
  total_outstanding_ += 1;
  note_inflight();

  if (which == 0) {
    copy.span = rec.root;
  } else {
    copy.span = trace::begin_span(tracer_, trace::Layer::kServe,
                                  "serve.hedge", rec.root);
    if (tracer_ && copy.span != trace::kNoSpan) {
      tracer_->annotate(copy.span, "replica", std::to_string(key));
    }
  }

  const RequestClass& klass = class_of(rec);
  const RequestId id = rec.req.id;
  trace::ScopedContext ctx(tracer_, copy.span);
  fabric_.transfer(rec.req.client, target, klass.request_bytes,
                   [this, id, which, key] {
                     deliver_to_replica(id, which, key);
                   });
  return true;
}

void Service::deliver_to_replica(RequestId id, int which, std::int64_t key) {
  InFlight& rec = record(id);
  if (rec.done) {
    // Won by the other copy while this one was still in the network.
    retire(rec, which);
    if (which == 1) metrics_.count("serve.hedges_cancelled");
    maybe_erase(rec);
    return;
  }

  ReplicaServer* rep = replica(key);
  if (!rep || rep->closed()) {
    // The replica went away while the request crossed the fabric.
    retire(rec, which);
    metrics_.count("serve.rerouted");
    route_copy(rec, which, -1);
    return;
  }

  if (!rep->enqueue(id, which, rec.req.cls, rec.copies[which].span)) {
    // Bounded queue full: the request is shed, not retried — retrying
    // would just defeat the backpressure the bound exists to create.
    retire(rec, which);
    metrics_.count("serve.queue_full");
    if (rec.copies[1 - which].state == CopyState::kUnassigned) {
      shed_request(rec, Outcome::kShedQueueFull);
    }
  }
}

void Service::on_dequeue(util::TimeNs sojourn) {
  admission_.on_queue_delay(sim_.now(), sojourn);
  if (signal_) signal_->on_queue_delay(sojourn);
  metrics_.observe("serve.queue_delay_us", sojourn / util::kMicrosecond);
}

void Service::on_batch_done(std::int64_t key,
                            const std::vector<CopyRef>& copies, int cls,
                            util::TimeNs exec) {
  metrics_.observe("serve.batch_size",
                   static_cast<std::int64_t>(copies.size()));
  metrics_.observe("serve.exec_us", exec / util::kMicrosecond);
  // This runs inside the replica's own finish_batch, and a closed
  // replica is kept in retired_ until it is idle, so it is always found.
  const ReplicaServer& rep = *replica(key);
  const bool closed = rep.closed();
  if (exec_observer_) exec_observer_(rep.node(), exec);

  for (const auto [id, which] : copies) {
    InFlight& rec = record(id);
    if (rec.done) {
      // Lost the hedge race after already executing: pure wasted work.
      retire(rec, which);
      metrics_.count("serve.wasted_exec");
      maybe_erase(rec);
      continue;
    }

    if (closed) {
      // The pod was evicted mid-execution; the result died with it.
      retire(rec, which);
      metrics_.count("serve.rerouted");
      route_copy(rec, which, -1);
      continue;
    }

    // The winner leaves its replica but stays assigned until its
    // response reaches the client.
    Copy& copy = rec.copies[which];
    release_slot(copy);
    rec.done = true;
    if (which == 1) metrics_.count("serve.hedge_wins");
    if (rec.hedge_armed) {
      sim_.cancel(rec.hedge_event);
      rec.hedge_armed = false;
    }
    const int other = 1 - which;
    if (rec.copies[other].state == CopyState::kAssigned) {
      ReplicaServer* loser = replica(rec.copies[other].replica);
      if (loser && loser->cancel_queued(id, other)) {
        // Still queued: cancelled before it cost anything. Only a
        // cancelled hedge is a hedge cancel; a cancelled primary is not.
        retire(rec, other);
        if (other == 1) metrics_.count("serve.hedges_cancelled");
      }
      // Executing or in the network: retires through its own path.
    }

    const RequestClass& klass = classes_[static_cast<std::size_t>(cls)];
    trace::ScopedContext ctx(tracer_, copy.span);
    fabric_.transfer(rep.node(), rec.req.client, klass.response_bytes,
                     [this, id, which] { finalize(id, which); });
  }
  // This callback runs inside the finishing replica's finish_batch — if
  // that replica was retired it may just have gone idle, but freeing it
  // here would pull the frame out from under it. Sweep after the event.
  bool any_idle = false;
  for (const auto& rep2 : retired_) any_idle = any_idle || rep2->idle();
  if (any_idle) sim_.defer([this] { sweep_retired(); });
}

void Service::finalize(RequestId id, int which) {
  InFlight& rec = record(id);
  const util::TimeNs now = sim_.now();
  const util::TimeNs latency = now - rec.req.arrival;
  const RequestClass& klass = class_of(rec);
  TenantStats& tenant = tenant_of(rec);

  tenant.completed += 1;
  metrics_.count("serve.completed");
  if (retry_budget_ != nullptr) retry_budget_->record_success();
  metrics_.observe("serve.latency_us", latency / util::kMicrosecond);
  const bool slo_ok = latency <= klass.slo;
  if (!slo_ok) {
    tenant.slo_violations += 1;
    metrics_.count("serve.slo_violations");
  }
  if (tracer_ && rec.root != trace::kNoSpan) {
    tracer_->annotate(rec.root, "outcome", to_string(Outcome::kCompleted));
    if (which == 1) tracer_->annotate(rec.root, "won_by", "hedge");
  }
  retire(rec, which);
  trace::end_span(tracer_, rec.root);
  rec.root = trace::kNoSpan;
  if (completion_observer_) {
    completion_observer_(rec.req, klass, latency, slo_ok);
  }
  maybe_erase(rec);
}

void Service::arm_hedge(InFlight& rec) {
  const util::TimeNs delay =
      metrics::hedge_delay(metrics_.histogram("serve.latency_us"),
                           config_.hedge_min_delay, config_.hedge_min_samples);
  const RequestId id = rec.req.id;
  // Every path that finishes or sheds the request cancels the timer.
  rec.hedge_event = sim_.after(delay, [this, id] {
    InFlight& armed = record(id);
    armed.hedge_armed = false;
    launch_hedge(armed);
  });
  rec.hedge_armed = true;
}

void Service::launch_hedge(InFlight& rec) {
  const Copy& primary = rec.copies[0];
  if (primary.state != CopyState::kAssigned) return;  // still parked
  if (live_.size() < 2) return;  // no distinct replica to hedge to
  if (retry_budget_ != nullptr && !retry_budget_->try_retry()) {
    // Empty cross-layer budget: a hedge is duplicate work the cluster
    // cannot afford right now — suppress rather than pile on.
    metrics_.count("serve.hedges_suppressed");
    return;
  }
  if (route_copy(rec, 1, primary.replica)) {
    metrics_.count("serve.hedges_launched");
  }
}

void Service::shed_request(InFlight& rec, Outcome outcome) {
  TenantStats& tenant = tenant_of(rec);
  if (outcome == Outcome::kShedQueueFull) {
    tenant.shed_queue_full += 1;
    metrics_.count("serve.shed_queue_full");
  } else {
    tenant.shed_admission += 1;
    metrics_.count("serve.shed_admission");
  }
  if (rec.hedge_armed) {
    sim_.cancel(rec.hedge_event);
    rec.hedge_armed = false;
  }
  if (tracer_ && rec.root != trace::kNoSpan) {
    tracer_->annotate(rec.root, "outcome", to_string(outcome));
  }
  trace::end_span(tracer_, rec.root);
  rec.done = true;
  rec.root = trace::kNoSpan;
  maybe_erase(rec);
}

void Service::retire(InFlight& rec, int which) {
  Copy& copy = rec.copies[which];
  release_slot(copy);
  copy.state = CopyState::kUnassigned;
  if (which == 1) trace::end_span(tracer_, copy.span);
}

void Service::release_slot(Copy& copy) {
  if (copy.replica < 0) return;
  const std::size_t i = live_index(copy.replica);
  if (i < live_.size()) live_[i].outstanding -= 1;
  copy.replica = -1;
  total_outstanding_ -= 1;
  note_inflight();
}

std::size_t Service::live_position(std::int64_t key) const {
  const auto it = std::lower_bound(
      live_.begin(), live_.end(), key,
      [](const ReplicaView& rv, std::int64_t k) { return rv.key < k; });
  return static_cast<std::size_t>(it - live_.begin());
}

std::size_t Service::live_index(std::int64_t key) const {
  const std::size_t i = live_position(key);
  return i < live_.size() && live_[i].key == key ? i : live_.size();
}

void Service::note_inflight() {
  if (signal_) signal_->set_inflight(total_outstanding_);
}

void Service::maybe_erase(InFlight& rec) {
  if (!rec.done || rec.hedge_armed) return;
  for (const Copy& copy : rec.copies) {
    if (copy.state != CopyState::kUnassigned) return;
  }
  const RequestId id = rec.req.id;
  inflight_slab_.release(&rec);
  inflight_.erase(id);
}

void Service::on_replica_event(orch::PodId pod, cluster::NodeId node,
                               bool up) {
  const auto key = static_cast<std::int64_t>(pod);
  if (up) {
    auto rep = std::make_unique<ReplicaServer>(
        sim_, key, node, classes_, config_.replica,
        [this](util::TimeNs sojourn) { on_dequeue(sojourn); },
        [this](std::int64_t k, const std::vector<CopyRef>& copies, int cls,
               util::TimeNs exec) { on_batch_done(k, copies, cls, exec); });
    rep->set_slowdown(conditions_[node].cpu_slowdown);
    rep->set_accel_pool(pool_);
    rep->set_tracer(tracer_);
    const auto at = static_cast<std::ptrdiff_t>(live_position(key));
    live_.insert(live_.begin() + at, ReplicaView{key, 0, true});
    live_nodes_.insert(live_nodes_.begin() + at, node);
    live_servers_.insert(live_servers_.begin() + at, std::move(rep));
    metrics_.count("serve.replica_up");
    drain_parked();
    return;
  }

  const std::size_t i = live_index(key);
  if (i == live_.size()) return;
  const auto at = static_cast<std::ptrdiff_t>(i);
  std::unique_ptr<ReplicaServer> rep = std::move(live_servers_[i]);
  live_.erase(live_.begin() + at);
  live_nodes_.erase(live_nodes_.begin() + at);
  live_servers_.erase(live_servers_.begin() + at);
  metrics_.count("serve.replica_down");
  const std::vector<QueuedRequest> orphans = rep->close();
  if (rep->idle()) {
    rep.reset();  // no pending events capture it; safe to free now
  } else {
    retired_.push_back(std::move(rep));  // drains its executing batch
  }
  for (const QueuedRequest& orphan : orphans) {
    InFlight& rec = record(orphan.id);
    retire(rec, orphan.copy);
    if (rec.done) {
      maybe_erase(rec);
      continue;
    }
    metrics_.count("serve.rerouted");
    route_copy(rec, orphan.copy, -1);
  }
}

void Service::drain_parked() {
  // A replica is up, so every parked copy routes (none parks again).
  while (!parked_.empty()) {
    const auto [id, which] = parked_.front();
    parked_.pop_front();
    InFlight& rec = record(id);
    route_copy(rec, which, -1);
    if (config_.hedging && !rec.hedge_armed &&
        rec.copies[1].state == CopyState::kUnassigned) {
      arm_hedge(rec);
    }
  }
}

void Service::sweep_retired() {
  retired_.erase(
      std::remove_if(retired_.begin(), retired_.end(),
                     [](const std::unique_ptr<ReplicaServer>& rep) {
                       return rep->idle();
                     }),
      retired_.end());
}

}  // namespace evolve::serve
