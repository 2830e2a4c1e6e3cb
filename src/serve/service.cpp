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
    tenants_.try_emplace(klass.tenant);
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
    for (auto& [key, rep] : replicas_) {
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
  for (auto& [key, rep] : replicas_) rep->set_accel_pool(pool);
}

void Service::set_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  for (auto& [key, rep] : replicas_) rep->set_tracer(tracer);
}

void Service::attach_signal(ScalingSignal* signal) {
  signal_ = signal;
  note_inflight();
}

int Service::replica_queue_depth(std::int64_t key) const {
  auto it = replicas_.find(key);
  return it == replicas_.end() ? 0 : it->second->queue_depth();
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

Service::InFlight* Service::record(RequestId id) {
  InFlight* const* rec = inflight_.find(id);
  return rec == nullptr ? nullptr : *rec;
}

ReplicaServer* Service::replica(std::int64_t key) {
  auto it = replicas_.find(key);
  if (it != replicas_.end()) return it->second.get();
  for (auto& rep : retired_) {
    if (rep->key() == key) return rep.get();
  }
  return nullptr;
}

TenantStats& Service::tenant_of(const InFlight& rec) {
  return tenants_[class_of(rec).tenant];
}

void Service::submit(Request req) {
  if (req.cls < 0 || req.cls >= static_cast<int>(classes_.size())) {
    throw std::invalid_argument("request class out of range");
  }
  const util::TimeNs now = sim_.now();
  const RequestClass& klass = classes_[static_cast<std::size_t>(req.cls)];
  req.arrival = now;

  tenants_[klass.tenant].arrived += 1;
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
    tenants_[klass.tenant].shed_admission += 1;
    metrics_.count("serve.shed_admission");
    if (tracer_ && root != trace::kNoSpan) {
      tracer_->annotate(root, "outcome", to_string(Outcome::kShedAdmission));
    }
    trace::end_span(tracer_, root);
    return;
  }
  tenants_[klass.tenant].admitted += 1;
  metrics_.count("serve.admitted");

  const RequestId id = req.id;
  auto [slot, inserted] = inflight_.try_emplace(id, nullptr);
  if (!inserted) throw std::invalid_argument("duplicate request id");
  *slot = inflight_slab_.acquire();
  InFlight& rec = **slot;
  rec.req = req;
  rec.root = root;

  route_copy(rec, 0, -1);
  // The record may have been erased (queue-full shed happens only after a
  // network hop, so not here; parking keeps it alive) — re-look-up anyway
  // to stay safe against future synchronous paths.
  InFlight* alive = record(id);
  if (alive && config_.hedging && !alive->done) arm_hedge(*alive);
}

bool Service::route_copy(InFlight& rec, int which, std::int64_t exclude_key) {
  Copy& copy = rec.copies[which];
  if (replicas_.empty()) {
    if (which != 0) return false;  // a hedge is never worth waiting for
    copy.parked = true;
    parked_.emplace_back(rec.req.id, which);
    metrics_.count("serve.parked");
    return true;
  }

  std::vector<ReplicaView>& view = route_view_;
  std::vector<std::int64_t>& keys = route_keys_;
  view.clear();
  keys.clear();
  bool any_available = false;
  for (auto& [key, rep] : replicas_) {
    ReplicaView rv;
    rv.key = key;
    rv.outstanding = outstanding_[key] + ramp_penalty(rep->node());
    rv.available = !is_node_drained(rep->node());
    any_available = any_available || rv.available;
    view.push_back(rv);
    keys.push_back(key);
  }
  if (!any_available) {
    // Every node is drained: availability beats purity.
    for (ReplicaView& rv : view) rv.available = true;
    metrics_.count("serve.routed_degraded");
  }
  int exclude_idx = -1;
  if (exclude_key >= 0) {
    auto pos = std::find(keys.begin(), keys.end(), exclude_key);
    if (pos != keys.end()) {
      exclude_idx = static_cast<int>(pos - keys.begin());
    }
  }
  const int idx = router_.pick(view, exclude_idx);
  if (idx < 0) return false;  // only the excluded replica was available

  const std::int64_t key = keys[static_cast<std::size_t>(idx)];
  copy.replica = key;
  copy.live = true;
  copy.parked = false;
  outstanding_[key] += 1;
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
  const cluster::NodeId target = replica_nodes_[key];
  const RequestId id = rec.req.id;
  trace::ScopedContext ctx(tracer_, copy.span);
  fabric_.transfer(rec.req.client, target, klass.request_bytes,
                   [this, id, which, key] {
                     deliver_to_replica(id, which, key);
                   });
  return true;
}

void Service::deliver_to_replica(RequestId id, int which, std::int64_t key) {
  InFlight* rec = record(id);
  if (!rec) return;  // the other copy finished and the record retired
  Copy& copy = rec->copies[which];
  if (!copy.live || copy.replica != key) return;

  if (rec->done) {
    // Won by the other copy while this one was still in the network.
    release_slot(key);
    copy.live = false;
    if (which == 1) metrics_.count("serve.hedges_cancelled");
    maybe_erase(id);
    return;
  }

  ReplicaServer* rep = replica(key);
  if (!rep || rep->closed()) {
    // The replica went away while the request crossed the fabric.
    release_slot(key);
    copy.live = false;
    metrics_.count("serve.rerouted");
    if (!route_copy(*rec, which, -1)) maybe_erase(id);
    return;
  }

  if (!rep->enqueue(id, rec->req.cls, copy.span)) {
    // Bounded queue full: the request is shed, not retried — retrying
    // would just defeat the backpressure the bound exists to create.
    release_slot(key);
    copy.live = false;
    metrics_.count("serve.queue_full");
    Copy& other = rec->copies[1 - which];
    if (!other.live && !other.parked) {
      shed_request(*rec, Outcome::kShedQueueFull);
    } else {
      if (which == 1) trace::end_span(tracer_, copy.span);
      maybe_erase(id);
    }
  }
}

void Service::on_dequeue(RequestId /*id*/, util::TimeNs sojourn) {
  admission_.on_queue_delay(sim_.now(), sojourn);
  if (signal_) signal_->on_queue_delay(sojourn);
  metrics_.observe("serve.queue_delay_us", sojourn / util::kMicrosecond);
}

void Service::on_batch_done(std::int64_t key,
                            const std::vector<RequestId>& ids, int cls,
                            util::TimeNs exec) {
  metrics_.observe("serve.batch_size",
                   static_cast<std::int64_t>(ids.size()));
  metrics_.observe("serve.exec_us", exec / util::kMicrosecond);
  ReplicaServer* rep = replica(key);
  const bool closed = !rep || rep->closed();
  if (exec_observer_) {
    auto node_it = replica_nodes_.find(key);
    if (node_it != replica_nodes_.end()) exec_observer_(node_it->second, exec);
  }

  for (RequestId id : ids) {
    InFlight* rec = record(id);
    if (!rec) continue;
    int which = -1;
    for (int c = 0; c < 2; ++c) {
      if (rec->copies[c].live && rec->copies[c].replica == key) {
        which = c;
        break;
      }
    }
    if (which < 0) continue;
    Copy& copy = rec->copies[which];
    release_slot(key);

    if (rec->done) {
      // Lost the hedge race after already executing: pure wasted work.
      copy.live = false;
      metrics_.count("serve.wasted_exec");
      if (which == 1) trace::end_span(tracer_, copy.span);
      maybe_erase(id);
      continue;
    }

    if (closed) {
      // The pod was evicted mid-execution; the result died with it.
      copy.live = false;
      metrics_.count("serve.rerouted");
      if (!route_copy(*rec, which, -1)) maybe_erase(id);
      continue;
    }

    rec->done = true;
    if (which == 1) metrics_.count("serve.hedge_wins");
    if (rec->hedge_armed) {
      sim_.cancel(rec->hedge_event);
      rec->hedge_armed = false;
    }
    Copy& other = rec->copies[1 - which];
    if (other.live) {
      ReplicaServer* loser = replica(other.replica);
      if (loser && loser->cancel_queued(id)) {
        // Still queued: cancelled before it cost anything.
        release_slot(other.replica);
        other.live = false;
        metrics_.count("serve.hedges_cancelled");
        if ((1 - which) == 1) trace::end_span(tracer_, other.span);
      }
      // Executing or in the network: retires through its own path.
    }

    const RequestClass& klass = classes_[static_cast<std::size_t>(cls)];
    const cluster::NodeId from = replica_nodes_[key];
    const cluster::NodeId client = rec->req.client;
    trace::ScopedContext ctx(tracer_, copy.span);
    fabric_.transfer(from, client, klass.response_bytes,
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
  InFlight* rec = record(id);
  if (!rec) return;
  Copy& copy = rec->copies[which];
  const util::TimeNs now = sim_.now();
  const util::TimeNs latency = now - rec->req.arrival;
  const RequestClass& klass = class_of(*rec);
  TenantStats& tenant = tenant_of(*rec);

  tenant.completed += 1;
  metrics_.count("serve.completed");
  if (retry_budget_ != nullptr) retry_budget_->record_success();
  metrics_.observe("serve.latency_us", latency / util::kMicrosecond);
  const bool slo_ok = latency <= klass.slo;
  if (!slo_ok) {
    tenant.slo_violations += 1;
    metrics_.count("serve.slo_violations");
  }
  if (tracer_ && rec->root != trace::kNoSpan) {
    tracer_->annotate(rec->root, "outcome", to_string(Outcome::kCompleted));
    if (which == 1) tracer_->annotate(rec->root, "won_by", "hedge");
  }
  if (which == 1) trace::end_span(tracer_, copy.span);
  trace::end_span(tracer_, rec->root);
  rec->root = trace::kNoSpan;
  copy.live = false;
  if (completion_observer_) {
    completion_observer_(rec->req, klass, latency, slo_ok);
  }
  maybe_erase(id);
}

void Service::arm_hedge(InFlight& rec) {
  const util::TimeNs delay =
      metrics::hedge_delay(metrics_.histogram("serve.latency_us"),
                           config_.hedge_min_delay, config_.hedge_min_samples);
  const RequestId id = rec.req.id;
  rec.hedge_event = sim_.after(delay, [this, id] {
    InFlight* r = record(id);
    if (!r) return;
    r->hedge_armed = false;
    launch_hedge(id);
  });
  rec.hedge_armed = true;
}

void Service::launch_hedge(RequestId id) {
  InFlight* rec = record(id);
  if (!rec || rec->done) return;
  Copy& primary = rec->copies[0];
  if (!primary.live || primary.parked) return;  // dying or still parked
  if (replicas_.size() < 2) return;  // no distinct replica to hedge to
  if (retry_budget_ != nullptr && !retry_budget_->try_retry()) {
    // Empty cross-layer budget: a hedge is duplicate work the cluster
    // cannot afford right now — suppress rather than pile on.
    metrics_.count("serve.hedges_suppressed");
    return;
  }
  if (route_copy(*rec, 1, primary.replica)) {
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
  trace::end_span(tracer_, rec.copies[1].span);  // idempotent if ended
  trace::end_span(tracer_, rec.root);
  rec.done = true;
  rec.root = trace::kNoSpan;
  maybe_erase(rec.req.id);
}

void Service::release_slot(std::int64_t key) {
  auto it = outstanding_.find(key);
  if (it != outstanding_.end() && it->second > 0) it->second -= 1;
  total_outstanding_ -= 1;
  note_inflight();
}

void Service::note_inflight() {
  if (signal_) signal_->set_inflight(total_outstanding_);
  metrics_.set_gauge("serve.outstanding",
                     static_cast<double>(total_outstanding_));
}

void Service::maybe_erase(RequestId id) {
  InFlight* rec = record(id);
  if (rec == nullptr || !rec->done) return;
  for (const Copy& copy : rec->copies) {
    if (copy.live || copy.parked) return;
  }
  if (rec->hedge_armed) return;
  inflight_slab_.release(rec);
  inflight_.erase(id);
}

void Service::on_replica_event(orch::PodId pod, cluster::NodeId node,
                               bool up) {
  const auto key = static_cast<std::int64_t>(pod);
  if (up) {
    auto rep = std::make_unique<ReplicaServer>(
        sim_, key, node, classes_, config_.replica,
        [this](RequestId id, util::TimeNs sojourn) { on_dequeue(id, sojourn); },
        [this](std::int64_t k, const std::vector<RequestId>& ids, int cls,
               util::TimeNs exec) { on_batch_done(k, ids, cls, exec); });
    rep->set_slowdown(conditions_[node].cpu_slowdown);
    rep->set_accel_pool(pool_);
    rep->set_tracer(tracer_);
    replica_nodes_[key] = node;
    outstanding_[key] = 0;
    replicas_[key] = std::move(rep);
    metrics_.count("serve.replica_up");
    drain_parked();
    return;
  }

  auto it = replicas_.find(key);
  if (it == replicas_.end()) return;
  std::unique_ptr<ReplicaServer> rep = std::move(it->second);
  replicas_.erase(it);
  metrics_.count("serve.replica_down");
  std::vector<QueuedRequest> orphans = rep->close();
  if (rep->idle()) {
    rep.reset();  // no pending events capture it; safe to free now
  } else {
    retired_.push_back(std::move(rep));  // drains its executing batch
  }
  for (const QueuedRequest& orphan : orphans) {
    InFlight* rec = record(orphan.id);
    if (!rec) continue;
    int which = -1;
    for (int c = 0; c < 2; ++c) {
      if (rec->copies[c].live && rec->copies[c].replica == key) which = c;
    }
    if (which < 0) continue;
    release_slot(key);
    rec->copies[which].live = false;
    if (rec->done) {
      maybe_erase(orphan.id);
      continue;
    }
    metrics_.count("serve.rerouted");
    if (!route_copy(*rec, which, -1)) maybe_erase(orphan.id);
  }
}

void Service::drain_parked() {
  std::deque<std::pair<RequestId, int>> pending;
  pending.swap(parked_);
  while (!pending.empty()) {
    auto [id, which] = pending.front();
    pending.pop_front();
    InFlight* rec = record(id);
    if (!rec || !rec->copies[which].parked) continue;  // shed while parked
    rec->copies[which].parked = false;
    if (replicas_.empty()) {
      // Still nothing to route to: park again, preserving FIFO order.
      rec->copies[which].parked = true;
      parked_.emplace_back(id, which);
      for (auto& rest : pending) parked_.push_back(rest);
      return;
    }
    route_copy(*rec, which, -1);
    if (config_.hedging) {
      InFlight* alive = record(id);
      if (alive && !alive->done && !alive->hedge_armed &&
          !alive->copies[1].live) {
        arm_hedge(*alive);
      }
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
