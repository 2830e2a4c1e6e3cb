#include "orch/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

namespace evolve::orch {

SchedulingPolicy SchedulingPolicy::spreading(const cluster::Cluster&) {
  return {.least_allocated = 1.0, .balanced = 0.5, .locality = 2.0,
          .pod_spread = 0.25};
}

SchedulingPolicy SchedulingPolicy::binpacking(const cluster::Cluster&) {
  return {.most_allocated = 1.0, .locality = 2.0};
}

bool eligible(const PodSpec& pod, const cluster::NodeSpec& spec,
              const NodeStatus& node, const cluster::NodeCondition& condition) {
  if (node.cordoned || !condition.usable()) return false;
  for (const auto& label : pod.node_selector) {
    if (!spec.has_label(label)) return false;
  }
  return pod.anti_affinity_group.empty() ||
         !node.hosts_group(pod.anti_affinity_group);
}

namespace {

/// Preferred node 1, same rack as a preferred node 0.5, elsewhere 0.
double locality(const PodSpec& pod, const cluster::Cluster& cluster,
                 cluster::NodeId node) {
  if (pod.preferred_nodes.empty()) return 0.0;
  for (cluster::NodeId preferred : pod.preferred_nodes) {
    if (preferred == node) return 1.0;
  }
  const int rack = cluster.node(node).rack;
  for (cluster::NodeId preferred : pod.preferred_nodes) {
    if (cluster.node(preferred).rack == rack) return 0.5;
  }
  return 0.0;
}

}  // namespace

double node_score(const PodSpec& pod, const cluster::Cluster& cluster,
                  const NodeStatus& node, const SchedulingPolicy& policy) {
  // Shares of the node used once the pod is placed (accelerators are
  // all-or-nothing, so they do not count).
  const auto& cap = node.allocatable();
  const auto after = node.allocated() + pod.request;
  const double cpu = cap.cpu_millicores > 0
                         ? static_cast<double>(after.cpu_millicores) /
                               static_cast<double>(cap.cpu_millicores)
                         : 0.0;
  const double mem = cap.memory_bytes > 0
                         ? static_cast<double>(after.memory_bytes) /
                               static_cast<double>(cap.memory_bytes)
                         : 0.0;
  const double used = std::clamp((cpu + mem) / 2.0, 0.0, 1.0);
  double score = 0.0;
  score += policy.least_allocated * (1.0 - used);
  score += policy.most_allocated * used;
  score += policy.balanced * (1.0 - std::min(1.0, std::abs(cpu - mem)));
  score += policy.locality * locality(pod, cluster, node.id());
  score += policy.pod_spread *
           (1.0 / (1.0 + static_cast<double>(node.pod_count())));
  return score;
}

cluster::NodeId select_node(const PodSpec& pod,
                            const cluster::Cluster& cluster,
                            const std::vector<NodeStatus>& nodes,
                            const cluster::NodeConditions& conditions,
                            const SchedulingPolicy& policy,
                            cluster::NodeId exclude) {
  cluster::NodeId best = cluster::kInvalidNode;
  double best_score = -1.0;
  for (const NodeStatus& node : nodes) {
    if (node.id() == exclude || !node.fits(pod.request) ||
        !eligible(pod, cluster.node(node.id()), node,
                  conditions[node.id()])) {
      continue;
    }
    const double score = node_score(pod, cluster, node, policy);
    if (score > best_score) {
      best_score = score;
      best = node.id();
    }
  }
  return best;
}

Orchestrator::Orchestrator(sim::Simulation& sim,
                           const cluster::Cluster& cluster,
                           SchedulingPolicy policy, OrchestratorConfig config)
    : sim_(sim),
      cluster_(cluster),
      policy_(policy),
      config_(config),
      conditions_([this](cluster::NodeId node,
                         const cluster::NodeCondition& before,
                         const cluster::NodeCondition& after) {
        on_condition(node, before, after);
      }) {
  std::vector<cluster::NodeId> managed = config_.nodes;
  if (managed.empty()) {
    for (cluster::NodeId n = 0; n < cluster_.size(); ++n) managed.push_back(n);
  }
  double total_cpu = 0, total_mem = 0;
  for (cluster::NodeId n : managed) {
    const auto allocatable = cluster_.node(n).allocatable();
    node_index_[n] = nodes_.size();
    nodes_.emplace_back(n, allocatable);
    total_cpu += static_cast<double>(allocatable.cpu_millicores);
    total_mem += static_cast<double>(allocatable.memory_bytes);
  }
  cpu_usage_.set_capacity(total_cpu);
  mem_usage_.set_capacity(total_mem);
}

NodeStatus& Orchestrator::status_for(cluster::NodeId node) {
  NodeStatus* status = find_status(node);
  if (!status) throw std::out_of_range("node not managed by this orchestrator");
  return *status;
}

NodeStatus* Orchestrator::find_status(cluster::NodeId node) {
  auto it = node_index_.find(node);
  return it == node_index_.end() ? nullptr : &nodes_[it->second];
}

const NodeStatus* Orchestrator::find_status(cluster::NodeId node) const {
  auto it = node_index_.find(node);
  return it == node_index_.end() ? nullptr : &nodes_[it->second];
}

Orchestrator::PodRecord& Orchestrator::record(PodId id) {
  auto it = pods_.find(id);
  if (it == pods_.end()) throw std::out_of_range("unknown pod id");
  return it->second;
}

const PodStatus& Orchestrator::pod(PodId id) const {
  auto it = pods_.find(id);
  if (it == pods_.end()) throw std::out_of_range("unknown pod id");
  return it->second.status;
}

const NodeStatus& Orchestrator::node_status(cluster::NodeId node) const {
  const NodeStatus* status = find_status(node);
  if (!status) throw std::out_of_range("node not managed by this orchestrator");
  return *status;
}

void Orchestrator::enqueue(PodId id) {
  queue_.push_back(id);
  kick_pump();
}

void Orchestrator::kick_pump() {
  if (!queue_.empty() && !pump_scheduled_ && !shutdown_) {
    pump_scheduled_ = true;
    sim_.after(config_.scheduling_interval, [this] { pump(); });
  }
}

void Orchestrator::pump() {
  pump_scheduled_ = false;
  if (shutdown_) return;
  schedule_now();
}

Orchestrator::PodRecord& Orchestrator::add_pod(PodSpec spec,
                                               util::TimeNs duration) {
  if (pool_tree_) pool_tree_->add_demand(spec.tenant, spec.request);
  const PodId id = next_pod_++;
  PodRecord& rec = pods_[id];
  rec.status.id = id;
  rec.status.spec = std::move(spec);
  rec.status.submit_time = sim_.now();
  rec.duration = duration;
  trace_submit(rec);
  metrics_.count("pods_submitted");
  enqueue(id);
  return rec;
}

PodId Orchestrator::submit(PodSpec spec, util::TimeNs duration,
                           StartFn on_start, FinishFn on_finish) {
  PodRecord& rec = add_pod(std::move(spec), duration);
  rec.on_start = std::move(on_start);
  rec.on_finish = std::move(on_finish);
  return rec.status.id;
}

std::vector<PodId> Orchestrator::submit_gang(std::vector<PodSpec> specs,
                                             util::TimeNs duration,
                                             StartFn on_start,
                                             FinishFn on_finish,
                                             BatchSpec batch) {
  if (batch.walltime < 0 || batch.checkpoint_interval < 0 ||
      batch.restart_cost < 0) {
    throw std::invalid_argument("negative batch-gang time");
  }
  if (batch.walltime > 0 && duration < 0) {
    throw std::invalid_argument("a batch gang needs a duration");
  }
  if (specs.empty()) return {};
  const std::string tenant = specs.front().tenant;
  if (batch.walltime > 0) batch.walltime = std::max(batch.walltime, duration);
  const GangId id = next_gang_++;
  Gang& gang = *(gangs_[id] = std::make_shared<Gang>(
                     Gang{.members = {},
                          .live = static_cast<int>(specs.size()),
                          .on_start = std::move(on_start),
                          .on_finish = std::move(on_finish),
                          .batch = batch,
                          .remaining = duration}));
  for (auto& spec : specs) {
    spec.gang = id;
    spec.tenant = tenant;
    gang.members.push_back(add_pod(std::move(spec), duration).status.id);
  }
  return gang.members;
}

void Orchestrator::trace_submit(PodRecord& rec, trace::SpanId parent) {
  if (!tracer_) return;
  rec.wait_span =
      tracer_->begin(trace::Layer::kScheduler, "pod.wait", parent);
  tracer_->annotate(rec.wait_span, "pod", rec.status.spec.name.empty()
                                              ? std::to_string(rec.status.id)
                                              : rec.status.spec.name);
}

void Orchestrator::place(PodRecord& rec, cluster::NodeId node) {
  status_for(node).bind(rec.status.id, rec.status.spec.request,
                        rec.status.spec.anti_affinity_group);
  if (!rec.status.spec.budget_group.empty()) {
    ++group_running_[rec.status.spec.budget_group];
  }
  if (pool_tree_) {
    pool_tree_->remove_demand(rec.status.spec.tenant, rec.status.spec.request);
    pool_tree_->charge(rec.status.spec.tenant, rec.status.spec.request);
  }
  rec.status.phase = PodPhase::kRunning;
  rec.status.node = node;
  rec.status.start_time = sim_.now() + config_.bind_latency;
  ++running_count_;
  cpu_usage_.add(sim_.now(),
                 static_cast<double>(rec.status.spec.request.cpu_millicores));
  mem_usage_.add(sim_.now(),
                 static_cast<double>(rec.status.spec.request.memory_bytes));
  metrics_.count("pods_started");
  metrics_.observe("pod_wait_ms",
                   (sim_.now() - rec.status.submit_time) / util::kMillisecond);
  if (tracer_) {
    tracer_->end(rec.wait_span);
    // Service pods (negative duration: executors, rank holders) get no
    // run span — they would shadow the work the run actually does.
    if (rec.duration >= 0) {
      const trace::SpanId parent =
          rec.wait_span != trace::kNoSpan
              ? tracer_->span(rec.wait_span).parent
              : trace::kNoSpan;
      rec.run_span =
          tracer_->begin(trace::Layer::kCloud, "pod.run", parent);
      tracer_->annotate(rec.run_span, "node", std::to_string(node));
    }
  }

  // Timers of an incarnation that a batch restart ended are stale.
  const PodId id = rec.status.id;
  const util::TimeNs duration = rec.duration;
  const std::int64_t incarnation = rec.incarnation;
  sim_.after(config_.bind_latency, [this, id, node, incarnation] {
    auto it = pods_.find(id);
    if (it == pods_.end() || it->second.incarnation != incarnation ||
        it->second.status.is_terminal()) {
      return;
    }
    if (const GangId gang_id = it->second.status.spec.gang; gang_id != 0) {
      const std::shared_ptr<Gang> gang = gangs_.at(gang_id);
      if (gang->on_start) gang->on_start(id, node);
    } else if (StartFn fn = std::exchange(it->second.on_start, nullptr)) {
      fn(id, node);  // a single pod starts once
    }
  });
  if (duration >= 0) {
    sim_.after(config_.bind_latency + duration, [this, id, incarnation] {
      auto it = pods_.find(id);
      if (it != pods_.end() && it->second.incarnation == incarnation) {
        complete(id, PodPhase::kSucceeded);
      }
    });
  }
}

void Orchestrator::unbind(PodRecord& rec) {
  status_for(rec.status.node)
      .unbind(rec.status.id, rec.status.spec.request,
              rec.status.spec.anti_affinity_group);
  if (!rec.status.spec.budget_group.empty()) {
    --group_running_[rec.status.spec.budget_group];
  }
  if (pool_tree_) {
    pool_tree_->release(rec.status.spec.tenant, rec.status.spec.request);
  }
  cpu_usage_.add(sim_.now(),
                 -static_cast<double>(rec.status.spec.request.cpu_millicores));
  mem_usage_.add(sim_.now(),
                 -static_cast<double>(rec.status.spec.request.memory_bytes));
  --running_count_;
}

void Orchestrator::complete(PodId id, PodPhase phase) {
  auto it = pods_.find(id);
  if (it == pods_.end()) return;
  PodRecord& rec = it->second;
  if (rec.status.is_terminal()) return;

  const GangId gang_id = rec.status.spec.gang;
  const std::shared_ptr<Gang> gang =
      gang_id != 0 ? gangs_.at(gang_id) : nullptr;
  if (phase == PodPhase::kFailed && gang && gang->batch.walltime > 0) {
    // Members this failure already sent back to the queue stay there.
    if (rec.status.phase != PodPhase::kRunning) return;
    if (sim_.now() < rec.status.start_time + rec.duration) {
      restart_batch_gang(*gang, rec.status.start_time);
      return;
    }
    phase = PodPhase::kSucceeded;  // its run time is up: the work is done
  }

  if (rec.status.phase == PodPhase::kRunning) {
    unbind(rec);
  } else {
    // Still pending: drop it from the queue.
    queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
    if (pool_tree_) {
      pool_tree_->remove_demand(rec.status.spec.tenant,
                                rec.status.spec.request);
    }
  }
  rec.status.phase = phase;
  rec.status.finish_time = sim_.now();
  if (tracer_) {
    if (phase == PodPhase::kFailed && rec.run_span != trace::kNoSpan) {
      tracer_->annotate(rec.run_span, "outcome", "failed");
    }
    tracer_->end(rec.wait_span);  // no-op unless cancelled while pending
    tracer_->end(rec.run_span);
  }
  metrics_.count(phase == PodPhase::kSucceeded ? "pods_succeeded"
                                               : "pods_failed");
  if (gang) {
    const bool last = --gang->live == 0;
    if (gang->on_finish) gang->on_finish(id, phase);
    if (phase == PodPhase::kFailed) fail_gang_of(*gang);
    if (last) gangs_.erase(gang_id);
  } else {
    rec.on_start = nullptr;
    if (FinishFn fn = std::exchange(rec.on_finish, nullptr)) fn(id, phase);
  }
  kick_pump();
}

void Orchestrator::restart_batch_gang(Gang& gang, util::TimeNs started) {
  const BatchSpec& spec = gang.batch;
  const util::TimeNs elapsed = std::max<util::TimeNs>(0, sim_.now() - started);
  util::TimeNs checkpointed = 0;
  if (spec.checkpoint_interval > 0) {
    checkpointed = std::min(
        (elapsed / spec.checkpoint_interval) * spec.checkpoint_interval,
        gang.remaining);
  }
  gang.remaining = gang.remaining - checkpointed + spec.restart_cost;
  // Members placed earlier in this pass still hold queue entries.
  compact_queue();
  // Live members go back to the queue head in member order; the submit
  // time stays. A member already finished stays finished.
  for (auto it = gang.members.rbegin(); it != gang.members.rend(); ++it) {
    PodRecord& rec = record(*it);
    if (rec.status.is_terminal()) continue;
    unbind(rec);
    if (pool_tree_) {
      pool_tree_->add_demand(rec.status.spec.tenant, rec.status.spec.request);
    }
    rec.status.phase = PodPhase::kPending;
    rec.status.node = cluster::kInvalidNode;
    rec.status.start_time = -1;
    rec.duration = gang.remaining;
    ++rec.incarnation;
    if (tracer_) {
      tracer_->annotate(rec.run_span, "outcome", "restart");
      tracer_->end(rec.run_span);
      rec.run_span = trace::kNoSpan;
      trace_submit(rec, rec.wait_span != trace::kNoSpan
                            ? tracer_->span(rec.wait_span).parent
                            : trace::kNoSpan);
    }
    queue_.push_front(*it);
  }
  metrics_.count("gang_restarts");
  metrics_.observe("work_lost_ms",
                   (elapsed - checkpointed) / util::kMillisecond);
  kick_pump();
}

void Orchestrator::fail_gang_of(Gang& gang) {
  if (gang.failing) return;  // this failure is already killing the gang
  gang.failing = true;
  for (PodId member : gang.members) {
    if (record(member).status.is_terminal()) continue;
    metrics_.count("gang_kills");
    complete(member, PodPhase::kFailed);
  }
}

void Orchestrator::finish(PodId id) { complete(id, PodPhase::kSucceeded); }

// Trial binds take the anti-affinity group too, so same-group gang
// members cannot co-locate during the trial.
void Orchestrator::trial_bind(PodId id, cluster::NodeId node) {
  const PodSpec& spec = record(id).status.spec;
  status_for(node).bind(id, spec.request, spec.anti_affinity_group);
}

void Orchestrator::trial_unbind(PodId id, cluster::NodeId node) {
  const PodSpec& spec = record(id).status.spec;
  status_for(node).unbind(id, spec.request, spec.anti_affinity_group);
}

bool Orchestrator::trial_fit(const std::vector<PodId>& pods, Binding& bound) {
  const std::size_t mark = bound.size();
  for (PodId id : pods) {
    const cluster::NodeId node =
        select_node(record(id).status.spec, cluster_, nodes_, conditions_,
                    policy_);
    if (node == cluster::kInvalidNode) {
      for (std::size_t i = mark; i < bound.size(); ++i) {
        trial_unbind(bound[i].first, bound[i].second);
      }
      bound.resize(mark);
      return false;
    }
    trial_bind(id, node);
    bound.emplace_back(id, node);
  }
  return true;
}

util::TimeNs Orchestrator::estimated_end(const Gang& gang) const {
  const PodStatus& first = pods_.at(gang.members.front()).status;
  return gang.batch.walltime > 0 && first.phase == PodPhase::kRunning
             ? first.start_time + gang.batch.walltime
             : -1;
}

util::TimeNs Orchestrator::shadow_time(const std::vector<PodId>& head) {
  std::set<util::TimeNs> ends;  // ascending, -1 for a pending gang
  for (const auto& [id, gang] : gangs_) ends.insert(estimated_end(*gang));
  for (util::TimeNs end : ends) {
    if (end >= 0 && fits_at(head, end)) return end;
  }
  return -1;
}

bool Orchestrator::fits_at(const std::vector<PodId>& head,
                           util::TimeNs shadow) {
  Binding released, bound;
  for (const auto& [id, gang] : gangs_) {
    const util::TimeNs end = estimated_end(*gang);
    if (end < 0 || end > shadow) continue;
    for (PodId member : gang->members) {
      const PodStatus& status = pods_.at(member).status;
      if (status.phase != PodPhase::kRunning) continue;
      trial_unbind(member, status.node);
      released.emplace_back(member, status.node);
    }
  }
  const bool fits = trial_fit(head, bound);
  for (const auto& [id, node] : bound) trial_unbind(id, node);
  for (const auto& [member, node] : released) trial_bind(member, node);
  return fits;
}

bool Orchestrator::try_preempt_for(const PodRecord& rec) {
  const PodSpec& spec = rec.status.spec;
  // Priority preemption needs a positive priority; fair preemption needs
  // the pod's pool to sit below its fair share.
  const bool fair_mode = pool_tree_ != nullptr &&
                         config_.enable_fair_preemption &&
                         pool_tree_->schedule_key(spec.tenant) < 1.0;
  if (spec.priority <= 0 && !fair_mode) return false;
  // With fair preemption on, preemption only serves pools below their
  // fair share — a high-priority pod of an over-share pool evicting an
  // under-share pool's pods would just feed an eviction/re-eviction loop.
  if (pool_tree_ != nullptr && config_.enable_fair_preemption && !fair_mode) {
    return false;
  }

  // Find a node the pod may use where evicting the cheapest eligible set
  // of pods makes room; evict exactly that set.
  for (NodeStatus& node : nodes_) {
    if (!node.allocatable().fits(spec.request) ||
        !eligible(spec, cluster_.node(node.id()), node,
                  conditions_[node.id()])) {
      continue;
    }

    struct Candidate {
      int priority;
      double size;  // dominant share of the node (bigger evicts first)
      PodId id;
      bool lower_priority;
    };
    std::vector<Candidate> candidates;
    for (PodId pid : node.pods()) {
      const PodStatus& victim = pods_.at(pid).status;
      const bool lower = victim.spec.priority < spec.priority;
      // Fair mode additionally allows equal-or-lower-priority victims
      // from pools running over their fair share.
      const bool over_share = fair_mode &&
                              victim.spec.tenant != spec.tenant &&
                              victim.spec.priority <= spec.priority &&
                              pool_tree_->over_fair_share(victim.spec.tenant);
      if (!lower && !over_share) continue;
      candidates.push_back(
          {victim.spec.priority,
           victim.spec.request.dominant_share(node.allocatable()), pid,
           lower});
    }
    // Cheapest set: lowest priority first, then the biggest request
    // (fewest victims), then the newest pod (highest id) so long-running
    // work survives ties.
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.priority != b.priority) return a.priority < b.priority;
                if (a.size != b.size) return a.size > b.size;
                return a.id > b.id;
              });

    cluster::Resources free = node.free();
    std::vector<const Candidate*> chosen;
    std::map<std::string, int> group_evictions;
    std::map<std::string, cluster::Resources> tenant_released;
    for (const Candidate& cand : candidates) {
      if (free.fits(spec.request)) break;  // stop exactly when it fits
      const PodStatus& victim = pods_.at(cand.id).status;
      const std::string& group = victim.spec.budget_group;
      if (!disruption_allowed(group, group_evictions[group])) continue;
      if (!cand.lower_priority &&
          !pool_tree_->over_fair_share(victim.spec.tenant,
                                       tenant_released[victim.spec.tenant])) {
        continue;  // earlier picks already brought the pool to its share
      }
      free += victim.spec.request;
      if (!group.empty()) ++group_evictions[group];
      tenant_released[victim.spec.tenant] += victim.spec.request;
      chosen.push_back(&cand);
    }
    if (!free.fits(spec.request)) continue;

    // Drop victims that turned out to be unnecessary: smallest first,
    // keep every drop that still leaves room.
    std::sort(chosen.begin(), chosen.end(),
              [](const Candidate* a, const Candidate* b) {
                if (a->size != b->size) return a->size < b->size;
                return a->id < b->id;
              });
    std::vector<PodId> final_victims;
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      const cluster::Resources request = pods_.at(chosen[i]->id).status.spec.request;
      cluster::Resources without = free - request;
      if (without.fits(spec.request)) {
        free = without;  // unnecessary: keep it running
      } else {
        final_victims.push_back(chosen[i]->id);
      }
    }

    if (tracer_) {
      const trace::SpanId span =
          tracer_->begin(trace::Layer::kScheduler, "orch.preempt");
      tracer_->annotate(span, "pod",
                        spec.name.empty() ? std::to_string(rec.status.id)
                                          : spec.name);
      tracer_->annotate(span, "node", std::to_string(node.id()));
      tracer_->annotate(span, "victims",
                        std::to_string(final_victims.size()));
      tracer_->end(span);
    }
    for (PodId pid : final_victims) {
      note_eviction(pods_.at(pid).status.spec.budget_group);
      metrics_.count("preemptions");
      complete(pid, PodPhase::kFailed);
    }
    return true;
  }
  return false;
}

void Orchestrator::compact_queue() {
  // One O(n) rebuild per scheduling pass (placements used to erase the
  // queue per pod — O(n^2) under a large backlog). Relative order of the
  // still-pending pods is untouched.
  std::deque<PodId> pending;
  for (PodId id : queue_) {
    auto it = pods_.find(id);
    if (it != pods_.end() && it->second.status.phase == PodPhase::kPending) {
      pending.push_back(id);
    }
  }
  queue_.swap(pending);
}

void Orchestrator::schedule_now() {
  metrics_.count("scheduling_passes");
  // Snapshot and order the queue. Default: priority desc, then submit
  // order. With a pool tree: most-starved pool first (lowest usage/fair
  // ratio, snapshotted per pass), then priority, then submit order.
  std::vector<PodId> order(queue_.begin(), queue_.end());
  const auto by_priority = [this](PodId a, PodId b) {
    return record(a).status.spec.priority > record(b).status.spec.priority;
  };
  std::map<std::string, double> pool_key;
  if (pool_tree_) {
    pool_tree_->advance_time(sim_.now());
    pool_tree_->recompute();
    for (PodId id : order) {
      const std::string& tenant = record(id).status.spec.tenant;
      pool_key.emplace(tenant, pool_tree_->schedule_key(tenant));
    }
    std::stable_sort(order.begin(), order.end(), [&](PodId a, PodId b) {
      const PodSpec& sa = record(a).status.spec;
      const PodSpec& sb = record(b).status.spec;
      const double ka = pool_key.at(sa.tenant);
      const double kb = pool_key.at(sb.tenant);
      if (ka != kb) return ka < kb;
      return sa.priority > sb.priority;
    });
  } else {
    std::stable_sort(order.begin(), order.end(), by_priority);
  }

  std::set<GangId> gangs_tried;
  // Fair-share reservation: once a pod (or gang) of some pool fails to
  // place, pools that are better served must not leapfrog it and eat the
  // capacity it is waiting for — capacity freed by churn then drains
  // toward the starved pool across passes. Pools at the same or a more
  // starved key keep placing (work conservation within the share order).
  constexpr double kNoReservation = std::numeric_limits<double>::infinity();
  double blocked_key = kNoReservation;
  const auto key_of = [&](const PodSpec& spec) {
    if (!pool_tree_) return 0.0;
    auto it = pool_key.find(spec.tenant);
    return it == pool_key.end() ? 0.0 : it->second;
  };
  // EASY backfill: the first batch gang this pass cannot place reserves
  // its shadow time. A later pod or gang may start only if it ends by
  // the shadow (batch gangs, by their walltime) or the head still fits
  // at the shadow with it placed. No reservation: greedy placement.
  util::TimeNs shadow = -1;
  std::vector<PodId> reserved;  // the reserving gang, once one is found
  for (PodId id : order) {
    auto it = pods_.find(id);
    if (it == pods_.end()) continue;
    PodRecord& rec = it->second;
    if (rec.status.phase != PodPhase::kPending) continue;
    const double key = key_of(rec.status.spec);
    if (pool_tree_ && key > blocked_key) continue;  // reserved for a
                                                    // more starved pool

    if (rec.status.spec.gang != 0) {
      const GangId gang_id = rec.status.spec.gang;
      if (!gangs_tried.insert(gang_id).second) continue;
      const Gang& gang = *gangs_.at(gang_id);
      // Pending members in pass order (members share a tenant).
      std::vector<PodId> members;
      for (PodId member : gang.members) {
        if (record(member).status.phase == PodPhase::kPending) {
          members.push_back(member);
        }
      }
      std::stable_sort(members.begin(), members.end(), by_priority);
      const util::TimeNs walltime = gang.batch.walltime;
      Binding bound;
      const bool fits = trial_fit(members, bound);
      if (!fits) metrics_.count("gang_placement_failures");
      const bool placed =
          fits && (shadow < 0 ||
                   (walltime > 0 &&
                    sim_.now() + config_.bind_latency + walltime <= shadow) ||
                   fits_at(reserved, shadow));
      for (const auto& [pid, node] : bound) trial_unbind(pid, node);
      if (placed) {  // placed members leave the queue in compact_queue()
        for (const auto& [pid, node] : bound) place(record(pid), node);
        if (shadow >= 0) metrics_.count("backfills");
      } else {
        blocked_key = std::min(blocked_key, key);
        if (walltime > 0 && reserved.empty()) {
          shadow = shadow_time(members);
          reserved = members;
        }
      }
      continue;
    }

    cluster::NodeId node = select_node(rec.status.spec, cluster_, nodes_,
                                       conditions_, policy_);
    if (node == cluster::kInvalidNode && config_.enable_preemption &&
        shadow < 0 && try_preempt_for(rec)) {
      node = select_node(rec.status.spec, cluster_, nodes_, conditions_,
                         policy_);
    }
    if (node != cluster::kInvalidNode && shadow >= 0) {
      trial_bind(id, node);
      const bool spares_head = fits_at(reserved, shadow);
      trial_unbind(id, node);
      if (spares_head) {
        metrics_.count("backfills");
      } else {
        node = cluster::kInvalidNode;
      }
    }
    if (node == cluster::kInvalidNode) {
      blocked_key = std::min(blocked_key, key);
      continue;
    }
    place(rec, node);
  }
  compact_queue();
  metrics_.set_gauge("pending_pods", static_cast<double>(queue_.size()));
}

void Orchestrator::cordon(cluster::NodeId node) {
  status_for(node).cordoned = true;
  metrics_.count("cordons");
}

void Orchestrator::uncordon(cluster::NodeId node) {
  NodeStatus* status = find_status(node);
  if (!status || !status->cordoned) return;
  status->cordoned = false;
  kick_pump();
}

bool Orchestrator::is_cordoned(cluster::NodeId node) const {
  const NodeStatus* status = find_status(node);
  return status && status->cordoned;
}

void Orchestrator::evict_pods(cluster::NodeId node) {
  const std::set<PodId> victims = status_for(node).pods();
  for (PodId pod : victims) {
    metrics_.count("evictions");
    complete(pod, PodPhase::kFailed);
  }
}

void Orchestrator::drain(cluster::NodeId node) {
  cordon(node);
  evict_pods(node);
}

bool Orchestrator::manages(cluster::NodeId node) const {
  return node_index_.count(node) != 0;
}

void Orchestrator::on_condition(cluster::NodeId node,
                                const cluster::NodeCondition& before,
                                const cluster::NodeCondition& after) {
  NodeStatus* status = find_status(node);
  if (status == nullptr) return;  // managed by another orchestrator
  if (after.down != before.down) {
    if (after.down) {
      status->down_since = sim_.now();
      metrics_.count("node_failures");
      evict_pods(node);
    } else {
      metrics_.count("node_recoveries");
      metrics_.observe("node_downtime_ms",
                       (sim_.now() - status->down_since) / util::kMillisecond);
      kick_pump();
    }
  }
  if (after.quarantined != before.quarantined) {
    if (after.quarantined) {
      metrics_.count("quarantines");
    } else {
      kick_pump();
    }
  }
  if (after.unreachable != before.unreachable) {
    if (after.unreachable) {
      metrics_.count("node_unreachable");
    } else {
      metrics_.count("node_reconnects");
      kick_pump();
    }
  }
}

bool Orchestrator::is_ready(cluster::NodeId node) const {
  return !manages(node) || !conditions_[node].down;
}

bool Orchestrator::is_quarantined(cluster::NodeId node) const {
  return manages(node) && conditions_[node].quarantined;
}

bool Orchestrator::is_unreachable(cluster::NodeId node) const {
  return manages(node) && conditions_[node].unreachable;
}

void Orchestrator::expire_unreachable(cluster::NodeId node) {
  if (!is_unreachable(node)) return;
  metrics_.count("unreachable_evictions");
  evict_pods(node);
}

void Orchestrator::attach_pool_tree(PoolTree* tree) {
  pool_tree_ = tree;
  if (pool_tree_ && pool_tree_->capacity().is_zero()) {
    cluster::Resources capacity;
    for (const NodeStatus& node : nodes_) capacity += node.allocatable();
    pool_tree_->set_capacity(capacity);
  }
}

void Orchestrator::set_disruption_budget(const std::string& group,
                                         DisruptionBudget budget) {
  if (group.empty()) {
    throw std::invalid_argument("disruption budget needs a group name");
  }
  budgets_[group].budget = budget;
}

bool Orchestrator::disruption_allowed(const std::string& group,
                                      int tentative) const {
  if (group.empty()) return true;
  auto it = budgets_.find(group);
  if (it == budgets_.end()) return true;
  const BudgetState& state = it->second;
  const util::TimeNs cutoff = sim_.now() - state.budget.window;
  int recent = tentative;
  for (util::TimeNs t : state.recent) {
    if (t > cutoff) ++recent;
  }
  if (recent >= state.budget.max_evictions_per_window) return false;
  auto run = group_running_.find(group);
  const int running = run == group_running_.end() ? 0 : run->second;
  return running - tentative > state.budget.min_available;
}

bool Orchestrator::disruption_allowed(const std::string& group) const {
  return disruption_allowed(group, 0);
}

void Orchestrator::note_eviction(const std::string& group) {
  if (group.empty()) return;
  auto it = budgets_.find(group);
  if (it == budgets_.end()) return;
  BudgetState& state = it->second;
  state.recent.push_back(sim_.now());
  const util::TimeNs cutoff = sim_.now() - state.budget.window;
  while (!state.recent.empty() && state.recent.front() <= cutoff) {
    state.recent.pop_front();
  }
}

bool Orchestrator::evict_for_rebalance(PodId victim) {
  auto it = pods_.find(victim);
  if (it == pods_.end() || it->second.status.phase != PodPhase::kRunning) {
    return false;
  }
  const std::string& group = it->second.status.spec.budget_group;
  if (!disruption_allowed(group, 0)) return false;
  note_eviction(group);
  metrics_.count("rebalance_evictions");
  complete(victim, PodPhase::kFailed);
  return true;
}

std::vector<PodId> Orchestrator::pending_snapshot() const {
  return std::vector<PodId>(queue_.begin(), queue_.end());
}

std::vector<cluster::NodeId> Orchestrator::managed_nodes() const {
  std::vector<cluster::NodeId> nodes;
  nodes.reserve(node_index_.size());
  for (const auto& [id, index] : node_index_) nodes.push_back(id);
  return nodes;
}

cluster::NodeId Orchestrator::feasible_node_for(const PodSpec& spec,
                                                cluster::NodeId exclude) const {
  return select_node(spec, cluster_, nodes_, conditions_, policy_, exclude);
}

double Orchestrator::cpu_utilization() const {
  return cpu_usage_.utilization(sim_.now());
}

double Orchestrator::mean_cpu_millicores() const {
  return cpu_usage_.mean_usage(sim_.now());
}

double Orchestrator::memory_utilization() const {
  return mem_usage_.utilization(sim_.now());
}

void Orchestrator::shutdown() { shutdown_ = true; }

}  // namespace evolve::orch
