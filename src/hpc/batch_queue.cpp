#include "hpc/batch_queue.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/backoff.hpp"

namespace evolve::hpc {

BatchQueue::BatchQueue(sim::Simulation& sim, int total_nodes,
                       QueuePolicy policy, util::TimeNs aging_interval,
                       BatchFaultConfig fault)
    : sim_(sim),
      policy_(policy),
      aging_interval_(aging_interval),
      fault_(fault),
      usage_(static_cast<double>(total_nodes)) {
  if (total_nodes <= 0) {
    throw std::invalid_argument("batch queue needs nodes");
  }
  if (fault_.checkpoint_interval < 0 || fault_.restart_cost < 0) {
    throw std::invalid_argument("negative fault-config time");
  }
  for (int n = 0; n < total_nodes; ++n) free_.insert(n);
}

JobId BatchQueue::submit(HpcJobSpec spec, StartFn on_start,
                         FinishFn on_finish) {
  if (spec.nodes <= 0) throw std::invalid_argument("job needs >= 1 node");
  if (spec.nodes > static_cast<int>(usage_.capacity())) {
    throw std::invalid_argument("job larger than the machine");
  }
  if (spec.runtime < 0 || spec.walltime < 0) {
    throw std::invalid_argument("negative runtime");
  }
  for (JobId dep : spec.depends_on) {
    if (jobs_.count(dep) == 0) {
      throw std::invalid_argument("unknown dependency job id");
    }
  }
  if (spec.walltime < spec.runtime) spec.walltime = spec.runtime;
  const JobId id = next_id_++;
  JobRecord rec;
  rec.status.id = id;
  rec.status.spec = std::move(spec);
  rec.status.submit_time = sim_.now();
  rec.remaining = rec.status.spec.runtime;
  rec.on_start = std::move(on_start);
  rec.on_finish = std::move(on_finish);
  if (tracer_) {
    rec.trace_parent = tracer_->current();
    rec.wait_span = tracer_->begin(trace::Layer::kScheduler, "hpc.wait",
                                   rec.trace_parent);
    tracer_->annotate(rec.wait_span, "job", rec.status.spec.name);
    tracer_->annotate(rec.wait_span, "nodes",
                      std::to_string(rec.status.spec.nodes));
  }
  if (pool_tree_ != nullptr) {
    pool_tree_->add_demand(rec.status.spec.tenant,
                           job_resources(rec.status.spec));
  }
  jobs_.emplace(id, std::move(rec));
  queue_.push_back(id);
  metrics_.count("jobs_submitted");
  sim_.defer([this] { schedule_pass(); });
  return id;
}

const HpcJobStatus& BatchQueue::job(JobId id) const {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) throw std::out_of_range("unknown job");
  return it->second.status;
}

void BatchQueue::set_pool_tree(orch::PoolTree* tree,
                               cluster::Resources per_node) {
  pool_tree_ = tree;
  per_node_ = per_node;
}

cluster::Resources BatchQueue::job_resources(const HpcJobSpec& spec) const {
  cluster::Resources r = per_node_;
  r.cpu_millicores *= spec.nodes;
  r.memory_bytes *= spec.nodes;
  r.accel_slots *= spec.nodes;
  return r;
}

void BatchQueue::start_job(JobRecord& rec) {
  const int needed = rec.status.spec.nodes;
  rec.status.assigned_nodes.assign(free_.begin(),
                                   std::next(free_.begin(), needed));
  for (int node : rec.status.assigned_nodes) free_.erase(node);
  rec.status.started = true;
  rec.status.start_time = sim_.now();
  running_.insert(rec.status.id);
  usage_.add(sim_.now(), static_cast<double>(needed));
  if (pool_tree_ != nullptr) {
    const cluster::Resources r = job_resources(rec.status.spec);
    pool_tree_->remove_demand(rec.status.spec.tenant, r);
    pool_tree_->charge(rec.status.spec.tenant, r);
  }
  metrics_.count("jobs_started");
  metrics_.observe("job_wait_s",
                   (sim_.now() - rec.status.submit_time) / util::kSecond);
  if (tracer_) {
    tracer_->end(rec.wait_span);
    rec.run_span = tracer_->begin(trace::Layer::kHpc, "hpc.run",
                                  rec.trace_parent);
    tracer_->annotate(rec.run_span, "job", rec.status.spec.name);
    if (rec.status.restarts > 0) {
      tracer_->annotate(rec.run_span, "restart",
                        std::to_string(rec.status.restarts));
    }
  }
  const JobId id = rec.status.id;
  {
    // on_start launches the job body (e.g. run_mpi_program); parent its
    // spans under this incarnation's run span.
    trace::ScopedContext tctx(tracer_, rec.run_span);
    if (rec.on_start) rec.on_start(id, rec.status.assigned_nodes);
  }
  const std::int64_t incarnation = rec.incarnation;
  sim_.after(rec.remaining,
             [this, id, incarnation] { finish_job(id, incarnation); });
}

void BatchQueue::finish_job(JobId id, std::int64_t incarnation) {
  auto it = jobs_.find(id);
  if (it == jobs_.end() || it->second.status.finished) return;
  // A stale timer from an incarnation that was aborted by a node crash.
  if (it->second.incarnation != incarnation) return;
  JobRecord& rec = it->second;
  rec.status.finished = true;
  rec.status.finish_time = sim_.now();
  for (int node : rec.status.assigned_nodes) free_.insert(node);
  running_.erase(id);
  usage_.add(sim_.now(), -static_cast<double>(rec.status.spec.nodes));
  if (pool_tree_ != nullptr) {
    pool_tree_->release(rec.status.spec.tenant,
                        job_resources(rec.status.spec));
  }
  metrics_.count("jobs_finished");
  if (retry_budget_ != nullptr) retry_budget_->record_success();
  if (tracer_) tracer_->end(rec.run_span);
  if (rec.on_finish) rec.on_finish(id);
  schedule_pass();
}

util::TimeNs BatchQueue::shadow_time(int needed) const {
  // Sort running jobs by their estimated completion (start + walltime);
  // accumulate freed nodes until the head job fits.
  std::vector<std::pair<util::TimeNs, int>> completions;
  for (JobId id : running_) {
    const auto& status = jobs_.at(id).status;
    completions.emplace_back(status.start_time + status.spec.walltime,
                             status.spec.nodes);
  }
  std::sort(completions.begin(), completions.end());
  int available = static_cast<int>(free_.size());
  for (const auto& [when, nodes] : completions) {
    if (available >= needed) break;
    available += nodes;
    if (available >= needed) return when;
  }
  return sim_.now();  // fits now (or nothing running)
}

bool BatchQueue::dependencies_met(const JobRecord& rec) const {
  for (JobId dep : rec.status.spec.depends_on) {
    if (!jobs_.at(dep).status.finished) return false;
  }
  return true;
}

std::vector<JobId> BatchQueue::eligible_order() const {
  std::vector<JobId> order;
  order.reserve(queue_.size());
  for (JobId id : queue_) {
    const JobRecord& rec = jobs_.at(id);
    if (rec.hold_until > sim_.now()) continue;  // budget-denied hold
    if (dependencies_met(rec)) order.push_back(id);
  }
  auto effective = [this](JobId id) {
    const auto& status = jobs_.at(id).status;
    std::int64_t priority = status.spec.priority;
    if (aging_interval_ > 0) {
      priority += (sim_.now() - status.submit_time) / aging_interval_;
    }
    return priority;
  };
  if (pool_tree_ == nullptr) {
    std::stable_sort(order.begin(), order.end(), [&](JobId a, JobId b) {
      return effective(a) > effective(b);
    });
    return order;
  }
  // Gang admission respects pool share: jobs whose start would push
  // their pool past a limit drop out of this pass (they do not hold up
  // other tenants), and the rest order by how under-served their pool
  // is right now.
  std::erase_if(order, [&](JobId id) {
    const HpcJobSpec& spec = jobs_.at(id).status.spec;
    return !pool_tree_->within_limit(spec.tenant, job_resources(spec));
  });
  pool_tree_->recompute();
  std::map<std::string, double> keys;
  for (JobId id : order) {
    const std::string& tenant = jobs_.at(id).status.spec.tenant;
    if (keys.count(tenant) == 0) {
      keys.emplace(tenant, pool_tree_->schedule_key(tenant));
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    const double ka = keys.at(jobs_.at(a).status.spec.tenant);
    const double kb = keys.at(jobs_.at(b).status.spec.tenant);
    if (ka != kb) return ka < kb;
    return effective(a) > effective(b);
  });
  return order;
}

void BatchQueue::schedule_pass() {
  bool progress = true;
  while (progress) {
    progress = false;
    const std::vector<JobId> order = eligible_order();
    if (order.empty()) break;

    // Head job starts whenever it fits.
    const JobId head = order.front();
    JobRecord& head_rec = jobs_.at(head);
    if (head_rec.status.spec.nodes <= static_cast<int>(free_.size())) {
      queue_.erase(std::remove(queue_.begin(), queue_.end(), head),
                   queue_.end());
      start_job(head_rec);
      progress = true;
      continue;
    }
    if (policy_ == QueuePolicy::kFcfs) break;

    // EASY backfill: a later job may start now iff it fits AND it does
    // not delay the head job's reservation — either it ends before the
    // head's shadow time, or it leaves enough nodes at the shadow.
    const util::TimeNs shadow = shadow_time(head_rec.status.spec.nodes);
    int freed_by_shadow = 0;
    for (JobId rid : running_) {
      const auto& status = jobs_.at(rid).status;
      if (status.start_time + status.spec.walltime <= shadow) {
        freed_by_shadow += status.spec.nodes;
      }
    }
    for (std::size_t i = 1; i < order.size(); ++i) {
      JobRecord& cand = jobs_.at(order[i]);
      const int nodes = cand.status.spec.nodes;
      if (nodes > static_cast<int>(free_.size())) continue;
      const bool ends_before_shadow =
          sim_.now() + cand.status.spec.walltime <= shadow;
      const bool spares_reservation =
          static_cast<int>(free_.size()) - nodes + freed_by_shadow >=
          head_rec.status.spec.nodes;
      if (!ends_before_shadow && !spares_reservation) continue;
      const JobId cid = order[i];
      queue_.erase(std::remove(queue_.begin(), queue_.end(), cid),
                   queue_.end());
      start_job(jobs_.at(cid));
      metrics_.count("backfilled_jobs");
      progress = true;
      break;  // restart the scan: free set changed
    }
  }
  metrics_.set_gauge("queued_jobs", static_cast<double>(queue_.size()));
}

void BatchQueue::handle_node_failure(int node) {
  if (node < 0 || node >= static_cast<int>(usage_.capacity())) return;
  if (!down_.insert(node).second) return;
  free_.erase(node);
  metrics_.count("node_failures");

  // Exclusive allocation: at most one running job touches the node.
  JobId victim = kInvalidJob;
  for (JobId id : running_) {
    const auto& assigned = jobs_.at(id).status.assigned_nodes;
    if (std::find(assigned.begin(), assigned.end(), node) != assigned.end()) {
      victim = id;
      break;
    }
  }
  if (victim == kInvalidJob) return;  // the node was idle

  JobRecord& rec = jobs_.at(victim);
  ++rec.incarnation;  // disarm the in-flight finish timer
  const util::TimeNs elapsed = sim_.now() - rec.status.start_time;
  util::TimeNs checkpointed = 0;
  if (fault_.checkpoint_interval > 0) {
    checkpointed =
        (elapsed / fault_.checkpoint_interval) * fault_.checkpoint_interval;
    checkpointed = std::min(checkpointed, rec.remaining);
  }
  // Gang abort: surviving members stop too; their nodes free up.
  for (int n : rec.status.assigned_nodes) {
    if (down_.count(n) == 0) free_.insert(n);
  }
  running_.erase(victim);
  usage_.add(sim_.now(), -static_cast<double>(rec.status.spec.nodes));
  if (pool_tree_ != nullptr) {
    // The aborted job stops charging its pool and becomes demand again.
    const cluster::Resources r = job_resources(rec.status.spec);
    pool_tree_->release(rec.status.spec.tenant, r);
    pool_tree_->add_demand(rec.status.spec.tenant, r);
  }
  rec.status.started = false;
  rec.status.start_time = -1;
  rec.status.assigned_nodes.clear();
  ++rec.status.restarts;
  rec.remaining = rec.remaining - checkpointed + fault_.restart_cost;
  if (tracer_) {
    if (rec.run_span != trace::kNoSpan) {
      tracer_->annotate(rec.run_span, "outcome", "gang_abort");
    }
    tracer_->end(rec.run_span);
    // New incarnation: queue-wait span for the requeued job.
    rec.wait_span = tracer_->begin(trace::Layer::kScheduler, "hpc.requeue",
                                   rec.trace_parent);
    tracer_->annotate(rec.wait_span, "job", rec.status.spec.name);
  }
  if (retry_budget_ != nullptr && !retry_budget_->try_retry()) {
    // Budget drained: hold the requeued job out of scheduling for a
    // backoff that saturates in its restart count — a mass gang-abort
    // then trickles back into the machine instead of stampeding it.
    const util::TimeNs hold =
        util::saturating_backoff(denied_hold_, rec.status.restarts);
    rec.hold_until = sim_.now() + hold;
    metrics_.count("requeues_held");
    sim_.after(hold, [this] { schedule_pass(); });
  }
  queue_.push_front(victim);  // restarts take queue priority
  metrics_.count("gang_aborts");
  metrics_.count("jobs_restarted");
  metrics_.observe("work_lost_ms",
                   (elapsed - checkpointed) / util::kMillisecond);
  schedule_pass();
}

void BatchQueue::handle_node_recovery(int node) {
  if (down_.erase(node) == 0) return;
  free_.insert(node);
  metrics_.count("node_recoveries");
  schedule_pass();
}

double BatchQueue::utilization() const { return usage_.utilization(sim_.now()); }

}  // namespace evolve::hpc
