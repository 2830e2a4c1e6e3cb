#include "dataflow/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>

#include "util/backoff.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace evolve::dataflow {
namespace {

constexpr util::TimeNs kTaskLaunchOverhead = util::millis(4);
/// Device that map outputs spill to and shuffle reads come from.
const std::string kShuffleDevice = "nvme";

}  // namespace

struct DataflowEngine::RunState {
  PhysicalPlan plan;
  TaskScheduler scheduler;
  ShuffleManager shuffle;
  JobStats stats;
  util::TimeNs start_time = 0;
  Callback on_done;
  util::Rng rng;

  struct StageRun {
    int num_tasks = 0;
    int done_tasks = 0;
    int pending_parents = 0;
    int children_remaining = 0;  // for shuffle-output release
    bool finished_once = false;  // children already started / released
    std::vector<util::TimeNs> durations;  // completed task durations
    StageStats stats;
    trace::SpanId span = trace::kNoSpan;
  };
  std::vector<StageRun> stage_runs;
  std::vector<std::vector<int>> children;

  /// One logical task; may have several racing copies (speculation).
  struct TaskDef {
    int stage = -1;
    int index = -1;
    bool winner_decided = false;  // a copy finished its compute phase
    bool completed = false;       // winner finished its output phase
    bool speculated = false;      // a backup copy was launched
    bool retry_pending = false;   // a fault-driven re-enqueue is armed
    int copies_running = 0;
    int fault_retries = 0;        // re-executions consumed by failures
    util::TimeNs first_start = -1;
    util::TimeNs killed_at = -1;  // when the task was last lost
    TaskId winner_copy = -1;      // which copy won the compute race
    std::vector<cluster::NodeId> preferred;
  };
  /// Where each in-flight copy runs. A copy's continuations stay valid
  /// exactly while its entry exists: killing a copy erases it, so late
  /// io/fabric/timer callbacks become no-ops.
  struct CopyState {
    int executor = -1;
    cluster::NodeId node = cluster::kInvalidNode;
    util::TimeNs started = 0;  // service-time clock for health scoring
    trace::SpanId span = trace::kNoSpan;
  };
  std::map<TaskId, TaskDef> tasks;       // logical task id -> state
  std::map<TaskId, TaskId> copy_owner;   // scheduler copy id -> task id
  std::map<TaskId, CopyState> running_copies;
  std::vector<std::vector<TaskId>> stage_task_ids;  // stage -> index -> id
  TaskId next_id = 1;
  int stages_done = 0;
  bool expiry_armed = false;
  bool aborted = false;        // fail_job ran; drop all in-flight work
  bool done_reported = false;  // on_done already called
  trace::SpanId job_span = trace::kNoSpan;

  RunState(PhysicalPlan physical, util::TimeNs locality_wait,
           const cluster::NodeConditions& conditions, std::uint64_t seed,
           Callback cb)
      : plan(std::move(physical)),
        scheduler(locality_wait, &conditions),
        on_done(std::move(cb)),
        rng(seed) {}

  TaskId new_copy_of(TaskId task) {
    const TaskId copy = next_id++;
    copy_owner[copy] = task;
    return copy;
  }
};

DataflowEngine::DataflowEngine(sim::Simulation& sim,
                               const cluster::Cluster& cluster,
                               net::Fabric& fabric, storage::IoSubsystem& io,
                               storage::DatasetCatalog& catalog,
                               DataflowConfig config)
    : sim_(sim),
      cluster_(cluster),
      fabric_(fabric),
      io_(io),
      catalog_(catalog),
      config_(config),
      conditions_([this](cluster::NodeId node,
                         const cluster::NodeCondition& before,
                         const cluster::NodeCondition& after) {
        on_condition(node, before, after);
      }) {
  if (config_.straggler_probability < 0 || config_.straggler_probability > 1) {
    throw std::invalid_argument("straggler_probability must be in [0, 1]");
  }
  if (config_.straggler_slowdown < 1) {
    throw std::invalid_argument("straggler_slowdown must be >= 1");
  }
  if (config_.speculation_multiplier <= 1.0) {
    throw std::invalid_argument("speculation_multiplier must be > 1");
  }
  if (config_.max_task_retries < 0) {
    throw std::invalid_argument("max_task_retries must be >= 0");
  }
  if (config_.retry_backoff <= 0) {
    throw std::invalid_argument("retry_backoff must be > 0");
  }
}

void DataflowEngine::run(const LogicalPlan& plan,
                         const std::vector<ExecutorSpec>& executors,
                         Callback on_done) {
  if (executors.empty()) {
    throw std::invalid_argument("dataflow job needs executors");
  }
  auto run = std::make_shared<RunState>(
      PhysicalPlan::compile(plan), config_.locality_wait, conditions_,
      config_.straggler_seed, std::move(on_done));
  run->start_time = sim_.now();
  for (const ExecutorSpec& exec : executors) {
    if (exec.node < 0 || exec.node >= cluster_.size()) {
      throw std::invalid_argument("executor on unknown node");
    }
    run->scheduler.add_executor(exec.node, exec.slots);
  }

  run->children = run->plan.children();
  run->stage_runs.resize(static_cast<std::size_t>(run->plan.size()));
  run->stage_task_ids.resize(static_cast<std::size_t>(run->plan.size()));
  for (const StageDef& stage : run->plan.stages()) {
    auto& sr = run->stage_runs[static_cast<std::size_t>(stage.id)];
    sr.pending_parents = static_cast<int>(stage.parents.size());
    sr.children_remaining = static_cast<int>(
        run->children[static_cast<std::size_t>(stage.id)].size());
    sr.stats.id = stage.id;
    if (stage.reads_source()) {
      if (!catalog_.defined(stage.source_dataset) ||
          !catalog_.materialized(stage.source_dataset)) {
        throw std::invalid_argument("source dataset not materialized: " +
                                    stage.source_dataset);
      }
    }
    if (stage.writes_sink()) {
      catalog_.store().create_bucket(stage.sink_dataset);
    }
  }
  metrics_.count("jobs_started");
  prune_runs();
  runs_.push_back(run);
  if (tracer_) {
    // Parented by the caller's context (e.g. a workflow step span).
    run->job_span = tracer_->begin(trace::Layer::kDataflow, "df.job");
    tracer_->set_job(run->job_span, next_trace_job_++);
    tracer_->annotate(run->job_span, "stages",
                      std::to_string(run->plan.size()));
  }
  for (const StageDef& stage : run->plan.stages()) {
    if (stage.parents.empty()) start_stage(run, stage.id);
  }
}

void DataflowEngine::start_stage(std::shared_ptr<RunState> run,
                                 int stage_id) {
  const StageDef& def = run->plan.stage(stage_id);
  auto& sr = run->stage_runs[static_cast<std::size_t>(stage_id)];
  sr.stats.start_time = sim_.now();
  if (tracer_) {
    sr.span =
        tracer_->begin(trace::Layer::kDataflow, "df.stage", run->job_span);
    tracer_->annotate(sr.span, "stage", std::to_string(stage_id));
  }

  if (def.reads_source()) {
    sr.num_tasks = catalog_.spec(def.source_dataset).partitions;
  } else {
    sr.num_tasks = def.requested_partitions > 0 ? def.requested_partitions
                                                : kDefaultParallelism;
  }
  sr.stats.tasks = sr.num_tasks;
  run->stats.tasks += sr.num_tasks;

  auto& ids = run->stage_task_ids[static_cast<std::size_t>(stage_id)];
  for (int i = 0; i < sr.num_tasks; ++i) {
    const TaskId id = run->next_id++;
    RunState::TaskDef task;
    task.stage = stage_id;
    task.index = i;
    if (def.reads_source()) {
      const auto key =
          storage::partition_key(catalog_.spec(def.source_dataset), i);
      task.preferred = catalog_.store().locate(key);
    }
    run->copy_owner[id] = id;  // the original copy is its own task
    ids.push_back(id);
    auto preferred = task.preferred;
    run->tasks.emplace(id, std::move(task));
    run->scheduler.enqueue(id, std::move(preferred), sim_.now());
  }
  pump_tasks(run);
}

void DataflowEngine::pump_tasks(std::shared_ptr<RunState> run) {
  if (run->aborted) return;
  const auto assignments = run->scheduler.assign(sim_.now());
  for (const Assignment& a : assignments) {
    execute_copy(run, a.task, a.executor, a.local);
  }
  // Delay scheduling: if tasks are holding out for locality while slots
  // are free, revisit when the earliest wait expires.
  if (!run->expiry_armed && run->scheduler.pending() > 0 &&
      run->scheduler.free_slots() > 0) {
    const util::TimeNs expiry = run->scheduler.next_expiry();
    if (expiry >= 0) {
      run->expiry_armed = true;
      const util::TimeNs delay =
          expiry > sim_.now() ? expiry - sim_.now() : 0;
      sim_.after(delay, [this, run] {
        run->expiry_armed = false;
        pump_tasks(run);
      });
    }
  }
}

void DataflowEngine::release_copy(std::shared_ptr<RunState> run,
                                  int executor) {
  run->scheduler.release(executor);
  pump_tasks(run);
}

void DataflowEngine::execute_copy(std::shared_ptr<RunState> run, TaskId copy,
                                  int executor, bool local) {
  if (run->aborted) return;
  const TaskId task_id = run->copy_owner.at(copy);
  RunState::TaskDef& task = run->tasks.at(task_id);
  const bool is_backup = (copy != task_id);
  const int stage_id = task.stage;
  const int index = task.index;
  const StageDef& def = run->plan.stage(stage_id);
  auto& sr = run->stage_runs[static_cast<std::size_t>(stage_id)];

  // The race may already be over by the time a backup gets a slot.
  if (task.winner_decided || task.completed) {
    release_copy(run, executor);
    return;
  }
  ++task.copies_running;
  if (task.first_start < 0) task.first_start = sim_.now();
  if (local && !is_backup) {
    ++sr.stats.local_tasks;
    ++run->stats.local_tasks;
  }
  const cluster::NodeId node = run->scheduler.executor_node(executor);
  trace::SpanId copy_span = trace::kNoSpan;
  if (tracer_) {
    copy_span = tracer_->begin(trace::Layer::kDataflow, "df.task", sr.span);
    tracer_->set_task(copy_span, index);
    tracer_->annotate(copy_span, "node", std::to_string(node));
    if (is_backup) tracer_->annotate(copy_span, "backup", "1");
    if (task.fault_retries > 0) {
      tracer_->annotate(copy_span, "attempt",
                        std::to_string(task.fault_retries));
    }
  }
  run->running_copies[copy] =
      RunState::CopyState{executor, node, sim_.now(), copy_span};
  if (task.killed_at >= 0) {
    metrics_.observe("reschedule_latency_ms",
                     (sim_.now() - task.killed_at) / util::kMillisecond);
    task.killed_at = -1;
  }

  // Phases 3+4 (compute then output), once input has landed.
  auto compute_and_output = [this, run, task_id, copy, copy_span, executor,
                             stage_id, index, node, is_backup, &def,
                             &sr](util::Bytes input_bytes) {
    if (run->running_copies.count(copy) == 0) return;  // killed mid-input
    sr.stats.input_bytes += input_bytes;
    const double speed =
        cluster_.node(node).core_speed / conditions_[node].cpu_slowdown;
    double compute_ns =
        static_cast<double>(input_bytes) * def.cpu_ns_per_byte / speed;
    if (config_.straggler_probability > 0 &&
        run->rng.chance(config_.straggler_probability)) {
      compute_ns *= config_.straggler_slowdown;
      ++run->stats.stragglers_injected;
      metrics_.count("stragglers_injected");
    }
    const trace::SpanId compute_span = trace::begin_span(
        tracer_, trace::Layer::kDataflow, "df.compute", copy_span);
    sim_.after(static_cast<util::TimeNs>(std::ceil(compute_ns)), [this, run,
                                                                  task_id,
                                                                  copy,
                                                                  copy_span,
                                                                  compute_span,
                                                                  executor,
                                                                  stage_id,
                                                                  index, node,
                                                                  is_backup,
                                                                  &def, &sr,
                                                                  input_bytes] {
      trace::end_span(tracer_, compute_span);
      auto it = run->running_copies.find(copy);
      if (it == run->running_copies.end()) return;  // killed mid-compute
      // Every finished compute is a health sample for its node — losers
      // included (slow copies are exactly the interesting signal).
      if (task_observer_) task_observer_(node, sim_.now() - it->second.started);
      RunState::TaskDef& task = run->tasks.at(task_id);
      if (task.winner_decided) {
        // Lost the race: the work is discarded.
        if (tracer_) tracer_->annotate(copy_span, "outcome", "lost_race");
        trace::end_span(tracer_, copy_span);
        run->running_copies.erase(it);
        --task.copies_running;
        metrics_.count("speculative_losses");
        release_copy(run, executor);
        return;
      }
      task.winner_decided = true;
      task.winner_copy = copy;
      if (is_backup) {
        ++run->stats.speculative_wins;
        metrics_.count("speculative_wins");
      }
      const auto output = static_cast<util::Bytes>(std::llround(
          static_cast<double>(input_bytes) * def.output_ratio));
      sr.stats.output_bytes += output;
      auto complete = [this, run, task_id, copy, copy_span, executor] {
        auto it = run->running_copies.find(copy);
        if (it == run->running_copies.end()) return;  // killed mid-output
        trace::end_span(tracer_, copy_span);
        run->running_copies.erase(it);
        RunState::TaskDef& task = run->tasks.at(task_id);
        --task.copies_running;
        task.completed = true;
        task_won(run, task_id);
        release_copy(run, executor);
      };
      if (def.writes_sink()) {
        run->stats.bytes_written += output;
        char name[32];
        std::snprintf(name, sizeof(name), "part-%05d", index);
        // The store's put span parents under this copy's span.
        trace::ScopedContext tctx(tracer_, copy_span);
        catalog_.store().put(node, {def.sink_dataset, name}, output,
                             std::move(complete));
      } else {
        run->shuffle.register_output(stage_id, index, node, output);
        const trace::SpanId spill_span = trace::begin_span(
            tracer_, trace::Layer::kShuffle, "df.spill", copy_span);
        io_.device(node, kShuffleDevice)
            .submit(storage::IoKind::kWrite, output,
                    [this, spill_span, complete = std::move(complete)] {
                      trace::end_span(tracer_, spill_span);
                      complete();
                    });
      }
    });
  };

  sim_.after(kTaskLaunchOverhead, [this, run, task_id, copy, copy_span,
                                   executor, node, stage_id, index, &def,
                                   compute_and_output] {
    if (run->running_copies.count(copy) == 0) return;  // killed on launch
    if (def.reads_source()) {
      const auto key =
          storage::partition_key(catalog_.spec(def.source_dataset), index);
      // The store's get span parents under this copy's span.
      trace::ScopedContext tctx(tracer_, copy_span);
      catalog_.store().get(
          node, key,
          [this, run, task_id, copy, copy_span, executor,
           compute_and_output](const storage::GetResult& result) {
            if (run->running_copies.count(copy) == 0) return;
            if (!result.found) {
              // Source partition unreadable (all replicas down). Back
              // off on the task's fault budget; the store may repair
              // the partition before the budget runs out.
              if (tracer_) {
                tracer_->annotate(copy_span, "outcome", "read_failure");
              }
              trace::end_span(tracer_, copy_span);
              run->running_copies.erase(copy);
              RunState::TaskDef& task = run->tasks.at(task_id);
              --task.copies_running;
              if (task.winner_copy == copy) {
                task.winner_decided = false;
                task.winner_copy = -1;
              }
              task.killed_at = sim_.now();
              metrics_.count("source_read_failures");
              retry_task(run, task_id);
              if (!run->aborted) release_copy(run, executor);
              return;
            }
            run->stats.bytes_read += result.size;
            compute_and_output(result.size);
          });
      return;
    }
    // Shuffle read: pull this reducer's share of every parent map output.
    const auto& sr = run->stage_runs[static_cast<std::size_t>(stage_id)];
    bool parents_ready = true;
    for (int parent : def.parents) {
      const auto& pr = run->stage_runs[static_cast<std::size_t>(parent)];
      if (!run->shuffle.complete(parent, pr.num_tasks)) {
        parents_ready = false;
        break;
      }
    }
    if (!parents_ready) {
      // A parent map output is being rebuilt after a node crash. Park
      // this copy and retry later without consuming the fault budget.
      if (tracer_) tracer_->annotate(copy_span, "outcome", "parked");
      trace::end_span(tracer_, copy_span);
      run->running_copies.erase(copy);
      RunState::TaskDef& task = run->tasks.at(task_id);
      --task.copies_running;
      metrics_.count("reducer_input_waits");
      sim_.after(config_.retry_backoff, [this, run, copy] {
        if (run->aborted) return;
        const TaskId task_id = run->copy_owner.at(copy);
        RunState::TaskDef& task = run->tasks.at(task_id);
        if (task.completed || task.winner_decided || task.copies_running > 0) {
          return;
        }
        run->scheduler.enqueue(copy, task.preferred, sim_.now());
        pump_tasks(run);
      });
      release_copy(run, executor);
      return;
    }
    std::vector<FetchSource> plan;
    for (int parent : def.parents) {
      const auto part = run->shuffle.fetch_plan(parent, index, sr.num_tasks);
      plan.insert(plan.end(), part.begin(), part.end());
    }
    util::Bytes total = 0;
    for (const FetchSource& src : plan) total += src.bytes;
    run->stats.bytes_shuffled += total;
    if (plan.empty()) {
      compute_and_output(0);
      return;
    }
    const trace::SpanId fetch_span = trace::begin_span(
        tracer_, trace::Layer::kShuffle, "df.fetch", copy_span);
    if (fetch_span != trace::kNoSpan) {
      tracer_->annotate(fetch_span, "bytes", std::to_string(total));
      tracer_->annotate(fetch_span, "sources", std::to_string(plan.size()));
    }
    auto remaining = std::make_shared<int>(static_cast<int>(plan.size()));
    for (const FetchSource& src : plan) {
      // Map-side disk read, then the network hop to this executor.
      io_.device(src.node, kShuffleDevice)
          .submit(storage::IoKind::kRead, src.bytes,
                  [this, run, src, node, remaining, total, fetch_span,
                   compute_and_output] {
                    // The fabric's transfer span parents under the fetch.
                    trace::ScopedContext tctx(tracer_, fetch_span);
                    fabric_.transfer(src.node, node, src.bytes,
                                     [this, remaining, total, fetch_span,
                                      compute_and_output] {
                                       if (--*remaining == 0) {
                                         trace::end_span(tracer_, fetch_span);
                                         compute_and_output(total);
                                       }
                                     });
                  });
    }
  });
}

void DataflowEngine::task_won(std::shared_ptr<RunState> run, TaskId task_id) {
  RunState::TaskDef& task = run->tasks.at(task_id);
  auto& sr = run->stage_runs[static_cast<std::size_t>(task.stage)];
  sr.durations.push_back(sim_.now() - task.first_start);
  metrics_.count("tasks_completed");
  if (retry_budget_ != nullptr) retry_budget_->record_success();
  if (++sr.done_tasks >= sr.num_tasks) {
    finish_stage(run, task.stage);
    return;
  }
  maybe_speculate(run, task.stage);
}

void DataflowEngine::maybe_speculate(std::shared_ptr<RunState> run,
                                     int stage_id) {
  if (!config_.speculation) return;
  auto& sr = run->stage_runs[static_cast<std::size_t>(stage_id)];
  if (sr.done_tasks <
      static_cast<int>(config_.speculation_quantile * sr.num_tasks)) {
    return;
  }
  std::vector<util::TimeNs> sorted = sr.durations;
  std::sort(sorted.begin(), sorted.end());
  const util::TimeNs median = sorted[sorted.size() / 2];
  const auto threshold = static_cast<util::TimeNs>(
      config_.speculation_multiplier * static_cast<double>(median));

  for (auto& [id, task] : run->tasks) {
    if (task.stage != stage_id || task.winner_decided || task.speculated) {
      continue;
    }
    if (task.first_start < 0) continue;  // still queued: nothing to race
    if (sim_.now() - task.first_start <= threshold) continue;
    task.speculated = true;
    ++run->stats.speculative_launched;
    metrics_.count("speculative_launched");
    const TaskId backup = run->new_copy_of(id);
    run->scheduler.enqueue(backup, task.preferred, sim_.now());
  }
  pump_tasks(run);
}

void DataflowEngine::retry_task(std::shared_ptr<RunState> run,
                                TaskId task_id) {
  RunState::TaskDef& task = run->tasks.at(task_id);
  // A surviving copy (e.g. a speculative backup on a live node) is still
  // racing; it will finish the task without a re-enqueue.
  if (task.copies_running > 0 || task.retry_pending) return;
  if (!config_.fault_recovery ||
      task.fault_retries >= config_.max_task_retries) {
    fail_job(run);
    return;
  }
  if (retry_budget_ != nullptr && !retry_budget_->try_retry()) {
    // Budget empty: the cluster is failing faster than it is succeeding,
    // so another retry would only feed the storm. Defer WITHOUT
    // consuming a retry attempt; the probe re-enters retry_task and
    // proceeds once real completions have refilled the bucket.
    metrics_.count("task_retries_deferred");
    task.retry_pending = true;
    util::TimeNs delay = 4 * config_.retry_backoff;
    delay += static_cast<util::TimeNs>(run->rng.uniform(0.0, 0.25) *
                                       static_cast<double>(delay));
    sim_.after(delay, [this, run, task_id] {
      RunState::TaskDef& task = run->tasks.at(task_id);
      task.retry_pending = false;
      if (run->aborted) return;
      if (task.completed || task.winner_decided || task.copies_running > 0) {
        return;
      }
      retry_task(run, task_id);
    });
    return;
  }
  ++task.fault_retries;
  ++run->stats.task_retries;
  metrics_.count("task_retries");
  task.winner_decided = false;
  task.winner_copy = -1;
  task.speculated = false;
  task.first_start = -1;
  task.retry_pending = true;
  // Exponential backoff with seeded jitter: 1x, 2x, 4x, ... of the base,
  // each stretched by up to +25% so synchronized losses fan back out.
  // Saturates rather than shifting past 63 bits (signed-shift UB that
  // wraps to a delay in the past).
  util::TimeNs delay =
      util::saturating_backoff(config_.retry_backoff, task.fault_retries);
  delay += static_cast<util::TimeNs>(run->rng.uniform(0.0, 0.25) *
                                     static_cast<double>(delay));
  trace::SpanId retry_span = trace::kNoSpan;
  if (tracer_) {
    retry_span = tracer_->begin(
        trace::Layer::kScheduler, "df.retry_wait",
        run->stage_runs[static_cast<std::size_t>(task.stage)].span);
    tracer_->set_task(retry_span, task.index);
    tracer_->annotate(retry_span, "attempt",
                      std::to_string(task.fault_retries));
  }
  sim_.after(delay, [this, run, task_id, retry_span] {
    trace::end_span(tracer_, retry_span);
    RunState::TaskDef& task = run->tasks.at(task_id);
    task.retry_pending = false;
    if (run->aborted) return;
    if (task.completed || task.winner_decided || task.copies_running > 0) {
      return;
    }
    run->scheduler.enqueue(task_id, task.preferred, sim_.now());
    pump_tasks(run);
  });
}

void DataflowEngine::fail_job(std::shared_ptr<RunState> run) {
  if (run->done_reported) return;
  run->aborted = true;
  run->done_reported = true;
  run->stats.failed = true;
  run->stats.duration = sim_.now() - run->start_time;
  for (const auto& stage_run : run->stage_runs) {
    run->stats.stages.push_back(stage_run.stats);
  }
  metrics_.count("jobs_failed");
  if (tracer_) {
    for (const auto& [copy, cs] : run->running_copies) {
      tracer_->annotate(cs.span, "outcome", "job_failed");
      tracer_->end(cs.span);
    }
    for (const auto& stage_run : run->stage_runs) {
      tracer_->end(stage_run.span);  // idempotent; unstarted stages are
    }                                // kNoSpan and ignored
    tracer_->annotate(run->job_span, "outcome", "failed");
    tracer_->end(run->job_span);
  }
  // Invalidate every in-flight continuation in one sweep.
  run->running_copies.clear();
  if (run->on_done) run->on_done(run->stats);
}

void DataflowEngine::on_condition(cluster::NodeId node,
                                  const cluster::NodeCondition& before,
                                  const cluster::NodeCondition& after) {
  const bool was_available = !before.down && !before.quarantined;
  if (after.down && !before.down) {
    handle_node_failure(node, was_available);
    return;
  }
  const bool recovered = before.down && !after.down;
  const bool quarantined = after.quarantined && !before.quarantined;
  const bool released = before.quarantined && !after.quarantined;
  if (!recovered && !quarantined && !released) return;
  // Every live job re-reads the node; a recovered or released node
  // gets its slots back and the jobs re-pump.
  for (const auto& weak : runs_) {
    auto run = weak.lock();
    if (!run || run->done_reported) continue;
    run->scheduler.node_changed(node, was_available);
    if (!quarantined) pump_tasks(run);
  }
  prune_runs();
  // The slow node keeps its running copies (drain), but backups race
  // them on healthy nodes so stragglers stop gating stages.
  if (quarantined) speculate_on_node(node);
}

void DataflowEngine::handle_node_failure(cluster::NodeId node,
                                         bool was_available) {
  for (const auto& weak : runs_) {
    auto run = weak.lock();
    if (!run || run->done_reported) continue;
    run->scheduler.node_changed(node, was_available);
    // 1. Kill running copies placed on the dead node.
    std::vector<TaskId> killed;
    for (const auto& [copy, cs] : run->running_copies) {
      if (cs.node == node) killed.push_back(copy);
    }
    for (TaskId copy : killed) {
      const RunState::CopyState cs = run->running_copies.at(copy);
      if (tracer_) {
        tracer_->annotate(cs.span, "outcome", "node_failure");
        tracer_->end(cs.span);
      }
      run->running_copies.erase(copy);
      const TaskId task_id = run->copy_owner.at(copy);
      RunState::TaskDef& task = run->tasks.at(task_id);
      --task.copies_running;
      if (task.winner_copy == copy) {
        task.winner_decided = false;
        task.winner_copy = -1;
      }
      task.killed_at = sim_.now();
      ++run->stats.tasks_killed;
      metrics_.count("tasks_killed");
      // Dead-aware release: the slot is parked until the node revives.
      run->scheduler.release(cs.executor);
      retry_task(run, task_id);
      if (run->aborted) break;
    }
    if (run->aborted) continue;
    // 2. Lost shuffle map outputs force re-execution of completed tasks.
    const auto lost = run->shuffle.drop_outputs_on(node);
    for (const auto& [stage, index] : lost) {
      const TaskId task_id =
          run->stage_task_ids[static_cast<std::size_t>(stage)]
                             [static_cast<std::size_t>(index)];
      RunState::TaskDef& task = run->tasks.at(task_id);
      ++run->stats.map_outputs_lost;
      metrics_.count("map_outputs_lost");
      // A not-yet-completed owner was handled by the kill sweep above
      // (its copy ran on the dead node), or a surviving copy will
      // re-register the output when it wins.
      if (!task.completed) continue;
      task.completed = false;
      task.winner_decided = false;
      task.winner_copy = -1;
      task.killed_at = sim_.now();
      --run->stage_runs[static_cast<std::size_t>(task.stage)].done_tasks;
      ++run->stats.tasks_reexecuted;
      metrics_.count("tasks_reexecuted");
      retry_task(run, task_id);
      if (run->aborted) break;
    }
    if (!run->aborted) pump_tasks(run);
  }
  prune_runs();
}

void DataflowEngine::speculate_on_node(cluster::NodeId node) {
  if (!config_.health_speculation) return;
  for (const auto& weak : runs_) {
    auto run = weak.lock();
    if (!run || run->done_reported || run->aborted) continue;
    std::vector<TaskId> owners;
    for (const auto& [copy, cs] : run->running_copies) {
      if (cs.node != node) continue;
      const TaskId task_id = run->copy_owner.at(copy);
      RunState::TaskDef& task = run->tasks.at(task_id);
      if (task.winner_decided || task.completed || task.speculated) continue;
      task.speculated = true;
      owners.push_back(task_id);
    }
    for (const TaskId task_id : owners) {
      RunState::TaskDef& task = run->tasks.at(task_id);
      ++run->stats.speculative_launched;
      metrics_.count("speculative_launched");
      metrics_.count("health_speculations");
      if (tracer_) {
        // Marker span: the decision to race a backup against a copy
        // stuck on an unhealthy node.
        const trace::SpanId span = tracer_->begin(
            trace::Layer::kDataflow, "df.speculate",
            run->stage_runs[static_cast<std::size_t>(task.stage)].span);
        tracer_->set_task(span, task.index);
        tracer_->annotate(span, "node", std::to_string(node));
        tracer_->end(span);
      }
      const TaskId backup = run->new_copy_of(task_id);
      run->scheduler.enqueue(backup, task.preferred, sim_.now());
    }
    if (!owners.empty()) pump_tasks(run);
  }
  prune_runs();
}

void DataflowEngine::prune_runs() {
  runs_.erase(std::remove_if(runs_.begin(), runs_.end(),
                             [](const std::weak_ptr<RunState>& w) {
                               return w.expired();
                             }),
              runs_.end());
}

void DataflowEngine::finish_stage(std::shared_ptr<RunState> run,
                                  int stage_id) {
  auto& sr = run->stage_runs[static_cast<std::size_t>(stage_id)];
  sr.stats.finish_time = sim_.now();
  // A stage can re-finish after fault-driven re-execution of a task
  // whose map output was lost; children were already started then.
  if (sr.finished_once) return;
  sr.finished_once = true;
  trace::end_span(tracer_, sr.span);
  ++run->stages_done;
  metrics_.count("stages_completed");

  // Parents' shuffle outputs can be freed once every consumer is done.
  const StageDef& def = run->plan.stage(stage_id);
  for (int parent : def.parents) {
    auto& pr = run->stage_runs[static_cast<std::size_t>(parent)];
    if (--pr.children_remaining == 0) run->shuffle.release(parent);
  }
  for (int child : run->children[static_cast<std::size_t>(stage_id)]) {
    auto& cr = run->stage_runs[static_cast<std::size_t>(child)];
    if (--cr.pending_parents == 0) start_stage(run, child);
  }

  if (run->stages_done == run->plan.size()) {
    // Register the sink dataset so downstream workflow steps can read it.
    const StageDef& last = run->plan.stage(run->plan.final_stage());
    if (last.writes_sink()) {
      auto& lsr = run->stage_runs[static_cast<std::size_t>(last.id)];
      storage::DatasetSpec spec;
      spec.name = last.sink_dataset;
      spec.partitions = lsr.num_tasks;
      spec.total_bytes = lsr.stats.output_bytes;
      catalog_.define(spec);
    }
    run->stats.duration = sim_.now() - run->start_time;
    for (const auto& stage_run : run->stage_runs) {
      run->stats.stages.push_back(stage_run.stats);
    }
    metrics_.count("jobs_completed");
    run->done_reported = true;
    trace::end_span(tracer_, run->job_span);
    if (run->on_done) run->on_done(run->stats);
  }
}

}  // namespace evolve::dataflow
