#include "core/unified_scheduler.hpp"

#include <memory>

#include "metrics/histogram.hpp"

namespace evolve::core {

namespace {

struct TraceState {
  int jobs_remaining = 0;
  int pods_failed = 0;
  util::TimeNs last_finish = 0;
};

/// Submits one job to `orchestrator` at its arrival time.
void submit_job(sim::Simulation& sim, orch::Orchestrator& orchestrator,
                const MixedJob& job, std::shared_ptr<TraceState> state) {
  sim.at(job.arrival, [&sim, &orchestrator, job, state] {
    auto pods_left = std::make_shared<int>(job.pods);
    auto pod_done = [&sim, state, pods_left](orch::PodId,
                                             orch::PodPhase phase) {
      if (phase == orch::PodPhase::kFailed) ++state->pods_failed;
      if (--*pods_left == 0) {
        --state->jobs_remaining;
        state->last_finish = sim.now();
      }
    };
    if (job.kind == MixedJob::Kind::kGang) {
      std::vector<orch::PodSpec> specs;
      for (int i = 0; i < job.pods; ++i) {
        orch::PodSpec spec;
        spec.name = "gang-pod";
        spec.tenant = "hpc";
        spec.request = job.per_pod;
        specs.push_back(std::move(spec));
      }
      orchestrator.submit_gang(specs, job.duration, {}, pod_done);
      return;
    }
    for (int i = 0; i < job.pods; ++i) {
      orch::PodSpec spec;
      spec.name = job.kind == MixedJob::Kind::kService ? "svc" : "batch";
      spec.tenant = spec.name;
      spec.request = job.per_pod;
      orchestrator.submit(spec, job.duration, {}, pod_done);
    }
  });
}

}  // namespace

ScheduleOutcome run_trace(Platform& platform,
                          const std::vector<MixedJob>& trace) {
  sim::Simulation& sim = platform.sim();
  auto state = std::make_shared<TraceState>();
  state->jobs_remaining = static_cast<int>(trace.size());
  for (const MixedJob& job : trace) {
    World world = World::kBigData;
    if (job.kind == MixedJob::Kind::kService) world = World::kCloud;
    if (job.kind == MixedJob::Kind::kGang) world = World::kHpc;
    submit_job(sim, platform.orchestrator(world), job, state);
  }
  sim.run();

  ScheduleOutcome outcome;
  metrics::Histogram waits;
  double weighted_util = 0;
  double total_capacity = 0;
  for (const auto& orchestrator : platform.orchestrators()) {
    double capacity = 0;
    for (cluster::NodeId n : orchestrator->managed_nodes()) {
      capacity += static_cast<double>(
          platform.cluster().node(n).allocatable().cpu_millicores);
    }
    waits.merge(orchestrator->metrics().histogram("pod_wait_ms"));
    weighted_util += orchestrator->cpu_utilization() * capacity;
    total_capacity += capacity;
  }
  outcome.cpu_utilization =
      total_capacity > 0 ? weighted_util / total_capacity : 0;
  outcome.mean_wait =
      static_cast<util::TimeNs>(waits.mean()) * util::kMillisecond;
  outcome.p95_wait = waits.p95() * util::kMillisecond;
  outcome.makespan = state->last_finish;
  outcome.pods_failed = state->pods_failed;
  outcome.jobs_completed =
      static_cast<int>(trace.size()) - state->jobs_remaining;
  return outcome;
}

}  // namespace evolve::core
