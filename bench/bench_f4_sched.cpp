// F4 — Unified vs siloed scheduling: the same mixed trace (cloud
// services + batch analytics + HPC gangs) on one unified orchestrator vs
// three static partitions; utilization, waits, makespan; load sweep.
// With `--json`, writes every outcome field per load and deployment to
// BENCH_f4_sched.json.
#include <iostream>

#include "core/report.hpp"
#include "core/siloed.hpp"
#include "core/unified_scheduler.hpp"
#include "util/strings.hpp"
#include "workloads/trace.hpp"

using namespace evolve;

namespace {

core::PlatformConfig sched_config() {
  core::PlatformConfig config;
  config.compute_nodes = 12;
  config.storage_nodes = 4;
  config.accel_nodes = 0;
  return config;
}

/// Replays `trace` on a fresh platform of the given layout.
template <class Layout>
core::ScheduleOutcome replay(const std::vector<core::MixedJob>& trace) {
  sim::Simulation sim;
  Layout platform(sim, sched_config());
  return core::run_trace(platform, trace);
}

}  // namespace

int main(int argc, char** argv) {
  core::Table table("F4: mixed trace, unified vs 3 static silos (12 nodes)",
                    {"load (jobs/s)", "deployment", "cpu util", "mean wait",
                     "p95 wait", "makespan"});
  core::MetricsReport report("f4_sched");
  for (double rate : {0.5, 1.5, 3.0}) {
    workloads::TraceParams params;
    params.jobs = 120;
    params.arrivals_per_second = rate;
    params.batch_median_s = 15.0;
    params.service_median_s = 30.0;
    params.gang_median_s = 25.0;
    params.max_gang_width = 6;

    util::Rng rng(1234);
    const auto trace = workloads::make_mixed_trace(rng, params);

    const core::ScheduleOutcome unified = replay<core::Platform>(trace);
    const core::ScheduleOutcome siloed = replay<core::SiloedPlatform>(trace);
    for (const auto& [name, outcome] :
         {std::pair{"unified", unified}, std::pair{"siloed", siloed}}) {
      table.add_row({util::fixed(rate, 1), name,
                     util::fixed(outcome.cpu_utilization * 100, 1) + "%",
                     util::human_time(outcome.mean_wait),
                     util::human_time(outcome.p95_wait),
                     util::human_time(outcome.makespan)});
      const std::string prefix =
          "load_" + util::fixed(rate, 1) + "_" + name + "_";
      report.set(prefix + "cpu_utilization", outcome.cpu_utilization);
      report.set(prefix + "mean_wait_ns", outcome.mean_wait);
      report.set(prefix + "p95_wait_ns", outcome.p95_wait);
      report.set(prefix + "makespan_ns", outcome.makespan);
      report.set(prefix + "jobs_completed", outcome.jobs_completed);
      report.set(prefix + "pods_failed", outcome.pods_failed);
    }
  }
  table.print();
  std::cout << "\nShape check: identical at low load; under pressure the "
               "unified\nscheduler borrows idle capacity across worlds -> "
               "lower waits and makespan,\nhigher effective utilization.\n";
  if (core::has_flag(argc, argv, "--json")) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
