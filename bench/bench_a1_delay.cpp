// A1 — Ablation: delay scheduling. Sweep the locality wait and measure
// source-task locality and job runtime on a loaded converged cluster.
// `--json` writes BENCH_a1_delay.json (fully deterministic).
#include <iostream>

#include "core/platform.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "util/strings.hpp"
#include "workloads/tabular.hpp"

using namespace evolve;

int main(int argc, char** argv) {
  core::MetricsReport report("a1_delay");
  std::vector<std::pair<std::string, std::string>> rows;
  for (util::TimeNs wait :
       {util::TimeNs{0}, util::millis(100), util::millis(500),
        util::seconds(3)}) {
    core::PlatformConfig config;
    config.compute_nodes = 4;
    config.storage_nodes = 4;
    config.accel_nodes = 0;
    config.dataflow.locality_wait = wait;
    sim::Simulation sim;
    core::Platform platform(sim, config);
    core::Session session(platform);
    session.create_dataset("events", 32, util::kGiB, /*warm_cache=*/true);

    // Busy executors: occupy slots so local placement requires waiting.
    // Two concurrent jobs over the same dataset contend for the
    // data-holding executors.
    dataflow::JobStats first, second;
    int done = 0;
    platform.run_dataflow(
        workloads::scan_filter_aggregate("events", "out-a", 8), 4, 2,
        [&](const dataflow::JobStats& s) {
          first = s;
          ++done;
        });
    platform.run_dataflow(
        workloads::scan_filter_aggregate("events", "out-b", 8), 4, 2,
        [&](const dataflow::JobStats& s) {
          second = s;
          ++done;
        });
    sim.run();
    const std::string p =
        util::numbered("wait_", wait / util::kMillisecond) + "ms_";
    report.set(p + "local_tasks",
               first.stages[0].local_tasks + second.stages[0].local_tasks);
    report.set(p + "tasks", first.stages[0].tasks + second.stages[0].tasks);
    report.set(p + "job_ns", std::max(first.duration, second.duration));
    rows.emplace_back(util::human_time(wait), p);
  }
  core::Table("A1: delay scheduling ablation (executors on data nodes)", report,
              "locality wait", rows,
              {{"local source tasks",
                [](const core::Row& r) {
                  return std::to_string(r["local_tasks"].count()) + "/" +
                         std::to_string(r["tasks"].count());
                }},
               {"job time", "job_ns", core::nanos}})
      .print();
  std::cout << "\nShape check: a short wait buys most of the locality; past "
               "the knee,\nlonger waits add idle time without more hits "
               "(classic delay-scheduling curve).\n";
  if (core::has_flag(argc, argv, "--json")) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
