// HPC batch jobs on the orchestrator: a Slurm-style job stream of
// whole-node gangs, placed greedily (gangs without a walltime estimate)
// and with EASY backfill (batch gangs with one), showing what the head
// job's reservation buys.
//
// Build & run:  ./build/examples/hpc_batch
#include <algorithm>
#include <iostream>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "orch/scheduler.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace evolve;

namespace {

struct QueueRun {
  double utilization;
  double mean_wait_s;
  double narrow_wait_s;  // mean over jobs of at most 6 nodes
  double wide_wait_s;    // mean over jobs of 16 nodes or more
  double max_wide_wait_s;
  std::int64_t backfilled;
  util::TimeNs makespan;
};

QueueRun run_stream(bool walltime_estimates, std::uint64_t seed) {
  constexpr int kNodes = 32;
  sim::Simulation sim;
  const cluster::Cluster cluster = cluster::make_testbed(kNodes, 0, 0);
  orch::OrchestratorConfig config;
  config.scheduling_interval = 0;  // start as soon as placed, like a
  config.bind_latency = 0;         // batch system
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster), config);
  const cluster::Resources node = cluster.node(0).allocatable();
  orch::PodSpec whole_node;
  whole_node.request = cluster::cpu_mem(node.cpu_millicores, node.memory_bytes);
  util::Rng rng(seed);

  // 60 jobs: a mix of wide/short and narrow/long, bursty arrivals. Each
  // job's wait is its submit-to-start time (first rank started).
  struct Job {
    int nodes = 0;
    util::TimeNs submit = 0;
    util::TimeNs start = -1;
  };
  std::vector<Job> jobs(60);
  double clock = 0;
  for (Job& job : jobs) {
    clock += rng.exponential(0.08);  // ~12.5s between arrivals
    util::TimeNs runtime;
    if (rng.chance(0.25)) {
      job.nodes = static_cast<int>(rng.uniform_int(16, 32));  // wide
      runtime = util::seconds(rng.uniform(30, 120));
    } else {
      job.nodes = static_cast<int>(rng.uniform_int(1, 6));  // narrow
      runtime = util::seconds(rng.uniform(60, 600));
    }
    // Users overestimate walltime by 1.2-2x.
    orch::BatchSpec batch;
    batch.walltime = static_cast<util::TimeNs>(
        static_cast<double>(runtime) * rng.uniform(1.2, 2.0));
    if (!walltime_estimates) batch = {};
    job.submit = util::seconds(clock);
    sim.at(job.submit, [&, j = &job, runtime, batch] {
      orch.submit_gang(
          std::vector<orch::PodSpec>(static_cast<std::size_t>(j->nodes),
                                     whole_node),
          runtime,
          [&sim, j](orch::PodId, cluster::NodeId) {
            if (j->start < 0) j->start = sim.now();
          },
          {}, batch);
    });
  }
  sim.run();

  QueueRun run{orch.cpu_utilization(), 0, 0, 0, 0,
               orch.metrics().counter("backfills"), sim.now()};
  int narrow = 0, wide = 0;
  for (const Job& job : jobs) {
    const double wait = util::to_seconds(job.start - job.submit);
    run.mean_wait_s += wait / static_cast<double>(jobs.size());
    if (job.nodes >= 16) {
      run.wide_wait_s += wait;
      run.max_wide_wait_s = std::max(run.max_wide_wait_s, wait);
      ++wide;
    } else {
      run.narrow_wait_s += wait;
      ++narrow;
    }
  }
  run.narrow_wait_s /= std::max(narrow, 1);
  run.wide_wait_s /= std::max(wide, 1);
  return run;
}

}  // namespace

int main() {
  core::Table table(
      "Batch gangs: greedy vs EASY backfill (32 nodes, 60 jobs)",
      {"placement", "node util", "mean wait", "narrow wait", "wide wait",
       "max wide wait", "backfills", "makespan"});
  auto row = [&](const std::string& name, const QueueRun& run) {
    table.add_row({name, util::fixed(run.utilization * 100, 1) + "%",
                   util::fixed(run.mean_wait_s, 1) + " s",
                   util::fixed(run.narrow_wait_s, 1) + " s",
                   util::fixed(run.wide_wait_s, 1) + " s",
                   util::fixed(run.max_wide_wait_s, 1) + " s",
                   std::to_string(run.backfilled),
                   util::human_time(run.makespan)});
  };
  const QueueRun greedy = run_stream(false, 42);
  const QueueRun easy = run_stream(true, 42);
  row("greedy (no walltime)", greedy);
  row("EASY backfill", easy);
  table.print();
  std::cout << "\nGreedy placement lets every job that fits jump a wide "
               "job waiting for nodes.\nWith walltime estimates the first "
               "waiting gang reserves its start time,\nand later jobs "
               "backfill only where they cannot delay it: wide jobs wait\n"
            << util::fixed(easy.wide_wait_s, 0) << " s on average instead of "
            << util::fixed(greedy.wide_wait_s, 0)
            << " s, paid for by narrow jobs (" << util::fixed(easy.narrow_wait_s, 0)
            << " s instead of " << util::fixed(greedy.narrow_wait_s, 0)
            << " s)\nand by node utilization ("
            << util::fixed(easy.utilization * 100, 1) << "% instead of "
            << util::fixed(greedy.utilization * 100, 1) << "%).\n";
  return 0;
}
