// A4 — Ablation: speculative execution under straggler injection.
// Sweep the straggler rate; compare job completion time and wasted work
// with speculation off vs on. `--json` writes BENCH_a4_speculation.json.
#include <iostream>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "dataflow/engine.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "util/strings.hpp"
#include "workloads/tabular.hpp"

using namespace evolve;

namespace {

dataflow::JobStats run_once(double straggler_rate, bool speculation) {
  dataflow::DataflowConfig config;
  config.locality_wait = 0;
  config.straggler_probability = straggler_rate;
  config.straggler_slowdown = 8.0;
  config.straggler_seed = 4242;
  config.speculation = speculation;
  config.speculation_multiplier = 1.4;
  config.speculation_quantile = 0.5;

  sim::Simulation sim;
  auto cluster = cluster::make_testbed(8, 4, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"));
  storage::DatasetCatalog catalog(store);
  catalog.define(storage::DatasetSpec{"in", 64, 512 * util::kMiB});
  catalog.preload("in", /*warm_cache=*/true);
  dataflow::DataflowEngine engine(sim, cluster, fabric, io, catalog, config);

  dataflow::LogicalPlan plan;
  const int src = plan.add_source("in");
  const int heavy = plan.add_map(src, "heavy", 0.4, 15.0);
  plan.add_sink(heavy, "out");
  std::vector<dataflow::ExecutorSpec> execs;
  for (auto node : cluster.nodes_with_label("role=compute")) {
    execs.push_back(dataflow::ExecutorSpec{node, 4});
  }
  dataflow::JobStats stats;
  engine.run(plan, execs, [&](const dataflow::JobStats& s) { stats = s; });
  sim.run();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  core::Table table(
      "A4: speculative execution vs stragglers (64 tasks, 8x slowdown)",
      {"straggler rate", "spec off", "spec on", "speedup", "backups",
       "backup wins"});
  core::MetricsReport report("a4_speculation");
  for (double rate : {0.0, 0.05, 0.15, 0.30}) {
    const auto off = run_once(rate, false);
    const auto on = run_once(rate, true);
    table.add_row({util::fixed(rate * 100, 0) + "%",
                   util::human_time(off.duration),
                   util::human_time(on.duration),
                   util::fixed(static_cast<double>(off.duration) /
                                   static_cast<double>(on.duration),
                               2) +
                       "x",
                   std::to_string(on.speculative_launched),
                   std::to_string(on.speculative_wins)});
    const std::string prefix =
        "rate_" + std::to_string(static_cast<int>(rate * 100));
    report.set(prefix + "_off_duration_ms",
               static_cast<double>(off.duration) / 1e6);
    report.set(prefix + "_on_duration_ms",
               static_cast<double>(on.duration) / 1e6);
    report.set(prefix + "_backups", on.speculative_launched);
    report.set(prefix + "_backup_wins", on.speculative_wins);
  }
  table.print();
  std::cout << "\nShape check: with no stragglers speculation is a no-op; "
               "as the straggler\nrate grows, backup copies clip the tail "
               "and the benefit widens.\n";
  if (core::has_flag(argc, argv, "--json")) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
