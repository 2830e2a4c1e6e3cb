// Urban-mobility use case (EVOLVE's fleet-analytics pilot shape):
// GPS traces -> validate -> join/aggregate per route -> HPC clustering
// -> serving container. Runs the same pipeline on the converged platform
// and on a siloed baseline and reports the end-to-end difference.
//
// Build & run:  ./build/examples/urban_mobility
#include <iostream>

#include "core/platform.hpp"
#include "core/report.hpp"
#include "core/siloed.hpp"
#include "util/strings.hpp"
#include "workloads/mobility.hpp"

namespace {

struct Outcome {
  bool ok = false;
  evolve::util::TimeNs time = 0;
  evolve::util::Bytes staged = 0;
};

// Runs the pipeline on a fresh platform of the given layout; both layouts
// take the same code path.
template <class Layout>
Outcome run_pipeline(const evolve::workloads::MobilityScenario& scenario) {
  using namespace evolve;
  sim::Simulation sim;
  Layout platform(sim);
  workloads::stage_mobility_inputs(platform.catalog(), scenario);
  Outcome outcome;
  platform.run_workflow(workloads::mobility_pipeline(scenario),
                        [&](const workflow::WorkflowResult& r) {
                          outcome.ok = r.success;
                          outcome.time = r.duration;
                        });
  sim.run();
  outcome.staged = platform.staged_bytes();
  return outcome;
}

}  // namespace

int main() {
  using namespace evolve;

  workloads::MobilityScenario scenario;
  scenario.trace_bytes = 4 * util::kGiB;
  scenario.trace_partitions = 64;
  scenario.analytics_executors = 6;
  scenario.clustering_ranks = 8;

  std::cout << "Urban mobility pipeline over "
            << util::human_bytes(scenario.trace_bytes) << " of GPS traces\n\n";

  const Outcome converged = run_pipeline<core::Platform>(scenario);
  if (!converged.ok) {
    std::cerr << "converged pipeline failed\n";
    return 1;
  }
  const Outcome siloed = run_pipeline<core::SiloedPlatform>(scenario);
  if (!siloed.ok) {
    std::cerr << "siloed pipeline failed\n";
    return 1;
  }

  core::Table table("End-to-end pipeline time",
                    {"deployment", "time", "staged data"});
  table.add_row({"converged (EVOLVE)", util::human_time(converged.time),
                 util::human_bytes(converged.staged)});
  table.add_row({"siloed baseline", util::human_time(siloed.time),
                 util::human_bytes(siloed.staged)});
  table.print();
  std::cout << "\nConvergence speedup: "
            << util::fixed(static_cast<double>(siloed.time) /
                               static_cast<double>(converged.time),
                           2)
            << "x (staging copies eliminated)\n";
  return 0;
}
