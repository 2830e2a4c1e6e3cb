// F8 — Energy: (a) energy-to-completion of the mobility pipeline,
// converged vs siloed (same hardware; shorter makespan = fewer idle
// joules), and (b) per-kernel FPGA energy-efficiency factors (the
// EUROSERVER/NanoStreams-style headline numbers). With `--json`, writes
// the F8a makespan, mean active millicores and joules per deployment to
// BENCH_f8_energy.json.
#include <iostream>

#include "accel/kernels.hpp"
#include "core/energy.hpp"
#include "core/platform.hpp"
#include "core/report.hpp"
#include "core/siloed.hpp"
#include "util/strings.hpp"
#include "workloads/mobility.hpp"

using namespace evolve;

namespace {

struct Run {
  util::TimeNs makespan = 0;
  double mean_millicores = 0;  // summed over the layout's orchestrators
  int nodes = 0;
};

/// Runs the mobility pipeline on a fresh platform of the given layout.
template <class Layout>
Run run_mobility(const workloads::MobilityScenario& scenario) {
  sim::Simulation sim;
  Layout platform(sim);
  workloads::stage_mobility_inputs(platform.catalog(), scenario);
  Run run;
  platform.run_workflow(
      workloads::mobility_pipeline(scenario),
      [&](const workflow::WorkflowResult& r) { run.makespan = r.duration; });
  sim.run();
  for (const auto& orchestrator : platform.orchestrators()) {
    run.mean_millicores += orchestrator->mean_cpu_millicores();
  }
  run.nodes = platform.cluster().size();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const core::PowerModel model;
  core::MetricsReport metrics("f8_energy");

  {
    core::Table table(
        "F8a: energy to complete the mobility pipeline (14 nodes)",
        {"deployment", "makespan", "mean active cores", "energy",
         "vs converged"});
    workloads::MobilityScenario scenario;
    scenario.trace_bytes = 2 * util::kGiB;

    const std::pair<std::string, Run> runs[] = {
        {"converged", run_mobility<core::Platform>(scenario)},
        {"siloed", run_mobility<core::SiloedPlatform>(scenario)}};
    double converged_joules = 0;
    for (const auto& [mode, run] : runs) {
      const auto report = core::estimate_energy(model, run.nodes, run.makespan,
                                                run.mean_millicores);
      if (mode == "converged") converged_joules = report.total_joules();
      metrics.set(mode + "_makespan_ns", run.makespan);
      metrics.set(mode + "_mean_millicores", run.mean_millicores);
      metrics.set(mode + "_joules", report.total_joules());
      table.add_row(
          {mode, util::human_time(run.makespan),
           util::fixed(run.mean_millicores / 1000.0, 1),
           util::fixed(report.total_joules() / 1000.0, 1) + " kJ",
           util::fixed(report.total_joules() / converged_joules, 2) + "x"});
    }
    table.print();
  }

  std::cout << "\n";
  {
    core::Table table(
        "F8b: FPGA offload energy efficiency (1 s CPU work, 8 cores)",
        {"kernel", "speedup", "cpu energy", "fpga energy", "efficiency"});
    const auto registry = accel::KernelRegistry::standard();
    for (const auto& name : registry.names()) {
      const auto& profile = registry.profile(name);
      const double cpu_j = model.per_core_watts * 8.0;  // 8 cores x 1 s
      const double fpga_j =
          model.fpga_active_watts * (1.0 / profile.speedup);
      table.add_row({name, util::fixed(profile.speedup, 1) + "x",
                     util::fixed(cpu_j, 1) + " J",
                     util::fixed(fpga_j, 1) + " J",
                     util::fixed(core::offload_energy_ratio(
                                     model, util::seconds(1),
                                     profile.speedup, 8),
                                 1) +
                         "x"});
    }
    table.print();
  }
  std::cout << "\nShape check: the converged platform finishes sooner on the "
               "same hardware,\nso it burns fewer idle joules per pipeline; "
               "FPGA offload yields multi-x\nenergy-efficiency factors "
               "(compare EUROSERVER/NanoStreams ~5x claims).\n";
  if (core::json_mode(argc, argv)) {
    std::cout << "wrote " << metrics.write() << "\n";
  }
  return 0;
}
