// F8 — Energy: (a) energy-to-completion of the mobility pipeline,
// converged vs siloed (same hardware; shorter makespan = fewer idle
// joules), and (b) per-kernel FPGA energy-efficiency factors (the
// EUROSERVER/NanoStreams-style headline numbers). With `--json`, writes
// the F8a makespan, mean active millicores and joules per deployment and
// the F8b speedup, joules and efficiency per kernel to
// BENCH_f8_energy.json.
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "accel/kernels.hpp"
#include "core/energy.hpp"
#include "core/platform.hpp"
#include "core/report.hpp"
#include "core/siloed.hpp"
#include "util/strings.hpp"
#include "workloads/mobility.hpp"

using namespace evolve;

namespace {

/// Runs the mobility pipeline on a fresh platform of the given layout and
/// records its makespan, mean active millicores (summed over the layout's
/// orchestrators) and joules under `mode`.
template <class Layout>
void run_mobility(const workloads::MobilityScenario& scenario,
                  const core::PowerModel& model, core::MetricsReport& metrics,
                  const std::string& mode) {
  sim::Simulation sim;
  Layout platform(sim);
  workloads::stage_mobility_inputs(platform.catalog(), scenario);
  util::TimeNs makespan = 0;
  platform.run_workflow(
      workloads::mobility_pipeline(scenario),
      [&](const workflow::WorkflowResult& r) { makespan = r.duration; });
  sim.run();
  double mean_millicores = 0;
  for (const auto& orchestrator : platform.orchestrators()) {
    mean_millicores += orchestrator->mean_cpu_millicores();
  }
  metrics.set(mode + "_makespan_ns", makespan);
  metrics.set(mode + "_mean_millicores", mean_millicores);
  metrics.set(mode + "_joules",
              core::estimate_energy(model, platform.cluster().size(),
                                    makespan, mean_millicores)
                  .total_joules());
}

}  // namespace

int main(int argc, char** argv) {
  const core::PowerModel model;
  core::MetricsReport metrics("f8_energy");

  {
    workloads::MobilityScenario scenario;
    scenario.trace_bytes = 2 * util::kGiB;
    run_mobility<core::Platform>(scenario, model, metrics, "converged");
    run_mobility<core::SiloedPlatform>(scenario, model, metrics, "siloed");
    const double converged_joules = metrics.get("converged_joules").real();
    core::Table(
        "F8a: energy to complete the mobility pipeline (14 nodes)", metrics,
        "deployment", {{"converged", "converged_"}, {"siloed", "siloed_"}},
        {{"makespan", "makespan_ns", core::nanos},
         {"mean active cores", "mean_millicores",
          [](double mc) { return util::fixed(mc / 1000.0, 1); }},
         {"energy", "joules",
          [](double j) { return util::fixed(j / 1000.0, 1) + " kJ"; }},
         {"vs converged", "joules",
          [converged_joules](double j) {
            return util::fixed(j / converged_joules, 2) + "x";
          }}})
        .print();
  }

  std::cout << "\n";
  {
    const auto registry = accel::KernelRegistry::standard();
    std::vector<std::pair<std::string, std::string>> kernels;
    for (const auto& name : registry.names()) {
      const auto& profile = registry.profile(name);
      const std::string prefix = "kernel_" + name + "_";
      metrics.set(prefix + "speedup", profile.speedup);
      // 8 cores x 1 s of CPU work against the card for 1/speedup s.
      metrics.set(prefix + "cpu_joules", model.per_core_watts * 8.0);
      metrics.set(prefix + "fpga_joules",
                  model.fpga_active_watts * (1.0 / profile.speedup));
      metrics.set(prefix + "efficiency",
                  core::offload_energy_ratio(model, util::seconds(1),
                                             profile.speedup, 8));
      kernels.emplace_back(name, prefix);
    }
    core::Table("F8b: FPGA offload energy efficiency (1 s CPU work, 8 cores)",
                metrics, "kernel", kernels,
                {{"speedup", "speedup", core::decimals(1, "x")},
                 {"cpu energy", "cpu_joules", core::decimals(1, " J")},
                 {"fpga energy", "fpga_joules", core::decimals(1, " J")},
                 {"efficiency", "efficiency", core::decimals(1, "x")}})
        .print();
  }
  std::cout << "\nShape check: the converged platform finishes sooner on the "
               "same hardware,\nso it burns fewer idle joules per pipeline; "
               "FPGA offload yields multi-x\nenergy-efficiency factors "
               "(compare EUROSERVER/NanoStreams ~5x claims).\n";
  if (core::has_flag(argc, argv, "--json")) {
    std::cout << "wrote " << metrics.write() << "\n";
  }
  return 0;
}
