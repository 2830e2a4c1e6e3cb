// A2 — Ablation: gang scheduling vs independent rank placement for HPC
// jobs sharing a cluster with churning batch pods. Independent placement
// strands partially-allocated ranks that idle-wait for stragglers.
// `--json` writes BENCH_a2_gang.json; the placement digest hashes every
// pod's node, so it pins binpacking placement.
#include <cstdint>
#include <iostream>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "orch/scheduler.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace evolve;

namespace {

struct Outcome {
  util::TimeNs mean_ready = 0;   // submit -> all ranks running
  util::TimeNs wasted = 0;       // rank-seconds idle before job start
  int jobs = 0;
  std::uint64_t placement_digest = 14695981039346656037ull;  // FNV-1a
};

Outcome run_mode(bool gang, std::uint64_t seed) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(8, 0, 0);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::binpacking(cluster));
  util::Rng rng(seed);

  // Background churn: batch pods arriving continuously.
  double clock = 0;
  for (int i = 0; i < 150; ++i) {
    clock += rng.exponential(1.0);
    orch::PodSpec pod;
    pod.name = "batch";
    pod.request = cluster::cpu_mem(8000, 16 * util::kGiB);
    sim.at(util::seconds(clock), [&orch, pod, &rng]() mutable {
      orch.submit(pod, util::seconds(20));
    });
  }

  // Six MPI jobs of 8 ranks x 16 cores arriving through the churn.
  auto outcome = std::make_shared<Outcome>();
  auto total_ready = std::make_shared<util::TimeNs>(0);
  for (int j = 0; j < 6; ++j) {
    const util::TimeNs arrival = util::seconds(10 + 15 * j);
    sim.at(arrival, [&, arrival] {
      auto state = std::make_shared<std::vector<util::TimeNs>>();
      const int ranks = 8;
      auto on_start = [&sim, state, ranks, arrival, outcome,
                       total_ready](orch::PodId, cluster::NodeId) {
        state->push_back(sim.now());
        if (static_cast<int>(state->size()) == ranks) {
          const util::TimeNs ready = sim.now();
          for (util::TimeNs t : *state) outcome->wasted += ready - t;
          *total_ready += ready - arrival;
          ++outcome->jobs;
        }
      };
      std::vector<orch::PodSpec> specs;
      for (int r = 0; r < ranks; ++r) {
        orch::PodSpec spec;
        spec.name = "rank";
        spec.tenant = "hpc";
        spec.request = cluster::cpu_mem(16000, 32 * util::kGiB);
        specs.push_back(std::move(spec));
      }
      if (gang) {
        orch.submit_gang(specs, util::seconds(30), on_start);
      } else {
        for (auto& spec : specs) {
          orch.submit(spec, util::seconds(30) /* plus idle wait below */,
                      on_start);
        }
      }
    });
  }
  sim.run();
  if (outcome->jobs > 0) outcome->mean_ready = *total_ready / outcome->jobs;
  const auto pods = orch.metrics().counter("pods_submitted");
  for (orch::PodId id = 1; id <= pods; ++id) {
    outcome->placement_digest ^=
        static_cast<std::uint64_t>(orch.pod(id).node) + 1;
    outcome->placement_digest *= 1099511628211ull;
  }
  return *outcome;
}

}  // namespace

int main(int argc, char** argv) {
  core::Table table(
      "A2: gang vs independent rank placement (8-rank jobs + churn)",
      {"placement", "jobs fully started", "mean time to all-ranks-ready",
       "stranded rank-time"});
  const auto gang = run_mode(true, 7);
  const auto indep = run_mode(false, 7);
  table.add_row({"gang (all-or-nothing)", std::to_string(gang.jobs) + "/6",
                 util::human_time(gang.mean_ready),
                 util::human_time(gang.wasted)});
  table.add_row({"independent pods", std::to_string(indep.jobs) + "/6",
                 util::human_time(indep.mean_ready),
                 util::human_time(indep.wasted)});
  table.print();
  core::MetricsReport report("a2_gang");
  const auto add = [&report](const std::string& mode, const Outcome& out) {
    report.set(mode + "_jobs", out.jobs);
    report.set(mode + "_mean_ready_ms",
               static_cast<double>(out.mean_ready) / 1e6);
    report.set(mode + "_wasted_ms", static_cast<double>(out.wasted) / 1e6);
    // 53 bits, so a JSON double reader keeps it exact.
    report.set(mode + "_placement_digest",
               static_cast<std::int64_t>(out.placement_digest >> 11));
  };
  add("gang", gang);
  add("indep", indep);
  std::cout << "\nShape check: gangs hold ranks back until all fit, so no "
               "rank-time is\nstranded; independent placement starts ranks "
               "piecemeal, wasting allocated\ncores while stragglers queue "
               "behind churn.\n";
  if (core::has_flag(argc, argv, "--json")) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
