// F7 — Elasticity: a diurnal load curve served by (a) peak-provisioned,
// (b) mean-provisioned, and (c) autoscaled deployments. Reports replica
// usage and the time spent under-provisioned (SLO-risk proxy).
// `--json` writes BENCH_f7_autoscale.json (fully deterministic).
#include <cmath>
#include <iostream>
#include <string>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "metrics/timeseries.hpp"
#include "orch/autoscaler.hpp"
#include "sim/simulation.hpp"
#include "util/strings.hpp"

using namespace evolve;

namespace {

// Two-hour sinusoidal "day": load between 50 and 950 req/s.
double diurnal_load(util::TimeNs now) {
  const double t = util::to_seconds(now);
  const double period = 7200.0;
  return 500.0 + 450.0 * std::sin(2 * M_PI * t / period - M_PI / 2);
}

/// One strategy, recorded into `report` under `mode` + "_".
void run_strategy(const std::string& mode, core::MetricsReport& report) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(8, 0, 0);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec pod;
  pod.name = "api";
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  const double per_replica = 100.0;  // req/s each

  int fixed = 0;
  if (mode == "peak") fixed = 10;
  if (mode == "mean") fixed = 5;
  orch::DeploymentController deploy(orch, "api", pod,
                                    fixed > 0 ? fixed : 1);
  orch::AutoscalerConfig config;
  config.capacity_per_replica = per_replica;
  config.target_utilization = 1.0;
  config.min_replicas = 1;
  config.max_replicas = 10;
  config.interval = util::seconds(30);
  config.scale_down_window = util::seconds(120);
  orch::HorizontalAutoscaler hpa(
      sim, deploy, [&sim] { return diurnal_load(sim.now()); }, config);
  if (mode == "autoscaled") hpa.start();

  metrics::TimeSeries replicas;
  metrics::TimeSeries shortfall;  // 1 when capacity < load
  const util::TimeNs horizon = util::seconds(7200);
  for (util::TimeNs t = 0; t < horizon; t += util::seconds(10)) {
    sim.at(t, [&, t] {
      const double capacity = deploy.desired() * per_replica;
      replicas.record(t, deploy.desired());
      shortfall.record(t, capacity < diurnal_load(t) ? 1.0 : 0.0);
    });
  }
  sim.run_until(horizon);
  hpa.stop();
  sim.run();

  report.set(mode + "_mean_replicas", replicas.time_weighted_mean(horizon));
  report.set(mode + "_peak_replicas", replicas.max());
  // Time with capacity < load.
  report.set(mode + "_under_provisioned_pct",
             100.0 * shortfall.time_weighted_mean(horizon));
  report.set(mode + "_scale_events", hpa.scale_ups() + hpa.scale_downs());
}

}  // namespace

int main(int argc, char** argv) {
  core::MetricsReport report("f7_autoscale");
  for (const std::string mode : {"peak", "mean", "autoscaled"}) {
    run_strategy(mode, report);
  }
  core::Table("F7: diurnal load (50..950 req/s over 2 h simulated)", report,
              "strategy",
              {{"peak (fixed 10)", "peak_"},
               {"mean (fixed 5)", "mean_"},
               {"autoscaled", "autoscaled_"}},
              {{"mean replicas", "mean_replicas", core::decimals(2)},
               {"peak", "peak_replicas", core::decimals(0)},
               {"under-prov time", "under_provisioned_pct",
                core::decimals(1, "%")},
               {"scale events", "scale_events"}})
      .print();
  std::cout << "\nShape check: peak provisioning never under-provisions but "
               "wastes ~2x\nreplicas; mean provisioning starves half the "
               "day; the autoscaler tracks the\ncurve with near-peak "
               "protection at near-mean cost.\n";
  if (core::has_flag(argc, argv, "--json")) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
