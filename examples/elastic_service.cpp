// Elastic service: the full request-serving path under a bursty day —
// open-loop Poisson arrivals -> CoDel admission -> p2c router -> fabric
// -> bounded replica queues -> dynamic batches -> responses, with the
// latency-aware ScalingSignal driving the horizontal autoscaler (no
// oracle load curve: the autoscaler sees only what the serving path
// observed). A node drain mid-spike shows replicas closing, queued
// requests re-routing, and the deployment self-healing.
//
// Build & run:  ./build/examples/elastic_service
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "metrics/histogram.hpp"
#include "net/fabric.hpp"
#include "orch/autoscaler.hpp"
#include "orch/controllers.hpp"
#include "orch/scheduler.hpp"
#include "serve/generator.hpp"
#include "serve/service.hpp"
#include "serve/signal.hpp"
#include "sim/simulation.hpp"
#include "util/strings.hpp"

int main() {
  using namespace evolve;

  sim::Simulation sim;
  auto cluster = cluster::make_testbed(8, 2, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));

  // The service: anti-affine replicas so a node drain cannot take out
  // more than one at a time.
  orch::PodSpec pod;
  pod.name = "api";
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  pod.anti_affinity_group = "api";
  orch::DeploymentController deploy(orch, "api", pod, 2);

  // One setup-heavy class: 4 ms per batch + 6 ms per request, so a
  // fully-batched replica sustains ~150 req/s and the spikes below
  // genuinely need more replicas.
  std::vector<serve::RequestClass> classes(1);
  classes[0].name = "api";
  classes[0].compute_cost = util::millis(6);
  classes[0].batch_setup = util::millis(4);
  classes[0].slo = util::millis(150);

  serve::ServiceConfig config;
  config.policy = serve::BalancePolicy::kPowerOfTwo;
  config.replica.queue_limit = 64;
  config.replica.batch.max_batch = 8;
  config.replica.batch.max_linger = util::millis(1);
  config.admission.enabled = true;  // brownout while scaling catches up
  config.admission.target = util::millis(25);
  config.admission.interval = util::millis(25);
  serve::Service service(sim, fabric, deploy, classes, config);

  // Latency-aware autoscaling: the signal is fed by the serving path.
  serve::ScalingSignalConfig sconfig;
  sconfig.window = util::seconds(10);
  sconfig.delay_target = util::millis(25);
  sconfig.capacity_per_replica = 120.0;
  sconfig.target_inflight_per_replica = 8.0;
  serve::ScalingSignal signal(sim, sconfig);
  service.attach_signal(&signal);

  orch::AutoscalerConfig aconfig;
  aconfig.capacity_per_replica = 120.0;
  aconfig.target_utilization = 0.8;
  aconfig.min_replicas = 2;
  aconfig.max_replicas = 8;
  aconfig.interval = util::seconds(5);
  aconfig.scale_down_window = util::seconds(60);
  orch::HorizontalAutoscaler hpa(
      sim, deploy, [&signal] { return signal.load(); }, aconfig);
  hpa.start();

  // Bursty day: a baseline with two spikes.
  struct Phase {
    const char* name;
    util::TimeNs end;
    double rate;
  };
  const std::vector<Phase> phases = {{"cruise", util::seconds(120), 150.0},
                                     {"spike 1", util::seconds(240), 550.0},
                                     {"recovery", util::seconds(420), 150.0},
                                     {"spike 2", util::seconds(480), 750.0},
                                     {"cool-down", util::seconds(600), 150.0}};
  auto phase_of = [&phases](util::TimeNs t) {
    std::size_t i = 0;
    while (i + 1 < phases.size() && t >= phases[i].end) ++i;
    return i;
  };

  // Per-phase accounting keyed by *arrival* time: every arrival either
  // completes (observer below) or was shed, so shed = arrived - done.
  std::vector<std::int64_t> arrived(phases.size(), 0);
  std::vector<std::int64_t> done(phases.size(), 0);
  std::vector<std::int64_t> violations(phases.size(), 0);
  std::vector<metrics::Histogram> latency(phases.size());
  std::vector<int> peak_replicas(phases.size(), 0);
  service.set_completion_observer([&](const serve::Request& req,
                                      const serve::RequestClass&,
                                      util::TimeNs lat, bool slo_ok) {
    const std::size_t i = phase_of(req.arrival);
    ++done[i];
    if (!slo_ok) ++violations[i];
    latency[i].record(lat / util::kMicrosecond);
  });

  serve::GeneratorConfig gen;
  for (const auto& phase : phases) gen.phases.push_back({phase.end, phase.rate});
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = phases.back().end;
  gen.seed = 0xe1a5;
  serve::RequestGenerator generator(sim, gen, [&](serve::Request req) {
    ++arrived[phase_of(req.arrival)];
    service.submit(std::move(req));
  });
  generator.start();

  for (util::TimeNs t = 0; t < phases.back().end; t += util::seconds(1)) {
    sim.at(t, [&, t] {
      auto& peak = peak_replicas[phase_of(t)];
      peak = std::max(peak, service.replica_count());
    });
  }

  // A node drain mid-spike: one replica closes, its queued requests
  // re-route, the deployment restarts the pod elsewhere.
  const auto compute = cluster.nodes_with_label("role=compute");
  sim.at(util::seconds(180), [&] {
    std::cout << "t=180s: draining node " << compute[0] << " (maintenance)\n";
    orch.drain(compute[0]);
  });

  sim.run_until(phases.back().end + util::seconds(1));
  hpa.stop();
  sim.run();

  // The per-phase shed column is arrived - done: it holds only while the
  // tenant's own totals show every arrival completed or shed.
  const serve::TenantStats& tenant = service.tenant("default");
  const auto total = [](const std::vector<std::int64_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::int64_t{0});
  };
  if (total(arrived) != tenant.arrived || total(done) != tenant.completed ||
      tenant.completed + tenant.shed() != tenant.arrived ||
      service.outstanding() != 0) {
    std::cerr << "elastic_service: " << tenant.arrived << " arrived, "
              << tenant.completed << " completed, " << tenant.shed()
              << " shed, " << service.outstanding() << " outstanding\n";
    return 1;
  }

  core::Table table("Elastic service over 10 simulated minutes",
                    {"phase", "offered", "arrived", "shed", "peak repl",
                     "p50", "p99", "slo viol"});
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const std::int64_t shed = arrived[i] - done[i];
    const double shed_pct =
        arrived[i] == 0 ? 0.0
                        : 100.0 * static_cast<double>(shed) /
                              static_cast<double>(arrived[i]);
    table.add_row({phases[i].name, util::fixed(phases[i].rate, 0) + "/s",
                   std::to_string(arrived[i]),
                   util::fixed(shed_pct, 1) + "%",
                   std::to_string(peak_replicas[i]),
                   util::fixed(latency[i].p50() / 1e3, 1) + " ms",
                   util::fixed(latency[i].p99() / 1e3, 1) + " ms",
                   std::to_string(violations[i])});
  }
  table.print();

  std::cout << "\nScale events: " << hpa.scale_ups() << " up, "
            << hpa.scale_downs() << " down; rerouted on replica close: "
            << service.rerouted()
            << "; replica restarts after drain: " << deploy.restarts()
            << "\nCompleted "
            << service.metrics().counter("serve.completed") << "/"
            << service.metrics().counter("serve.requests")
            << " requests (goodput "
            << tenant.goodput()
            << "); a peak-provisioned service would pin 8 replicas all day.\n";
  return 0;
}
