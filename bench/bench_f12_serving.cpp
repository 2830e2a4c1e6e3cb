// F12 — Request serving: batching, load balancing, shedding, autoscaling.
//
// Four scenarios drive the request-serving subsystem end to end
// (open-loop Poisson arrivals -> admission -> router -> fabric ->
// bounded replica queue -> dynamic batch -> response), each as an
// on/off comparison so every mechanism's contribution is measurable:
//
//   steady     4 replicas at 600 req/s, where per-batch setup dominates
//              per-request cost. Dynamic batching on (max 8) vs off
//              (batch=1): amortizing setup is the difference between
//              keeping up and collapsing.
//   slow       6 replicas, one on a 4x gray-slowed node, at ~60% load.
//              Round-robin keeps feeding the straggler; power-of-two-
//              choices reads its outstanding depth and routes around
//              it; hedging additionally rescues the requests already
//              stuck there.
//   spike      3 replicas, a 6x arrival spike for 4 s. CoDel-style
//              admission shedding on vs off: shedding rejects the
//              overflow at the front door and keeps the *admitted* p99
//              inside the SLO; without it every queue fills and the
//              tail blows through the SLO before queue-full sheds kick
//              in anyway.
//   autoscale  2..12 replicas under a 20 s surge, scaled by the
//              latency-aware ScalingSignal (windowed arrival rate
//              inflated by p99 queue-delay pressure, plus an in-flight
//              backlog floor) driving the HorizontalAutoscaler.
//
// `--json` writes BENCH_f12_serving.json (fully simulation-
// deterministic); `--trace` additionally writes TRACE_f12_serving.json
// with serve.request / serve.queue / serve.batch / serve.exec /
// serve.hedge spans and must not change any metric.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "fault/gray.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "orch/autoscaler.hpp"
#include "orch/controllers.hpp"
#include "orch/scheduler.hpp"
#include "serve/generator.hpp"
#include "serve/service.hpp"
#include "serve/signal.hpp"
#include "sim/simulation.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

using namespace evolve;

namespace {

/// Records the service's outcome counters under `p`. A drained scenario
/// must have ended every arrival in one outcome and left nothing
/// assigned to a replica; the bench exits non-zero when it has not.
void snapshot(const serve::Service& svc, const net::Fabric& fabric,
              core::MetricsReport& report, const std::string& p) {
  const metrics::Registry& m = svc.metrics();
  const std::int64_t ended = m.counter("serve.completed") +
                             m.counter("serve.shed_admission") +
                             m.counter("serve.shed_queue_full");
  if (ended != m.counter("serve.requests") || svc.outstanding() != 0) {
    std::cerr << "F12 scenario " << p << " did not drain: "
              << m.counter("serve.requests") << " arrived, " << ended
              << " completed or shed, " << svc.outstanding()
              << " outstanding\n";
    std::exit(1);
  }
  double p50_ms = 0, p99_ms = 0, p999_ms = 0, mean_batch = 0;
  if (m.has_histogram("serve.latency_us")) {
    const auto& h = m.histogram("serve.latency_us");
    p50_ms = static_cast<double>(h.p50()) / 1e3;
    p99_ms = static_cast<double>(h.p99()) / 1e3;
    p999_ms = static_cast<double>(h.p999()) / 1e3;
  }
  if (m.has_histogram("serve.batch_size")) {
    mean_batch = m.histogram("serve.batch_size").mean();
  }
  report.set(p + "arrived", m.counter("serve.requests"));
  report.set(p + "completed", m.counter("serve.completed"));
  report.set(p + "goodput", m.counter("serve.completed") -
                                m.counter("serve.slo_violations"));
  report.set(p + "shed_admission", m.counter("serve.shed_admission"));
  report.set(p + "shed_queue_full", m.counter("serve.shed_queue_full"));
  report.set(p + "slo_violations", m.counter("serve.slo_violations"));
  report.set(p + "p50_ms", p50_ms);
  report.set(p + "p99_ms", p99_ms);
  report.set(p + "p999_ms", p999_ms);
  report.set(p + "mean_batch", mean_batch);
  report.set(p + "hedges", svc.hedges_launched());
  report.set(p + "hedge_wins", svc.hedge_wins());
  report.set(p + "hedges_cancelled", svc.hedges_cancelled());
  report.set(p + "wasted_exec", svc.wasted_exec());
  report.set(p + "rerouted", svc.rerouted());
  report.set(p + "flows_leaked", fabric.stats().flows_in_flight);
}

// -- Scenario A: steady state, batching on/off ------------------------

void run_steady(bool batching, core::MetricsReport& report,
                const std::string& p,
                std::unique_ptr<trace::Tracer>* tracer_out) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(4, 2, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec pod;
  pod.name = "api";
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  pod.anti_affinity_group = "api";  // one replica per node
  orch::DeploymentController deploy(orch, "api", pod, 4);

  // Setup-heavy classes: 6 ms per batch, 1.5 ms per request. batch=1
  // gives 7.5 ms/request (133 req/s/replica, 533 aggregate — short of
  // the 600 req/s offered); batch=8 amortizes to 2.25 ms (444
  // req/s/replica).
  std::vector<serve::RequestClass> classes(2);
  classes[0].name = "rank";
  classes[0].tenant = "alpha";
  classes[1].name = "embed";
  classes[1].tenant = "beta";
  for (auto& klass : classes) {
    klass.compute_cost = util::millis(1.5);
    klass.batch_setup = util::millis(6);
    klass.slo = util::millis(100);
  }

  serve::ServiceConfig config;
  config.policy = serve::BalancePolicy::kPowerOfTwo;
  config.replica.queue_limit = 64;
  config.replica.batch.max_batch = batching ? 8 : 1;
  config.replica.batch.max_linger = util::millis(1);
  serve::Service service(sim, fabric, deploy, classes, config);

  std::unique_ptr<trace::Tracer> tracer;
  if (tracer_out) {
    tracer = std::make_unique<trace::Tracer>(sim);
    fabric.set_tracer(tracer.get());
    service.set_tracer(tracer.get());
  }

  serve::GeneratorConfig gen;
  gen.phases = {{util::seconds(10), 600.0}};
  gen.class_weights = {0.7, 0.3};
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = util::seconds(10);
  gen.seed = 0xf12a;
  serve::RequestGenerator generator(sim, gen, service.sink());
  generator.start();

  sim.run();

  snapshot(service, fabric, report, p);
  if (tracer) {
    tracer->close_open_spans();
    *tracer_out = std::move(tracer);
  }
}

// -- Scenario B: slow replica, routing policy + hedging ---------------

void run_slow_replica(serve::BalancePolicy policy, bool hedging,
                      core::MetricsReport& report, const std::string& p,
                      std::unique_ptr<trace::Tracer>* tracer_out) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(6, 2, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec pod;
  pod.name = "api";
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  pod.anti_affinity_group = "api";
  orch::DeploymentController deploy(orch, "api", pod, 6);

  std::vector<serve::RequestClass> classes(1);
  classes[0].name = "rank";
  classes[0].compute_cost = util::millis(2);
  classes[0].batch_setup = util::millis(2);
  classes[0].slo = util::millis(100);

  serve::ServiceConfig config;
  config.policy = policy;
  config.replica.queue_limit = 64;
  config.replica.batch.max_batch = 4;
  config.replica.batch.max_linger = util::micros(500);
  config.hedging = hedging;
  serve::Service service(sim, fabric, deploy, classes, config);

  // One replica's node runs 4x slower from 1 s on: 16 ms per singleton
  // batch against a 6.7 ms per-replica arrival budget.
  const auto compute = cluster.nodes_with_label("role=compute");
  fault::GrayInjector gray(sim);
  fault::connect(gray, service);
  gray.schedule_slow_node(compute[0], /*cpu=*/4.0, /*accel=*/1.0,
                          util::seconds(1), util::seconds(60));

  std::unique_ptr<trace::Tracer> tracer;
  if (tracer_out) {
    tracer = std::make_unique<trace::Tracer>(sim);
    fabric.set_tracer(tracer.get());
    service.set_tracer(tracer.get());
    gray.set_tracer(tracer.get());
  }

  serve::GeneratorConfig gen;
  gen.phases = {{util::seconds(10), 900.0}};
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = util::seconds(10);
  gen.seed = 0xf12b;
  serve::RequestGenerator generator(sim, gen, service.sink());
  generator.start();

  sim.run();

  snapshot(service, fabric, report, p);
  if (tracer) {
    tracer->close_open_spans();
    *tracer_out = std::move(tracer);
  }
}

// -- Scenario C: arrival spike, admission shedding on/off -------------

void run_spike(bool shedding, core::MetricsReport& report,
               const std::string& p) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(3, 2, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec pod;
  pod.name = "api";
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  pod.anti_affinity_group = "api";
  orch::DeploymentController deploy(orch, "api", pod, 3);

  std::vector<serve::RequestClass> classes(1);
  classes[0].name = "rank";
  classes[0].compute_cost = util::millis(1.5);
  classes[0].batch_setup = util::millis(6);
  classes[0].slo = util::millis(100);

  serve::ServiceConfig config;
  config.policy = serve::BalancePolicy::kPowerOfTwo;
  config.replica.queue_limit = 128;
  config.replica.batch.max_batch = 8;
  config.replica.batch.max_linger = util::millis(1);
  config.admission.enabled = shedding;
  // Queueing may eat 15 ms of the 100 ms SLO; a 15 ms confirmation
  // interval engages the ramp before the bounded queues can build a
  // standing backlog that would itself blow the budget.
  config.admission.target = util::millis(15);
  config.admission.interval = util::millis(15);
  serve::Service service(sim, fabric, deploy, classes, config);

  // 300 req/s baseline, 1800 req/s spike for 4 s against ~1333 req/s of
  // fully-batched capacity, then recovery.
  serve::GeneratorConfig gen;
  gen.phases = {{util::seconds(4), 300.0},
                {util::seconds(8), 1800.0},
                {util::seconds(16), 300.0}};
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = util::seconds(16);
  gen.seed = 0xf12c;
  serve::RequestGenerator generator(sim, gen, service.sink());
  generator.start();

  sim.run();

  snapshot(service, fabric, report, p);
}

// -- Scenario D: latency-aware autoscaling ----------------------------

void run_autoscale(core::MetricsReport& report) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(12, 2, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec pod;
  pod.name = "api";
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  pod.anti_affinity_group = "api";
  orch::DeploymentController deploy(orch, "api", pod, 2);

  std::vector<serve::RequestClass> classes(1);
  classes[0].name = "rank";
  classes[0].compute_cost = util::millis(2);
  classes[0].batch_setup = util::millis(2);
  classes[0].slo = util::millis(100);

  serve::ServiceConfig config;
  config.policy = serve::BalancePolicy::kPowerOfTwo;
  config.replica.queue_limit = 128;
  config.replica.batch.max_batch = 4;
  config.replica.batch.max_linger = util::micros(500);
  // Brownout while capacity catches up: shed at the front door during
  // the minute it takes the autoscaler to observe, scale, and start
  // pods, instead of letting every queue saturate.
  config.admission.enabled = true;
  config.admission.target = util::millis(20);
  config.admission.interval = util::millis(20);
  serve::Service service(sim, fabric, deploy, classes, config);

  serve::ScalingSignalConfig sconfig;
  sconfig.window = util::seconds(5);
  sconfig.delay_target = util::millis(20);
  sconfig.capacity_per_replica = 400.0;  // full-batch replica throughput
  sconfig.target_inflight_per_replica = 16.0;
  serve::ScalingSignal signal(sim, sconfig);
  service.attach_signal(&signal);

  orch::AutoscalerConfig aconfig;
  aconfig.capacity_per_replica = 400.0;
  aconfig.target_utilization = 0.7;
  aconfig.min_replicas = 2;
  aconfig.max_replicas = 12;
  aconfig.interval = util::seconds(2);
  aconfig.scale_down_window = util::seconds(20);
  orch::HorizontalAutoscaler hpa(
      sim, deploy, [&signal] { return signal.load(); }, aconfig);
  hpa.start();

  // 300 req/s cruise, a 2000 req/s surge from 20 s to 40 s (needs ~8
  // replicas at 70% target utilization), then cruise again so the
  // stabilization window can walk the fleet back down.
  serve::GeneratorConfig gen;
  gen.phases = {{util::seconds(20), 300.0},
                {util::seconds(40), 2000.0},
                {util::seconds(70), 300.0}};
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = util::seconds(70);
  gen.seed = 0xf12d;
  serve::RequestGenerator generator(sim, gen, service.sink());
  generator.start();

  int peak = deploy.desired();
  for (util::TimeNs t = 0; t < util::seconds(70); t += util::seconds(1)) {
    sim.at(t, [&deploy, &peak] { peak = std::max(peak, deploy.desired()); });
  }

  sim.run_until(util::seconds(71));
  hpa.stop();
  sim.run();

  snapshot(service, fabric, report, "autoscale_");
  report.set("autoscale_peak_replicas", peak);
  report.set("autoscale_final_replicas", deploy.desired());
  report.set("autoscale_scale_ups", hpa.scale_ups());
  report.set("autoscale_scale_downs", hpa.scale_downs());
}

std::string ms(double v) { return util::fixed(v, 1) + " ms"; }

}  // namespace

int main(int argc, char** argv) {
  const bool tracing = core::has_flag(argc, argv, "--trace");

  core::MetricsReport report("f12_serving");
  std::unique_ptr<trace::Tracer> steady_tr, slow_tr;
  run_steady(true, report, "steady_batch_on_", tracing ? &steady_tr : nullptr);
  run_steady(false, report, "steady_batch_off_", nullptr);
  run_slow_replica(serve::BalancePolicy::kRoundRobin, false, report,
                   "slow_rr_", nullptr);
  run_slow_replica(serve::BalancePolicy::kPowerOfTwo, false, report,
                   "slow_p2c_", nullptr);
  run_slow_replica(serve::BalancePolicy::kPowerOfTwo, true, report,
                   "slow_p2c_hedge_", tracing ? &slow_tr : nullptr);
  run_spike(true, report, "spike_shed_on_");
  run_spike(false, report, "spike_shed_off_");
  run_autoscale(report);

  const core::Column shed("shed", [](const core::Row& r) {
    return std::to_string(r["shed_admission"].count() +
                          r["shed_queue_full"].count());
  });
  core::Table("F12a: 600 req/s on 4 replicas — dynamic batching", report,
              "batching",
              {{"on (max 8)", "steady_batch_on_"},
               {"off (batch=1)", "steady_batch_off_"}},
              {{"completed", "completed"},
               {"goodput", "goodput"},
               shed,
               {"p50", "p50_ms", ms},
               {"p99", "p99_ms", ms},
               {"mean batch", "mean_batch", core::decimals(2)}})
      .print();
  std::cout << "\n";
  core::Table("F12b: one 4x-slow replica of 6 — routing + hedging", report,
              "policy",
              {{"round-robin", "slow_rr_"},
               {"p2c", "slow_p2c_"},
               {"p2c + hedge", "slow_p2c_hedge_"}},
              {{"goodput", "goodput"},
               shed,
               {"p50", "p50_ms", ms},
               {"p99", "p99_ms", ms},
               {"p99.9", "p999_ms", ms},
               {"hedges", "hedges"},
               {"wins", "hedge_wins"}})
      .print();
  std::cout << "\n";
  core::Table("F12c: 6x arrival spike — CoDel admission shedding", report,
              "shedding",
              {{"on", "spike_shed_on_"}, {"off", "spike_shed_off_"}},
              {{"completed", "completed"},
               {"goodput", "goodput"},
               {"shed adm", "shed_admission"},
               {"shed full", "shed_queue_full"},
               {"slo viol", "slo_violations"},
               {"p99", "p99_ms", ms}})
      .print();
  std::cout << "\n";
  core::Table("F12d: 20 s surge — latency-aware autoscaling", report,
              "replicas", {{"2..12", "autoscale_"}},
              {{"peak", "peak_replicas"},
               {"final", "final_replicas"},
               {"ups", "scale_ups"},
               {"downs", "scale_downs"},
               {"goodput", "goodput"},
               {"p99", "p99_ms", ms},
               shed})
      .print();

  const auto p99 = [&report](const std::string& p) {
    return ms(report.get(p + "p99_ms").real());
  };
  const core::Row autoscaled(report, "autoscale_");
  std::cout << "\nShape check: batching lifts goodput "
            << report.get("steady_batch_off_goodput").count() << " -> "
            << report.get("steady_batch_on_goodput").count()
            << ", p2c cuts slow-replica p99 " << p99("slow_rr_") << " -> "
            << p99("slow_p2c_") << " (hedged " << p99("slow_p2c_hedge_")
            << "), shedding holds the spike's admitted p99 at "
            << p99("spike_shed_on_") << " (vs " << p99("spike_shed_off_")
            << "), and the autoscaler rides the surge to "
            << autoscaled["peak_replicas"].count() << " replicas and back to "
            << autoscaled["final_replicas"].count() << ".\n";

  if (tracing) {
    std::cout << "wrote "
              << trace::write_chrome_trace(
                     "f12_serving", {{"f12/steady-batching", steady_tr.get()},
                                     {"f12/slow-replica", slow_tr.get()}})
              << "\n";
  }
  if (core::has_flag(argc, argv, "--json")) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
