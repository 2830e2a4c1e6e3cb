// serve-spike: a stateless service riding an arrival spike. Poisson
// arrivals run steady, then spike several-fold, then steady again. The
// service routes by power-of-two choices, hedges slow requests, batches
// dynamically and sheds by CoDel admission; a latency-aware
// HorizontalAutoscaler resizes its deployment. One replica's node is
// gray-slowed, and the health scorer and quarantine react to it. Keys
// are kNone, so the generator draws no Zipf keys and nothing touches the
// object store or the tablet layer.
#include <algorithm>
#include <memory>

#include "cluster/cluster.hpp"
#include "common.hpp"
#include "fault/gray.hpp"
#include "fault/health.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "orch/autoscaler.hpp"
#include "orch/controllers.hpp"
#include "orch/scheduler.hpp"
#include "serve/generator.hpp"
#include "serve/service.hpp"
#include "serve/signal.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

using namespace evolve;

namespace {

// Six cycles of a steady stretch followed by a 2.5x spike; each steady
// stretch outlasts the autoscaler's scale-down window.
constexpr double kSteadyPerS = 1000.0;
constexpr double kSpikePerS = 2500.0;
constexpr util::TimeNs kSteadyFor = util::seconds(15);
constexpr util::TimeNs kSpikeFor = util::seconds(5);
constexpr int kCycles = 6;
constexpr util::TimeNs kHorizon = kCycles * (kSteadyFor + kSpikeFor);
constexpr util::TimeNs kSlowFrom = util::seconds(3);
constexpr util::TimeNs kSlowFor = util::seconds(10);
constexpr int kMinReplicas = 2;
constexpr int kMaxReplicas = 16;

}  // namespace

RunResult run_serve_spike(const RunOptions& options) {
  RunResult result;
  const double t_build = thread_cpu_s();
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(kMaxReplicas, 2, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  orch::Orchestrator orchestrator(sim, cluster,
                                  orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec pod;
  pod.name = "api";
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  pod.anti_affinity_group = "api";  // one replica per node
  orch::DeploymentController deploy(orchestrator, "api", pod, kMinReplicas);

  std::vector<serve::RequestClass> classes(1);
  classes[0].name = "rank";
  classes[0].compute_cost = util::millis(1);
  classes[0].batch_setup = util::millis(2);
  classes[0].slo = util::millis(50);

  serve::ServiceConfig config;
  config.policy = serve::BalancePolicy::kPowerOfTwo;
  config.replica.queue_limit = 1024;
  config.replica.batch.max_batch = 8;
  config.replica.batch.max_linger = util::millis(1);
  config.hedging = true;
  config.admission.enabled = true;
  // Sheds only under sustained overload, not while the autoscaler
  // catches up with a spike.
  config.admission.target = util::millis(100);
  config.admission.interval = util::seconds(1);
  config.seed = derive_seed(options.seed, 2);
  serve::Service service(sim, fabric, deploy, classes, config);

  serve::ScalingSignalConfig sconfig;
  sconfig.window = util::seconds(1);
  sconfig.delay_target = util::millis(20);
  sconfig.capacity_per_replica = 800.0;
  sconfig.target_inflight_per_replica = 16.0;
  serve::ScalingSignal signal(sim, sconfig);
  service.attach_signal(&signal);

  orch::AutoscalerConfig aconfig;
  // A replica serves about 800 req/s in full batches; the autoscaler
  // keeps the fleet near 60% of that, so even at steady load requests
  // often queue behind a batch.
  aconfig.capacity_per_replica = 800.0;
  aconfig.target_utilization = 0.6;
  aconfig.min_replicas = kMinReplicas;
  aconfig.max_replicas = kMaxReplicas;
  aconfig.interval = util::millis(500);
  aconfig.scale_down_window = util::seconds(5);
  int peak_replicas = deploy.desired();
  orch::HorizontalAutoscaler hpa(
      sim, deploy,
      [&] {
        peak_replicas = std::max(peak_replicas, deploy.desired());
        return signal.load();
      },
      aconfig);
  hpa.start();

  // Gray failure on the first replica's node; health scoring from batch
  // execution times flags it and quarantine drains it.
  const auto compute = cluster.nodes_with_label("role=compute");
  fault::GrayInjector gray(sim);
  fault::HealthScorer scorer(sim);
  fault::QuarantineController quarantine(sim, scorer);
  fault::connect(gray, service);
  fault::connect(service, scorer);
  fault::connect(quarantine, service);
  fault::connect(gray, quarantine);
  gray.schedule_slow_node(compute[0], /*cpu=*/3.0, /*accel=*/1.0, kSlowFrom,
                          kSlowFor);

  std::unique_ptr<trace::Tracer> tracer;
  if (options.traced) {
    tracer = std::make_unique<trace::Tracer>(sim);
    fabric.set_tracer(tracer.get());
    orchestrator.set_tracer(tracer.get());
    service.set_tracer(tracer.get());
    gray.set_tracer(tracer.get());
    quarantine.set_tracer(tracer.get());
  }
  result.build_s = thread_cpu_s() - t_build;

  const double t_stage = thread_cpu_s();
  // Room for every sample up front, so the sample buffer's growth does
  // not show in the peak memory figure.
  result.latency_ms.reserve(static_cast<std::size_t>(
      1.25 * kCycles *
      (kSteadyPerS * util::to_seconds(kSteadyFor) +
       kSpikePerS * util::to_seconds(kSpikeFor))));
  service.set_completion_observer(
      [&result](const serve::Request&, const serve::RequestClass&,
                util::TimeNs latency, bool slo_ok) {
        ++result.completed;
        if (slo_ok) ++result.within_slo;
        result.latency_ms.push_back(util::to_millis(latency));
      });
  HostTimer submit_timer(options.traced);
  serve::GeneratorConfig gen;
  for (int c = 0; c < kCycles; ++c) {
    const util::TimeNs cycle = c * (kSteadyFor + kSpikeFor);
    gen.phases.push_back({cycle + kSteadyFor, kSteadyPerS});
    gen.phases.push_back({cycle + kSteadyFor + kSpikeFor, kSpikePerS});
  }
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = kHorizon;
  gen.seed = derive_seed(options.seed, 1);
  serve::RequestGenerator generator(sim, gen, [&](serve::Request req) {
    result.arrival_digest = digest(
        digest(result.arrival_digest, req.arrival), req.client);
    submit_timer.time([&] { service.submit(std::move(req)); });
  });
  generator.start();
  sim.at(kHorizon + util::seconds(2), [&] {
    hpa.stop();
    peak_replicas = std::max(peak_replicas, deploy.desired());
    deploy.stop();
  });
  result.stage_s = thread_cpu_s() - t_stage;
  if (options.setup_only) return result;

  run_timed(sim, kHorizon, result);
  result.offered = generator.emitted();
  const serve::TenantStats& tenant = service.tenant("default");
  result.shed = tenant.shed();

  // -- Invariants at drain ---------------------------------------------
  result.check(tenant.arrived == result.offered,
               "service saw a different count than the generator made");
  result.check(result.offered == result.completed + result.shed,
               "offered requests != completed + shed");
  result.check(tenant.completed == result.completed,
               "completion observer missed completions");
  result.check(fabric.stats().flows_in_flight == 0,
               "fabric flows in flight at drain");
  result.check(orchestrator.running_count() == 0 &&
                   orchestrator.pending_count() == 0,
               "pods left bound at drain");

  // -- Per-layer metrics from public accessors -------------------------
  MetricSet& m = result.layers;
  m.set("net.flows", static_cast<double>(fabric.stats().flows_started),
        "count");
  m.set("net.bytes", static_cast<double>(fabric.stats().bytes_delivered),
        "B");
  m.set("net.flows_leaked",
        static_cast<double>(fabric.stats().flows_in_flight), "count");
  m.set("serve.shed_admission", static_cast<double>(tenant.shed_admission),
        "count");
  m.set("serve.shed_queue_full", static_cast<double>(tenant.shed_queue_full),
        "count");
  m.set("serve.mean_batch",
        service.metrics().histogram("serve.batch_size").mean(), "count");
  m.set("serve.hedges", static_cast<double>(service.hedges_launched()),
        "count");
  m.set("serve.hedge_win_frac",
        service.hedges_launched() == 0
            ? 0.0
            : static_cast<double>(service.hedge_wins()) /
                  static_cast<double>(service.hedges_launched()),
        "frac");
  m.set("serve.wasted_exec", static_cast<double>(service.wasted_exec()),
        "count");
  const metrics::Registry& om = orchestrator.metrics();
  m.set("orch.pods_started", static_cast<double>(om.counter("pods_started")),
        "count");
  m.set("orch.pod_wait_p95_s",
        static_cast<double>(om.histogram("pod_wait_ms").p95()) / 1e3, "s");
  m.set("orch.preemptions", static_cast<double>(om.counter("preemptions")),
        "count");
  m.set("orch.scale_ups", static_cast<double>(hpa.scale_ups()), "count");
  m.set("orch.peak_replicas", static_cast<double>(peak_replicas), "count");
  m.set("health.quarantines", static_cast<double>(quarantine.quarantines()),
        "count");
  m.set("health.ttq_ms", std::max(0.0, quarantine.mean_time_to_quarantine_ms()),
        "ms");

  // -- Trace-derived metrics ---------------------------------------------
  if (tracer) {
    tracer->close_open_spans();
    result.check(tracer->open_spans() == 0, "open spans after close");
    MetricSet& t = result.traced;
    const auto self = self_seconds(*tracer);
    t.set("net.sim_self_s",
          self[static_cast<std::size_t>(trace::Layer::kNetwork)], "s");
    t.set("serve.sim_queue_s", span_totals(*tracer, "serve.queue").seconds,
          "s");
    t.set("serve.host_submit_ns", submit_timer.mean_ns(), "ns");
    add_common_trace_metrics(*tracer, roots_named(*tracer, "serve.request"),
                             result);
  }
  return result;
}

}  // namespace perfbench
