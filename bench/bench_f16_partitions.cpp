// F16 — Network partitions and metastability defenses.
//
// One serving scenario, run twice: 8 round-robin replicas at
// 1800 req/s, three replica nodes cut off by a network partition from
// t=30 s to t=60 s. The fabric *parks* flows crossing the cut (a
// partition stalls traffic, it does not fail it), so an undefended
// router keeps feeding the black holes for the partition's whole
// duration: every swallowed request hedges onto the survivors
// (unbounded duplication), and the heal dumps thirty seconds of parked
// work onto three cold replicas at once — queue-full sheds, wasted
// exec, and a visible post-heal goodput dip: the heal-storm.
//
//   off  no leases, no retry budget, no ramp. ~27k flows park over the
//        partition; goodput stays degraded until well past the heal.
//   on   lease-based liveness (orch::LeaseManager) marks the expired
//        nodes Unreachable within the lease TTL and drains them from
//        the router, ending the leak ~2 s into the partition; a shared
//        util::RetryBudget caps the hedge storm; the post-heal
//        admission ramp re-admits the reconnected replicas gradually
//        instead of all at once.
//
// The run reports goodput (completions within SLO) and p99 in four
// windows — pre [0,30), during [30,60), recover [60,70), settled
// [70,90) — the recovery ratio recover/pre, and degraded-seconds (how
// many 1 s buckets after partition onset sat below 90% of the
// pre-partition goodput rate). The check.sh gate asserts defenses-on
// recovers to >= 90% of pre-partition goodput in the recovery window,
// beats defenses-off, and is degraded for only a few seconds while
// defenses-off is degraded for 10+.
//
// `--json` writes BENCH_f16_partitions.json (fully simulation-
// deterministic).
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "fault/partition.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "orch/controllers.hpp"
#include "orch/lease.hpp"
#include "orch/scheduler.hpp"
#include "serve/generator.hpp"
#include "serve/service.hpp"
#include "sim/simulation.hpp"
#include "util/retry_budget.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

using namespace evolve;

namespace {

constexpr util::TimeNs kPartitionAt = util::seconds(30);
constexpr util::TimeNs kHealAt = util::seconds(60);
constexpr util::TimeNs kRecoverUntil = util::seconds(70);
constexpr util::TimeNs kHorizon = util::seconds(90);

/// One time window's goodput and completion latencies (for its p99).
struct WindowStats {
  std::int64_t goodput = 0;  // completed within SLO
  std::vector<double> latencies_ms;

  double p99_ms() {
    if (latencies_ms.empty()) return 0.0;
    const std::size_t k = (latencies_ms.size() - 1) * 99 / 100;
    std::nth_element(latencies_ms.begin(), latencies_ms.begin() + k,
                     latencies_ms.end());
    return latencies_ms[k];
  }
};

/// One run, recorded into `report` under `p` ("off_" / "on_").
void run(bool defenses, core::MetricsReport& report, const std::string& p) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(8, 2, 0, 2);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec pod;
  pod.name = "api";
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  pod.anti_affinity_group = "api";  // one replica per compute node
  orch::DeploymentController deploy(orch, "api", pod, 8);

  // ~400 req/s per fully-batched replica; 1800 req/s offered leaves the
  // five partition survivors at ~90% load — enough headroom to serve
  // every request, none to absorb an unbounded hedge storm.
  std::vector<serve::RequestClass> classes(1);
  classes[0].name = "rank";
  classes[0].compute_cost = util::millis(2);
  classes[0].batch_setup = util::millis(2);
  classes[0].slo = util::millis(100);

  serve::ServiceConfig config;
  // Round-robin is the undefended baseline: nothing in the data path
  // reads queue depth, so routing around the partition is entirely the
  // lease layer's job (p2c's outstanding-count feedback would itself be
  // a partial defense and blur the comparison).
  config.policy = serve::BalancePolicy::kRoundRobin;
  config.replica.queue_limit = 64;
  config.replica.batch.max_batch = 4;
  config.replica.batch.max_linger = util::micros(500);
  config.hedging = true;
  serve::Service service(sim, fabric, deploy, classes, config);

  // Three non-leader replica nodes lose the network for 30 s.
  fault::PartitionInjector partitions(sim, fabric);
  fault::PartitionId cut = 0;
  sim.at(kPartitionAt, [&] { cut = partitions.isolate({1, 3, 5}); });
  sim.at(kHealAt, [&] { partitions.heal(cut); });

  orch::LeaseManagerConfig lease_config;
  // Grace exceeds the partition: pods are fenced, never massacred.
  lease_config.grace = util::seconds(120);
  orch::LeaseManager leases(sim, fabric, orch, lease_config);
  util::RetryBudget budget;
  if (defenses) {
    fault::connect(leases, service, /*ramp_window=*/util::seconds(5));
    service.set_retry_budget(&budget);
    leases.start();
    sim.at(kHorizon + util::seconds(5), [&leases] { leases.stop(); });
  }

  WindowStats pre, during, recover, settled;
  std::vector<std::int64_t> per_second(
      static_cast<std::size_t>(kHorizon / util::kSecond) + 5, 0);
  service.set_completion_observer(
      [&](const serve::Request&, const serve::RequestClass&,
          util::TimeNs latency, bool slo_ok) {
        WindowStats* w = sim.now() < kPartitionAt    ? &pre
                         : sim.now() < kHealAt       ? &during
                         : sim.now() < kRecoverUntil ? &recover
                                                     : &settled;
        if (slo_ok) {
          w->goodput += 1;
          const auto bucket = static_cast<std::size_t>(sim.now() / util::kSecond);
          if (bucket < per_second.size()) per_second[bucket] += 1;
        }
        w->latencies_ms.push_back(util::to_millis(latency));
      });

  serve::GeneratorConfig gen;
  gen.phases = {{kHorizon, 1800.0}};
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = kHorizon;
  gen.seed = 0xf16a;
  serve::RequestGenerator generator(sim, gen, service.sink());
  generator.start();

  sim.run();

  // Goodput rates per second of each window: pre and during span 30 s,
  // recover 10 s.
  const double pre_rate = static_cast<double>(pre.goodput) / 30.0;
  const double recover_rate = static_cast<double>(recover.goodput) / 10.0;
  // 1-second goodput buckets; degraded = below 90% of the pre-window
  // rate. With defenses the lease drain ends the degradation a TTL or so
  // into the partition; without them it lasts until the heal.
  std::int64_t degraded_seconds = 0;
  for (std::size_t sec = static_cast<std::size_t>(kPartitionAt / util::kSecond);
       sec < static_cast<std::size_t>(kHorizon / util::kSecond); ++sec) {
    if (static_cast<double>(per_second[sec]) < 0.9 * pre_rate) {
      degraded_seconds += 1;
    }
  }
  const metrics::Registry& m = service.metrics();
  report.set(p + "arrived", m.counter("serve.requests"));
  report.set(p + "completed", m.counter("serve.completed"));
  report.set(p + "shed", m.counter("serve.shed_admission") +
                             m.counter("serve.shed_queue_full"));
  report.set(p + "pre_goodput", pre.goodput);
  report.set(p + "during_goodput", during.goodput);
  report.set(p + "recover_goodput", recover.goodput);
  report.set(p + "settled_goodput", settled.goodput);
  // Recovery-window goodput rate / pre rate.
  report.set(p + "recovery_ratio",
             pre.goodput > 0 ? recover_rate / pre_rate : 0.0);
  report.set(p + "degraded_seconds", degraded_seconds);
  report.set(p + "pre_p99_ms", pre.p99_ms());
  report.set(p + "during_p99_ms", during.p99_ms());
  report.set(p + "recover_p99_ms", recover.p99_ms());
  report.set(p + "settled_p99_ms", settled.p99_ms());
  report.set(p + "hedges", service.hedges_launched());
  report.set(p + "hedges_suppressed", service.hedges_suppressed());
  report.set(p + "wasted_exec", service.wasted_exec());
  report.set(p + "expiries", defenses ? leases.expiries() : 0);
  report.set(p + "reconnects", defenses ? leases.reconnects() : 0);
  report.set(p + "evictions", defenses ? leases.evictions() : 0);
  report.set(p + "flows_parked", fabric.stats().flows_parked);
  report.set(p + "flows_leaked", fabric.stats().flows_in_flight);
}

/// A window's goodput count printed as a rate over its `span_s`.
std::function<std::string(double)> rate(double span_s) {
  return [span_s](double goodput) {
    return util::fixed(goodput / span_s, 0) + "/s";
  };
}
std::string ms(double v) { return util::fixed(v, 1) + " ms"; }

}  // namespace

int main(int argc, char** argv) {
  core::MetricsReport report("f16_partitions");
  run(false, report, "off_");
  run(true, report, "on_");

  core::Table("F16: 30 s partition of 3/8 replicas — defenses off vs on",
              report, "defenses", {{"off", "off_"}, {"on", "on_"}},
              {{"pre good", "pre_goodput", rate(30)},
               {"during good", "during_goodput", rate(30)},
               {"recover good", "recover_goodput", rate(10)},
               {"settled good", "settled_goodput", rate(20)},
               {"recovery", "recovery_ratio", core::decimals(3)},
               {"degraded s", "degraded_seconds"},
               {"during p99", "during_p99_ms", ms},
               {"recover p99", "recover_p99_ms", ms},
               {"hedges", "hedges"},
               {"suppressed", "hedges_suppressed"}})
      .print();

  const core::Row off(report, "off_"), on(report, "on_");
  std::cout << "\nShape check: defenses lift the during-partition goodput "
            << rate(30)(off["during_goodput"].real()) << " -> "
            << rate(30)(on["during_goodput"].real())
            << " and the 10 s post-heal recovery ratio "
            << util::fixed(off["recovery_ratio"].real(), 3) << " -> "
            << util::fixed(on["recovery_ratio"].real(), 3)
            << " (leases expired " << on["expiries"].count()
            << ", reconnected " << on["reconnects"].count() << ", evicted "
            << on["evictions"].count() << ", hedges suppressed "
            << on["hedges_suppressed"].count() << ").\n";

  if (core::has_flag(argc, argv, "--json")) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
