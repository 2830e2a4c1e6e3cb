// End-to-end tests for the request-serving Service: completion
// accounting, batching, shedding, drain-aware routing, hedging, replica
// lifecycle re-routing, and full-run determinism (traced or not).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/gray.hpp"
#include "fault/partition.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "orch/controllers.hpp"
#include "orch/lease.hpp"
#include "orch/scheduler.hpp"
#include "serve/generator.hpp"
#include "serve/service.hpp"
#include "serve/signal.hpp"
#include "sim/simulation.hpp"
#include "trace/tracer.hpp"
#include "util/types.hpp"

namespace evolve::serve {
namespace {

// `compute == replicas` plus anti-affinity pins exactly one replica to
// every compute node, so node-targeted faults hit deterministically.
struct ServeFixture {
  explicit ServeFixture(int replicas)
      : cluster(cluster::make_testbed(replicas, 2, 0)),
        topology(cluster),
        fabric(sim, topology),
        orch(sim, cluster, orch::SchedulingPolicy::spreading(cluster)) {
    orch::PodSpec pod;
    pod.name = "api";
    pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
    pod.anti_affinity_group = "api";
    deploy = std::make_unique<orch::DeploymentController>(orch, "api", pod,
                                                          replicas);
    classes.resize(1);
    classes[0].name = "rank";
    classes[0].compute_cost = util::millis(2);
    classes[0].batch_setup = util::millis(1);
    classes[0].slo = util::millis(100);
  }

  Service& make_service(ServiceConfig config = {}) {
    service = std::make_unique<Service>(sim, fabric, *deploy, classes, config);
    return *service;
  }

  /// One request of class 0 from the first storage (client) node.
  Request request(util::TimeNs arrival) {
    Request req;
    req.id = next_id++;
    req.cls = 0;
    req.client = cluster.nodes_with_label("role=storage").front();
    req.arrival = arrival;
    return req;
  }

  /// Submits `n` requests spaced `gap` apart, starting `start` after
  /// the current simulation time.
  void offer(int n, util::TimeNs gap, util::TimeNs start = 0) {
    for (int i = 0; i < n; ++i) {
      const util::TimeNs at = sim.now() + start + gap * i;
      sim.at(at, [this, at] { service->submit(request(at)); });
    }
  }

  sim::Simulation sim;
  cluster::Cluster cluster;
  net::Topology topology;
  net::Fabric fabric;
  orch::Orchestrator orch;
  std::unique_ptr<orch::DeploymentController> deploy;
  std::vector<RequestClass> classes;
  std::unique_ptr<Service> service;
  RequestId next_id = 1;
};

/// After the simulation drains: every arrival ended in exactly one
/// outcome, and nothing is left assigned, parked or on the wire.
void expect_clean(const ServeFixture& f) {
  for (const auto& [name, tenant] : f.service->tenants()) {
    EXPECT_EQ(tenant.completed + tenant.shed(), tenant.arrived) << name;
  }
  EXPECT_EQ(f.service->outstanding(), 0);
  EXPECT_EQ(f.service->parked(), 0);
  EXPECT_EQ(f.fabric.stats().flows_in_flight, 0);
}

TEST(ServeService, CompletesAllAndAccountsExactly) {
  ServeFixture f(2);
  Service& svc = f.make_service();
  f.sim.run();  // replicas come up
  EXPECT_EQ(svc.replica_count(), 2);
  f.offer(40, util::millis(1));
  f.sim.run();
  const TenantStats& tenant = svc.tenant("default");
  EXPECT_EQ(tenant.arrived, 40);
  EXPECT_EQ(tenant.admitted, 40);
  EXPECT_EQ(tenant.completed, 40);
  EXPECT_EQ(tenant.shed(), 0);
  EXPECT_EQ(svc.metrics().counter("serve.completed"), 40);
  ASSERT_TRUE(svc.metrics().has_histogram("serve.latency_us"));
  EXPECT_EQ(svc.metrics().histogram("serve.latency_us").count(), 40);
  EXPECT_GT(svc.metrics().histogram("serve.latency_us").min(), 0);
  expect_clean(f);
}

TEST(ServeService, DynamicBatchingCoalesces) {
  ServeFixture f(1);
  ServiceConfig config;
  config.replica.batch.max_batch = 8;
  config.replica.batch.max_linger = util::millis(1);
  Service& svc = f.make_service(config);
  f.sim.run();
  f.offer(24, /*gap=*/0, util::millis(1));  // one simultaneous burst
  f.sim.run();
  EXPECT_EQ(svc.tenant("default").completed, 24);
  ASSERT_TRUE(svc.metrics().has_histogram("serve.batch_size"));
  EXPECT_GT(svc.metrics().histogram("serve.batch_size").mean(), 2.0);
  EXPECT_GE(svc.metrics().histogram("serve.batch_size").max(), 8);
  expect_clean(f);
}

TEST(ServeService, BatchOfOneNeverCoalesces) {
  ServeFixture f(1);
  ServiceConfig config;
  config.replica.batch.max_batch = 1;
  Service& svc = f.make_service(config);
  f.sim.run();
  f.offer(12, 0, util::millis(1));
  f.sim.run();
  EXPECT_EQ(svc.metrics().histogram("serve.batch_size").max(), 1);
  expect_clean(f);
}

TEST(ServeService, FullQueueShedsNeverLoses) {
  ServeFixture f(1);
  f.classes[0].compute_cost = util::millis(50);
  ServiceConfig config;
  config.replica.queue_limit = 2;
  config.replica.batch.max_batch = 1;
  Service& svc = f.make_service(config);
  f.sim.run();
  f.offer(20, util::micros(10), util::millis(1));
  f.sim.run();
  const TenantStats& tenant = svc.tenant("default");
  EXPECT_GT(tenant.shed_queue_full, 0);
  EXPECT_GT(tenant.completed, 0);
  EXPECT_EQ(tenant.completed + tenant.shed(), tenant.arrived);
  EXPECT_EQ(svc.metrics().counter("serve.shed_queue_full"),
            tenant.shed_queue_full);
  expect_clean(f);
}

TEST(ServeService, AdmissionShedsUnderSustainedOverload) {
  ServeFixture f(1);
  f.classes[0].compute_cost = util::millis(20);
  ServiceConfig config;
  config.replica.batch.max_batch = 1;
  config.admission.enabled = true;
  config.admission.target = util::millis(5);
  config.admission.interval = util::millis(5);
  Service& svc = f.make_service(config);
  f.sim.run();
  f.offer(100, util::millis(1), util::millis(1));
  f.sim.run();
  const TenantStats& tenant = svc.tenant("default");
  EXPECT_GT(tenant.shed_admission, 0);
  EXPECT_EQ(tenant.completed + tenant.shed(), tenant.arrived);
  EXPECT_EQ(tenant.admitted, tenant.arrived - tenant.shed_admission);
  EXPECT_GT(svc.admission().sheds(), 0);
  expect_clean(f);
}

TEST(ServeService, RouterAvoidsDrainedNode) {
  ServeFixture f(2);
  Service& svc = f.make_service();
  f.sim.run();
  std::set<cluster::NodeId> exec_nodes;
  svc.set_exec_observer(
      [&exec_nodes](cluster::NodeId node, util::TimeNs) {
        exec_nodes.insert(node);
      });
  const auto compute = f.cluster.nodes_with_label("role=compute");
  svc.conditions().set_quarantined(compute[0], true);
  EXPECT_TRUE(svc.is_node_drained(compute[0]));
  f.offer(20, util::millis(1));
  f.sim.run();
  EXPECT_EQ(svc.tenant("default").completed, 20);
  EXPECT_EQ(exec_nodes.count(compute[0]), 0u);  // never routed there
  EXPECT_EQ(exec_nodes.count(compute[1]), 1u);
  expect_clean(f);
}

// Quarantine and lease expiry drain a node for separate reasons:
// clearing one must not undrain a node the other still holds.
TEST(ServeService, DrainReasonsStayApart) {
  ServeFixture f(2);
  Service& svc = f.make_service();
  f.sim.run();
  const cluster::NodeId node = f.cluster.nodes_with_label("role=compute")[1];
  ASSERT_NE(node, orch::LeaseManager::kLeader);
  fault::PartitionInjector partitions(f.sim, f.fabric);
  orch::LeaseManager leases(f.sim, f.fabric, f.orch);
  fault::connect(leases, svc);
  leases.start();

  // Quarantined through a partition: the reconnect leaves it drained.
  svc.conditions().set_quarantined(node, true);
  fault::PartitionId cut = 0;
  f.sim.at(util::seconds(1), [&] { cut = partitions.isolate({node}); });
  f.sim.at(util::seconds(6), [&] { partitions.heal(cut); });
  bool drained_after_reconnect = false;
  f.sim.at(util::seconds(8), [&] {
    drained_after_reconnect = svc.is_node_drained(node);
    svc.conditions().set_quarantined(node, false);
  });
  // Lease-expired through a quarantine release: still drained until the
  // node reconnects.
  f.sim.at(util::seconds(10), [&] { cut = partitions.isolate({node}); });
  bool drained_after_release = false;
  f.sim.at(util::seconds(14), [&] {
    svc.conditions().set_quarantined(node, true);
    svc.conditions().set_quarantined(node, false);
    drained_after_release = svc.is_node_drained(node);
  });
  f.sim.at(util::seconds(15), [&] { partitions.heal(cut); });
  f.sim.at(util::seconds(20), [&] { leases.stop(); });
  f.sim.run();

  EXPECT_EQ(leases.expiries(), 2);
  EXPECT_EQ(leases.reconnects(), 2);
  EXPECT_TRUE(drained_after_reconnect);
  EXPECT_TRUE(drained_after_release);
  EXPECT_FALSE(svc.is_node_drained(node));
}

TEST(ServeService, AllDrainedFallsBackDegraded) {
  ServeFixture f(2);
  Service& svc = f.make_service();
  f.sim.run();
  for (const auto node : f.cluster.nodes_with_label("role=compute")) {
    svc.conditions().set_quarantined(node, true);
  }
  f.offer(10, util::millis(1));
  f.sim.run();
  // Availability over purity: requests still complete, flagged degraded.
  EXPECT_EQ(svc.tenant("default").completed, 10);
  EXPECT_GT(svc.metrics().counter("serve.routed_degraded"), 0);
  expect_clean(f);
}

TEST(ServeService, GrayWiringStretchesExecution) {
  ServeFixture f(1);
  ServiceConfig config;
  config.replica.batch.max_batch = 1;
  Service& svc = f.make_service(config);
  fault::GrayInjector gray(f.sim);
  fault::connect(gray, svc);
  f.sim.run();
  std::vector<util::TimeNs> execs;
  svc.set_exec_observer([&execs](cluster::NodeId, util::TimeNs exec) {
    execs.push_back(exec);
  });
  const auto compute = f.cluster.nodes_with_label("role=compute");
  gray.schedule_slow_node(compute[0], /*cpu=*/4.0, /*accel=*/1.0,
                          f.sim.now() + util::millis(50), util::seconds(10));
  f.offer(1, 0, util::millis(1));    // healthy
  f.offer(1, 0, util::millis(100));  // slowed 4x
  f.sim.run();
  ASSERT_EQ(execs.size(), 2u);
  EXPECT_EQ(execs[1], 4 * execs[0]);
  expect_clean(f);
}

TEST(ServeService, HedgingRescuesRequestsOnSlowReplica) {
  ServeFixture f(2);
  ServiceConfig config;
  config.policy = BalancePolicy::kLeastOutstanding;
  config.replica.batch.max_batch = 1;
  config.hedging = true;
  config.hedge_min_delay = util::millis(2);
  config.hedge_min_samples = 1 << 20;  // pin the delay to hedge_min_delay
  Service& svc = f.make_service(config);
  f.sim.run();
  // One replica 50x slow: its 3 ms singleton batch takes 150 ms, far
  // past the 2 ms hedge delay; the hedge on the healthy replica wins.
  const auto compute = f.cluster.nodes_with_label("role=compute");
  svc.conditions().set_slowdown(compute[0], 50.0, 1.0);
  f.offer(10, util::millis(20));
  f.sim.run();
  const TenantStats& tenant = svc.tenant("default");
  EXPECT_EQ(tenant.completed, 10);
  EXPECT_EQ(tenant.shed(), 0);
  EXPECT_GT(svc.hedges_launched(), 0);
  EXPECT_GT(svc.hedge_wins(), 0);
  EXPECT_GE(svc.hedges_launched(), svc.hedge_wins());
  expect_clean(f);
}

TEST(ServeService, HedgeRetiredOnTheWireCountsAsCancelled) {
  ServeFixture f(2);
  // An 8 MiB request spends ~7 ms on the 10 GbE client link. The hedge,
  // sent 5 ms after the primary, lands 5 ms after it: after the primary's
  // 3 ms batch has finished, so it retires on arrival, never executing.
  f.classes[0].request_bytes = 8 * util::kMiB;
  ServiceConfig config;
  config.policy = BalancePolicy::kLeastOutstanding;
  config.replica.batch.max_batch = 1;
  config.hedging = true;
  config.hedge_min_delay = util::millis(5);
  config.hedge_min_samples = 1 << 20;  // pin the delay to hedge_min_delay
  Service& svc = f.make_service(config);
  f.sim.run();
  f.offer(10, util::millis(200));
  f.sim.run();
  EXPECT_EQ(svc.tenant("default").completed, 10);
  EXPECT_EQ(svc.hedges_launched(), 10);
  EXPECT_EQ(svc.hedge_wins(), 0);
  EXPECT_EQ(svc.wasted_exec(), 0);
  EXPECT_EQ(svc.hedges_cancelled(), 10);
  EXPECT_EQ(svc.metrics().counter("serve.hedges_cancelled"),
            svc.hedges_cancelled());
  expect_clean(f);
}

TEST(ServeService, PrimaryCancelledByItsHedgeIsNotAHedgeCancel) {
  ServeFixture f(2);
  ServiceConfig config;
  config.policy = BalancePolicy::kRoundRobin;
  config.replica.batch.max_batch = 1;
  config.hedging = true;
  config.hedge_min_delay = util::millis(2);
  config.hedge_min_samples = 1 << 20;  // pin the delay to hedge_min_delay
  Service& svc = f.make_service(config);
  f.sim.run();
  // Round robin puts every other primary on the 50x slow replica, where
  // it queues behind the 150 ms batch ahead of it. Its hedge runs on the
  // healthy replica and wins, and the primary is cancelled in the slow
  // queue: a cancelled primary, not a cancelled hedge.
  const auto compute = f.cluster.nodes_with_label("role=compute");
  svc.conditions().set_slowdown(compute[0], 50.0, 1.0);
  f.offer(6, util::millis(1));
  f.sim.run();
  EXPECT_EQ(svc.tenant("default").completed, 6);
  // Six hedges: four win. The three primaries the healthy replica served
  // hedged onto the slow one too (its 3 ms batch outlasts the 2 ms
  // delay), and two of those hedges were still queued when their
  // primary won. Of the four losing primaries, one was executing
  // (wasted) and three were cancelled in the slow queue, which used to
  // count as hedge cancels too (5).
  EXPECT_EQ(svc.hedges_launched(), 6);
  EXPECT_EQ(svc.hedge_wins(), 4);
  EXPECT_EQ(svc.wasted_exec(), 1);
  EXPECT_EQ(svc.hedges_cancelled(),
            svc.hedges_launched() - svc.hedge_wins());
  expect_clean(f);
}

// A serve.hedge span ends when its copy retires: here one hedge is lost
// on the wire (its primary won while it crossed the fabric) and one is
// re-routed off a replica that a scale-down closes under it.
TEST(ServeService, HedgeSpansEndWithTheirCopies) {
  ServeFixture f(2);
  f.classes[0].request_bytes = 8 * util::kMiB;  // ~7 ms on the client link
  ServiceConfig config;
  config.policy = BalancePolicy::kLeastOutstanding;
  config.replica.batch.max_batch = 1;
  config.hedging = true;
  config.hedge_min_delay = util::millis(5);
  config.hedge_min_samples = 1 << 20;  // pin the delay to hedge_min_delay
  Service& svc = f.make_service(config);
  trace::Tracer tracer(f.sim);
  f.fabric.set_tracer(&tracer);
  svc.set_tracer(&tracer);
  f.sim.run();
  f.offer(1, 0);
  f.sim.run();
  EXPECT_EQ(svc.hedges_cancelled(), 1);
  // Of the next two requests, the second's primary lands on the second
  // replica, slowed so that its hedge is needed, and its hedge goes to
  // the first: the oldest, which scale(1) evicts while the hedge is on
  // the wire. The hedge re-routes to the replica its primary is on.
  const auto compute = f.cluster.nodes_with_label("role=compute");
  svc.conditions().set_slowdown(compute[1], 50.0, 1.0);
  f.offer(2, util::micros(100));
  f.sim.at(f.sim.now() + util::millis(7), [&f] { f.deploy->scale(1); });
  f.sim.run();
  EXPECT_EQ(svc.hedges_launched(), 3);
  int hedge_spans = 0;
  for (const trace::Span& span : tracer.spans()) {
    hedge_spans += span.name == "serve.hedge" ? 1 : 0;
  }
  EXPECT_EQ(hedge_spans, 4);  // the re-routed hedge opened a second span
  EXPECT_EQ(tracer.open_spans(), 0u);
  expect_clean(f);
}

TEST(ServeService, NoHedgeWithoutASecondReplica) {
  ServeFixture f(1);
  ServiceConfig config;
  config.replica.batch.max_batch = 1;
  config.hedging = true;
  config.hedge_min_delay = util::micros(100);
  config.hedge_min_samples = 1 << 20;
  Service& svc = f.make_service(config);
  f.sim.run();
  const auto compute = f.cluster.nodes_with_label("role=compute");
  svc.conditions().set_slowdown(compute[0], 20.0, 1.0);
  f.offer(5, util::millis(100));
  f.sim.run();
  EXPECT_EQ(svc.tenant("default").completed, 5);
  EXPECT_EQ(svc.hedges_launched(), 0);  // nowhere distinct to hedge to
  expect_clean(f);
}

TEST(ServeService, ScaleDownReroutesQueuedRequests) {
  ServeFixture f(3);
  f.classes[0].compute_cost = util::millis(10);
  ServiceConfig config;
  config.replica.batch.max_batch = 1;
  config.replica.queue_limit = 128;
  Service& svc = f.make_service(config);
  f.sim.run();
  EXPECT_EQ(svc.replica_count(), 3);
  f.offer(60, util::millis(1), util::millis(1));
  f.sim.at(f.sim.now() + util::millis(20), [&f] { f.deploy->scale(1); });
  f.sim.run();
  EXPECT_EQ(svc.replica_count(), 1);
  EXPECT_GT(svc.rerouted(), 0);
  const TenantStats& tenant = svc.tenant("default");
  EXPECT_EQ(tenant.completed + tenant.shed(), tenant.arrived);
  EXPECT_GT(tenant.completed, 0);
  expect_clean(f);
}

TEST(ServeService, ParkedRequestsWaitForAnyReplica) {
  ServeFixture f(1);
  Service& svc = f.make_service();
  f.sim.run();
  f.deploy->scale(0);
  f.sim.run();
  EXPECT_EQ(svc.replica_count(), 0);
  for (int i = 0; i < 3; ++i) {
    svc.submit(f.request(f.sim.now()));
  }
  EXPECT_EQ(svc.parked(), 3);
  f.sim.run();
  EXPECT_EQ(svc.parked(), 3);  // still nowhere to go
  f.deploy->scale(1);
  f.sim.run();
  EXPECT_EQ(svc.tenant("default").completed, 3);
  expect_clean(f);
}

TEST(ServeService, SignalSeesTheServingPath) {
  ServeFixture f(2);
  Service& svc = f.make_service();
  ScalingSignalConfig sconfig;
  sconfig.window = util::seconds(5);
  ScalingSignal signal(f.sim, sconfig);
  svc.attach_signal(&signal);
  f.sim.run();
  f.offer(50, util::millis(1));
  double mid_rate = 0;
  int mid_inflight = -1;
  f.sim.at(f.sim.now() + util::millis(30), [&] {
    mid_rate = signal.arrival_rate();
    mid_inflight = signal.inflight();
  });
  f.sim.run();
  EXPECT_GT(mid_rate, 0.0);
  EXPECT_GT(mid_inflight, 0);
  EXPECT_EQ(signal.inflight(), 0);  // everything drained
  expect_clean(f);
}

// Folds every routed copy of one run under `policy`: a slowed node that
// draws hedges, a quarantined node, every node drained (the degraded
// fallback), a reconnect ramp, a scale-down with requests queued, and a
// scale to zero that parks requests until replicas return. Each routing
// sends the copy over the fabric inside its copy's span (the request's
// root for the primary, its serve.hedge span for the hedge), so the
// request leg's net.transfer span names the request id, the copy index
// and the destination node at the routing time. Anti-affinity keeps one
// live replica per node, so the node at that time names the replica.
// A re-routed copy may land on the replica its sibling is live on; the
// run must still conserve requests.
std::uint64_t routing_digest(BalancePolicy policy) {
  ServeFixture f(4);
  f.classes[0].compute_cost = util::millis(3);
  ServiceConfig config;
  config.policy = policy;
  config.replica.queue_limit = 256;
  config.replica.batch.max_batch = 2;
  config.replica.batch.max_linger = util::micros(500);
  config.hedging = true;
  config.hedge_min_delay = util::millis(20);
  config.hedge_min_samples = 1 << 20;  // pin the delay to hedge_min_delay
  Service& svc = f.make_service(config);
  svc.set_reconnect_ramp(util::millis(300));
  trace::Tracer tracer(f.sim);
  f.fabric.set_tracer(&tracer);
  svc.set_tracer(&tracer);
  f.sim.run();  // replicas come up

  const auto compute = f.cluster.nodes_with_label("role=compute");
  const util::TimeNs t0 = f.sim.now();
  const auto at = [&f, t0](util::TimeNs offset, auto fn) {
    f.sim.at(t0 + offset, fn);
  };
  cluster::NodeConditions& cond = svc.conditions();
  cond.set_slowdown(compute[0], 8.0, 1.0);
  at(util::millis(200), [&] { cond.set_quarantined(compute[1], true); });
  at(util::millis(400), [&] { cond.set_quarantined(compute[1], false); });
  at(util::millis(450), [&] { cond.set_unreachable(compute[2], true, 2); });
  at(util::millis(550), [&] { cond.set_unreachable(compute[2], false, 2); });
  at(util::millis(900), [&] {
    for (const cluster::NodeId node : compute) cond.set_quarantined(node, true);
  });
  at(util::millis(1000), [&] {
    for (const cluster::NodeId node : compute) cond.set_quarantined(node, false);
  });
  at(util::millis(1100), [&f] { f.deploy->scale(2); });
  at(util::millis(1300), [&f] { f.deploy->scale(0); });
  at(util::millis(1350), [&f] { f.deploy->scale(3); });
  f.offer(1600, util::micros(1000), 0);
  f.sim.run();

  const TenantStats& tenant = svc.tenant("default");
  EXPECT_GT(tenant.completed, 0);
  EXPECT_GT(svc.hedges_launched(), 0);
  EXPECT_GT(svc.rerouted(), 0);
  EXPECT_GT(svc.metrics().counter("serve.routed_degraded"), 0);
  EXPECT_GT(svc.metrics().counter("serve.parked"), 0);

  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a
  const auto mix = [&digest](std::int64_t value) {
    digest ^= static_cast<std::uint64_t>(value);
    digest *= 1099511628211ull;
  };
  const cluster::NodeId client =
      f.cluster.nodes_with_label("role=storage").front();
  const auto attr = [](const trace::Span& span, const std::string& key) {
    for (const auto& [k, v] : span.attrs) {
      if (k == key) return std::stoll(v);
    }
    return -1LL;
  };
  std::int64_t routed = 0;
  for (const trace::Span& span : tracer.spans()) {
    if (span.name != "net.transfer" || span.parent == trace::kNoSpan) {
      continue;
    }
    if (attr(span, "src") != client) continue;  // a response leg
    const trace::Span& copy = tracer.span(span.parent);
    const bool hedge = copy.name == "serve.hedge";
    const trace::Span& root = hedge ? tracer.span(copy.parent) : copy;
    mix(root.job);
    mix(hedge ? 1 : 0);
    mix(attr(span, "dst"));
    mix(span.start);
    ++routed;
  }
  EXPECT_GT(routed, tenant.arrived);  // hedges and re-routes add copies
  expect_clean(f);
  return digest;
}

TEST(Service, RoutingDigestIsPinned) {
  EXPECT_EQ(routing_digest(BalancePolicy::kPowerOfTwo),
            3396736974003770598u);
  EXPECT_EQ(routing_digest(BalancePolicy::kLeastOutstanding),
            11842193093626495528u);
  EXPECT_EQ(routing_digest(BalancePolicy::kRoundRobin),
            6279320711378830686u);
}

// A fuller scenario (Poisson arrivals, hedging, admission, one slow
// node) must be bit-deterministic, and attaching a tracer must observe
// without perturbing.
struct ScenarioResult {
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t hedges = 0;
  std::int64_t p99 = 0;
  std::size_t spans = 0;
};

ScenarioResult run_scenario(bool traced) {
  ServeFixture f(3);
  ServiceConfig config;
  config.policy = BalancePolicy::kPowerOfTwo;
  config.replica.batch.max_batch = 4;
  config.replica.batch.max_linger = util::micros(500);
  config.hedging = true;
  config.hedge_min_delay = util::millis(5);
  config.admission.enabled = true;
  config.admission.target = util::millis(20);
  config.admission.interval = util::millis(20);
  Service& svc = f.make_service(config);
  auto tracer = std::make_unique<trace::Tracer>(f.sim);
  if (traced) {
    f.fabric.set_tracer(tracer.get());
    svc.set_tracer(tracer.get());
  }
  const auto compute = f.cluster.nodes_with_label("role=compute");
  svc.conditions().set_slowdown(compute[0], 8.0, 1.0);

  GeneratorConfig gen;
  gen.phases = {{util::seconds(2), 400.0}};
  gen.clients = f.cluster.nodes_with_label("role=storage");
  gen.horizon = util::seconds(2);
  gen.seed = 0xdead;
  RequestGenerator generator(f.sim, gen, svc.sink());
  generator.start();
  f.sim.run();

  ScenarioResult out;
  const TenantStats& tenant = svc.tenant("default");
  out.completed = tenant.completed;
  out.shed = tenant.shed();
  out.hedges = svc.hedges_launched();
  out.p99 = svc.metrics().histogram("serve.latency_us").p99();
  EXPECT_EQ(tenant.completed + tenant.shed(), tenant.arrived);
  expect_clean(f);
  if (traced) {
    tracer->close_open_spans();
    out.spans = tracer->spans().size();
  }
  return out;
}

TEST(ServeService, ScenarioIsDeterministicAndTracingIsObservational) {
  const ScenarioResult a = run_scenario(false);
  const ScenarioResult b = run_scenario(false);
  const ScenarioResult traced = run_scenario(true);
  EXPECT_GT(a.completed, 0);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.hedges, b.hedges);
  EXPECT_EQ(a.p99, b.p99);
  // The tracer records spans but changes no metric.
  EXPECT_EQ(a.completed, traced.completed);
  EXPECT_EQ(a.shed, traced.shed);
  EXPECT_EQ(a.hedges, traced.hedges);
  EXPECT_EQ(a.p99, traced.p99);
  EXPECT_GT(traced.spans, 0u);
}

}  // namespace
}  // namespace evolve::serve
