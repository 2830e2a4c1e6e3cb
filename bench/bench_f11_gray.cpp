// F11 — Gray failures: slow nodes, lossy links, silent corruption.
//
// Three gray-failure scenarios on the converged testbed, each run with
// the mitigation machinery on and off:
//
//   slow-node   one compute node runs 6x slower mid-run. Mitigation =
//               EWMA health scoring -> quarantine (drain + probe back
//               in) + health-driven speculative backups.
//   lossy-link  one storage server's NIC loses bandwidth and drops
//               packets. Mitigation = hedged reads (second replica read
//               after a p95-based delay, first finisher wins, loser
//               cancelled and accounted).
//   bit-rot     seeded corruption of stored replicas. Mitigation =
//               checksummed reads with transparent failover plus a
//               background scrubber that drops and re-replicates rotten
//               copies. With verification on, zero corrupted reads are
//               ever surfaced.
//
// `--json` writes BENCH_f11_gray.json; `--trace` writes
// TRACE_f11_gray.json with fault.degrade / fault.quarantine /
// store.hedge / store.scrub / df.speculate spans.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "dataflow/engine.hpp"
#include "fault/gray.hpp"
#include "fault/health.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

using namespace evolve;

namespace {

constexpr int kComputeNodes = 8;
constexpr int kStorageNodes = 4;

// -- Scenario A: slow node --------------------------------------------

void run_slow_node(bool mitigate, core::MetricsReport& report,
                   const std::string& p,
                   std::unique_ptr<trace::Tracer>* tracer_out) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(kComputeNodes, kStorageNodes, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"));
  storage::DatasetCatalog catalog(store);

  dataflow::DataflowConfig dconfig;
  dconfig.locality_wait = 0;
  dconfig.health_speculation = mitigate;
  dataflow::DataflowEngine engine(sim, cluster, fabric, io, catalog, dconfig);

  fault::GrayInjector gray(sim);
  fault::connect(gray, engine);  // the slowdown itself hits either way

  // Tasks in one stage vary in input size, so per-node mean service
  // times are noisy; a 3x flag threshold sits safely between that noise
  // and the injected 6x slowdown.
  fault::HealthScorerConfig hconfig;
  hconfig.flag_ratio = 3.0;
  hconfig.clear_ratio = 1.5;
  hconfig.min_samples = 8;
  fault::HealthScorer scorer(sim, hconfig);
  fault::QuarantineController quarantine(sim, scorer);
  if (mitigate) {
    fault::connect(engine, scorer);
    fault::connect(quarantine, engine);
    fault::connect(gray, quarantine);
  }

  std::unique_ptr<trace::Tracer> tracer;
  if (tracer_out) {
    tracer = std::make_unique<trace::Tracer>(sim);
    fabric.set_tracer(tracer.get());
    store.set_tracer(tracer.get());
    engine.set_tracer(tracer.get());
    gray.set_tracer(tracer.get());
    quarantine.set_tracer(tracer.get());
  }

  const auto compute = cluster.nodes_with_label("role=compute");
  std::vector<dataflow::ExecutorSpec> executors;
  for (auto node : compute) executors.push_back({node, 4});

  std::int64_t jobs_ok = 0, jobs_failed = 0;
  util::TimeNs last_finish = 0;
  constexpr int kJobs = 6;
  for (int j = 0; j < kJobs; ++j) {
    const std::string in = "in" + std::to_string(j);
    catalog.define(storage::DatasetSpec{in, 24, 192 * util::kMiB});
    catalog.preload(in, /*warm_cache=*/true);
    sim.at(util::millis(150) * j, [&, j, in] {
      dataflow::LogicalPlan plan;
      const int src = plan.add_source(in);
      // Compute-heavy map: the 6x CPU slowdown dominates I/O, so the
      // slow node's tasks become genuine stragglers.
      const int mapped = plan.add_map(src, "featurize", 0.4, 25.0);
      const int reduced = plan.add_reduce_by_key(mapped, "agg", 8, 0.05);
      plan.add_sink(reduced, "out" + std::to_string(j));
      engine.run(plan, executors, [&](const dataflow::JobStats& s) {
        s.failed ? ++jobs_failed : ++jobs_ok;
        last_finish = std::max(last_finish, sim.now());
      });
    });
  }

  // compute[2] runs 6x slower from 300ms until well past the workload.
  gray.schedule_slow_node(compute[2], /*cpu=*/6.0, /*accel=*/6.0,
                          util::millis(300), util::seconds(60));

  sim.run();

  report.set(p + "makespan_s", util::to_seconds(last_finish));
  report.set(p + "jobs_ok", jobs_ok);
  report.set(p + "jobs_failed", jobs_failed);
  report.set(p + "quarantines", quarantine.quarantines());
  report.set(p + "probes", quarantine.probes());
  report.set(p + "speculations",
             engine.metrics().counter("health_speculations"));
  report.set(p + "time_to_quarantine_ms",
             quarantine.mean_time_to_quarantine_ms());
  if (tracer) {
    tracer->close_open_spans();
    *tracer_out = std::move(tracer);
  }
}

// -- Scenarios B/C: storage GET workload ------------------------------

/// Shared GET-workload harness: preloads objects, streams seeded reads
/// from compute-node clients, and reports latency + mitigation stats.
void run_storage_scenario(bool lossy_nic, bool bitrot, bool mitigate,
                          core::MetricsReport& report, const std::string& p,
                          std::unique_ptr<trace::Tracer>* tracer_out) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(kComputeNodes, kStorageNodes, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);

  storage::ObjectStoreConfig sconfig;
  sconfig.replicas = 2;
  sconfig.repair_delay = util::millis(100);
  if (lossy_nic && mitigate) {
    sconfig.hedged_reads = true;
  }
  if (bitrot && mitigate) {
    sconfig.checksum_reads = true;
    sconfig.scrub = true;
    sconfig.scrub_interval = util::millis(200);
  }
  const auto storage_nodes = cluster.nodes_with_label("role=storage");
  storage::ObjectStore store(sim, cluster, fabric, io, storage_nodes,
                             sconfig);

  fault::GrayInjector gray(sim);
  fault::connect(gray, fabric);
  fault::connect(gray, store);

  std::unique_ptr<trace::Tracer> tracer;
  if (tracer_out) {
    tracer = std::make_unique<trace::Tracer>(sim);
    fabric.set_tracer(tracer.get());
    store.set_tracer(tracer.get());
    gray.set_tracer(tracer.get());
  }

  constexpr int kObjects = 48;
  constexpr int kGets = 320;
  store.create_bucket("data");
  for (int i = 0; i < kObjects; ++i) {
    store.preload({"data", "obj-" + std::to_string(i)}, 4 * util::kMiB);
  }

  if (lossy_nic) {
    // storage[0]'s NIC: 30% of nominal bandwidth, 20% loss, +200us.
    fault::NicDegradation nic;
    nic.bandwidth_factor = 0.3;
    nic.loss = 0.2;
    nic.extra_latency = util::micros(200);
    gray.schedule_nic_degradation(storage_nodes[0], nic, util::millis(100),
                                  util::seconds(60));
  }
  if (bitrot) {
    gray.schedule_bitrot(util::millis(50), /*seed=*/0xb17507, /*replicas=*/24);
  }

  const auto compute = cluster.nodes_with_label("role=compute");
  util::Rng rng(0xf11);
  util::TimeNs at = util::millis(120);
  for (int g = 0; g < kGets; ++g) {
    const auto client =
        compute[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(compute.size()) - 1))];
    const std::string name =
        "obj-" + std::to_string(rng.uniform_int(0, kObjects - 1));
    sim.at(at, [&store, client, name] {
      store.get(client, {"data", name}, [](const storage::GetResult&) {});
    });
    at += util::micros(1500);
  }

  sim.run();

  double get_mean_ms = 0, get_p95_ms = 0;
  if (store.metrics().has_histogram("get_latency_us")) {
    const auto& h = store.metrics().histogram("get_latency_us");
    get_mean_ms = h.mean() / 1e3;
    get_p95_ms = static_cast<double>(h.p95()) / 1e3;
  }
  report.set(p + "get_mean_ms", get_mean_ms);
  report.set(p + "get_p95_ms", get_p95_ms);
  report.set(p + "hedges", store.hedges_launched());
  report.set(p + "hedge_wins", store.hedge_wins());
  report.set(p + "hedges_cancelled", store.hedges_cancelled());
  report.set(p + "hedge_wasted_mib",
             static_cast<double>(store.hedge_wasted_bytes()) / util::kMiB);
  report.set(p + "checksum_failures", store.checksum_failures());
  report.set(p + "corrupted_reads", store.corrupted_reads_surfaced());
  report.set(p + "replicas_scrubbed", store.replicas_scrubbed());
  report.set(p + "objects_repaired",
             store.metrics().counter("objects_repaired"));
  report.set(p + "corrupted_left", store.corrupted_replica_count());
  report.set(p + "flows_leaked", fabric.stats().flows_in_flight);
  if (tracer) {
    tracer->close_open_spans();
    *tracer_out = std::move(tracer);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool tracing = core::has_flag(argc, argv, "--trace");

  core::MetricsReport report("f11_gray");
  std::unique_ptr<trace::Tracer> slow_tr, lossy_tr, rot_tr;
  run_slow_node(true, report, "slow_on_", tracing ? &slow_tr : nullptr);
  run_slow_node(false, report, "slow_off_", nullptr);
  run_storage_scenario(true, false, true, report, "lossy_on_",
                       tracing ? &lossy_tr : nullptr);
  run_storage_scenario(true, false, false, report, "lossy_off_", nullptr);
  run_storage_scenario(false, true, true, report, "bitrot_on_",
                       tracing ? &rot_tr : nullptr);
  run_storage_scenario(false, true, false, report, "bitrot_off_", nullptr);
  const core::Row slow_on(report, "slow_on_"), slow_off(report, "slow_off_");
  const core::Row lossy_on(report, "lossy_on_"),
      lossy_off(report, "lossy_off_");
  const core::Row rot_on(report, "bitrot_on_"), rot_off(report, "bitrot_off_");
  report.set("slow_mitigation_speedup",
             slow_on["makespan_s"].real() > 0
                 ? slow_off["makespan_s"].real() / slow_on["makespan_s"].real()
                 : 0.0);
  report.set("lossy_hedge_win_rate",
             lossy_on["hedges"].count() > 0
                 ? lossy_on["hedge_wins"].real() / lossy_on["hedges"].real()
                 : 0.0);

  core::Table("F11a: slow node (6x) — quarantine + speculation", report,
              "mitigation", {{"on", "slow_on_"}, {"off", "slow_off_"}},
              {{"makespan", "makespan_s", core::decimals(2, " s")},
               {"jobs ok/fail",
                [](const core::Row& r) {
                  return std::to_string(r["jobs_ok"].count()) + "/" +
                         std::to_string(r["jobs_failed"].count());
                }},
               {"quarantines", "quarantines"},
               {"probes", "probes"},
               {"speculations", "speculations"},
               {"time-to-quarantine", "time_to_quarantine_ms",
                [](double v) {
                  return v < 0 ? "-" : util::fixed(v, 0) + " ms";
                }}})
      .print();
  std::cout << "\n";
  core::Table("F11b: lossy NIC — hedged reads", report, "mitigation",
              {{"on", "lossy_on_"}, {"off", "lossy_off_"}},
              {{"get mean", "get_mean_ms", core::decimals(2, " ms")},
               {"get p95", "get_p95_ms", core::decimals(2, " ms")},
               {"hedges", "hedges"},
               {"wins", "hedge_wins"},
               {"cancelled", "hedges_cancelled"},
               {"wasted", "hedge_wasted_mib", core::decimals(1, " MiB")}})
      .print();
  std::cout << "\n";
  core::Table("F11c: bit-rot — checksums + scrubber", report, "mitigation",
              {{"on", "bitrot_on_"}, {"off", "bitrot_off_"}},
              {{"corrupted reads", "corrupted_reads"},
               {"checksum fails", "checksum_failures"},
               {"scrubbed", "replicas_scrubbed"},
               {"repaired", "objects_repaired"},
               {"corrupted left", "corrupted_left"}})
      .print();

  std::cout << "\nShape check: mitigation cuts the slow-node makespan ("
            << util::fixed(slow_off["makespan_s"].real(), 2) << " -> "
            << util::fixed(slow_on["makespan_s"].real(), 2)
            << " s), hedging cuts lossy-link p95 ("
            << util::fixed(lossy_off["get_p95_ms"].real(), 1) << " -> "
            << util::fixed(lossy_on["get_p95_ms"].real(), 1)
            << " ms), and with checksums on "
            << rot_on["corrupted_reads"].count()
            << " corrupted reads reach callers (vs "
            << rot_off["corrupted_reads"].count() << " without).\n";

  if (tracing) {
    std::cout << "wrote "
              << trace::write_chrome_trace(
                     "f11_gray", {{"f11/slow-node", slow_tr.get()},
                                  {"f11/lossy-link", lossy_tr.get()},
                                  {"f11/bit-rot", rot_tr.get()}})
              << "\n";
  }
  if (core::has_flag(argc, argv, "--json")) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
