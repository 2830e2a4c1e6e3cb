// F14 — Durability under correlated failure: redundancy policies,
// rack-aware placement, degraded reads, and throttled rebuild.
//
// One testbed (4 compute + 12 storage servers over 4 racks) runs a
// foreground GET workload while a storage node dies and then a whole
// rack goes dark. Two sweeps:
//
//   F14a  four redundancy policies (R2, R3, EC(4,2), EC(8,3)), each run
//         with unthrottled and throttled background rebuild: objects
//         lost, degraded reads and their p99, foreground-GET p99 with
//         the rebuild throttle off vs on, and at-risk fragment-seconds.
//   F14b  rack-aware vs rack-oblivious EC(4,2) placement under a
//         schedule that downs every rack in turn: the rack cap keeps
//         every stripe at <= m dead fragments (zero loss) while pure
//         HRW placement overfills some rack and loses objects.
//
// `--json` writes BENCH_f14_durability.json; every column is simulated
// and deterministic, so the baseline is diffed bit for bit in check.sh.
#include <algorithm>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "fault/fault_injector.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

using namespace evolve;

namespace {

constexpr int kComputeNodes = 4;
constexpr int kStorageNodes = 12;
constexpr int kRacks = 4;
constexpr util::Bytes kObjectBytes = 4 * util::kMiB;

struct Policy {
  std::string name;    // table label
  std::string prefix;  // json metric prefix
  storage::Redundancy redundancy;
  int replicas = 0;   // kReplication
  int ec_data = 0;    // kErasure
  int ec_parity = 0;
};

const std::vector<Policy> kPolicies = {
    {"R2", "r2", storage::Redundancy::kReplication, 2, 0, 0},
    {"R3", "r3", storage::Redundancy::kReplication, 3, 0, 0},
    {"EC(4,2)", "ec4_2", storage::Redundancy::kErasure, 0, 4, 2},
    {"EC(8,3)", "ec8_3", storage::Redundancy::kErasure, 0, 8, 3},
};

storage::ObjectStoreConfig make_config(const Policy& p) {
  storage::ObjectStoreConfig config;
  config.redundancy = p.redundancy;
  if (p.redundancy == storage::Redundancy::kReplication) {
    config.replicas = p.replicas;
  } else {
    config.ec_data = p.ec_data;
    config.ec_parity = p.ec_parity;
  }
  config.repair_delay = util::millis(50);
  return config;
}

struct PolicyResult {
  std::int64_t objects_lost = 0;
  std::int64_t degraded_reads = 0;
  double degraded_p99_us = 0;
  double get_p99_us = 0;
  double at_risk_fragment_s = 0;
  std::int64_t objects_repaired = 0;
  double rebuild_wait_s = 0;
};

/// F14a scenario: 32 objects, a storage-node crash at 100ms, a whole
/// rack dark from 600ms to 900ms, 160 foreground GETs over [0, 1.6s].
PolicyResult run_policy(const Policy& policy, double rebuild_bytes_per_s) {
  sim::Simulation sim;
  auto cluster =
      cluster::make_testbed(kComputeNodes, kStorageNodes, 0, kRacks);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  auto config = make_config(policy);
  config.rebuild_bandwidth_bytes_per_s = rebuild_bytes_per_s;
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"),
                             config);
  fault::FaultInjector injector(sim);
  fault::connect(injector, store);

  store.create_bucket("d");
  constexpr int kObjects = 32;
  for (int i = 0; i < kObjects; ++i) {
    store.preload({"d", util::numbered("o", i)}, kObjectBytes);
  }

  const auto servers = store.servers();
  injector.schedule_outage(servers[0], util::millis(100), util::seconds(2));
  injector.schedule_rack_outage(cluster, /*rack=*/2, util::millis(600),
                                util::millis(300));

  const auto compute = cluster.nodes_with_label("role=compute");
  constexpr int kGets = 160;
  for (int g = 0; g < kGets; ++g) {
    sim.at(util::micros(10'000.0 * g), [&, g] {
      store.get(compute[static_cast<std::size_t>(g % kComputeNodes)],
                {"d", util::numbered("o", g % kObjects)},
                [](const storage::GetResult&) {});
    });
  }
  sim.run();

  PolicyResult r;
  r.objects_lost = store.durability_stats().objects_lost;
  const auto& m = store.metrics();
  if (m.has_histogram("degraded_get_latency_us")) {
    const auto& h = m.histogram("degraded_get_latency_us");
    r.degraded_reads = h.count();
    r.degraded_p99_us = static_cast<double>(h.p99());
  }
  if (m.has_histogram("get_latency_us")) {
    r.get_p99_us =
        static_cast<double>(m.histogram("get_latency_us").p99());
  }
  r.at_risk_fragment_s = store.at_risk_fragment_seconds();
  r.objects_repaired = m.counter("objects_repaired");
  r.rebuild_wait_s = store.rebuild_throttle_wait_seconds();
  return r;
}

/// F14b scenario: EC(4,2) x 48 objects; every rack goes dark for 200ms
/// in turn, with two seconds between outages for rebuild to restore
/// full redundancy. Rack-aware placement caps every stripe at 2 (= m)
/// fragments per rack, so no outage can kill a stripe; pure HRW packs
/// 3+ fragments of some stripes into one rack and loses them.
void run_placement(bool rack_aware, core::MetricsReport& report,
                   const std::string& p) {
  sim::Simulation sim;
  auto cluster =
      cluster::make_testbed(kComputeNodes, kStorageNodes, 0, kRacks);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  auto config =
      make_config({"", "", storage::Redundancy::kErasure, 0, 4, 2});
  config.rack_aware_placement = rack_aware;
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"),
                             config);
  fault::FaultInjector injector(sim);
  fault::connect(injector, store);

  store.create_bucket("d");
  constexpr int kObjects = 48;
  int worst_frags_per_rack = 0;
  for (int i = 0; i < kObjects; ++i) {
    const storage::ObjectKey key{"d", util::numbered("o", i)};
    store.preload(key, kObjectBytes);
    std::map<int, int> per_rack;
    for (auto n : store.locate(key)) {
      worst_frags_per_rack =
          std::max(worst_frags_per_rack, ++per_rack[cluster.node(n).rack]);
    }
  }
  for (int rack = 0; rack < kRacks; ++rack) {
    injector.schedule_rack_outage(cluster, rack, util::seconds(0.5 + 2 * rack),
                                  util::millis(200));
  }
  sim.run();
  report.set(p + "worst_frags_per_rack", worst_frags_per_rack);
  report.set(p + "objects_lost", store.durability_stats().objects_lost);
  report.set(p + "objects_repaired",
             store.metrics().counter("objects_repaired"));
}

}  // namespace

int main(int argc, char** argv) {
  core::MetricsReport report("f14_durability");

  // --- F14a: redundancy policies, throttled vs unthrottled rebuild ----
  {
    core::Table table(
        "F14a: node crash + rack outage vs redundancy policy "
        "(4 MiB objects, 12 servers / 4 racks)",
        {"policy", "overhead", "lost", "degraded reads", "degraded p99",
         "get p99 (free)", "get p99 (throttled)", "at-risk frag-s",
         "throttle wait"});
    for (const auto& policy : kPolicies) {
      const PolicyResult free_run = run_policy(policy, 0);
      const PolicyResult capped =
          run_policy(policy, 32.0 * util::kMiB);  // 32 MiB/s rebuild cap
      table.add_row(
          {policy.name,
           util::fixed(make_config(policy).storage_overhead(), 2) + "x",
           std::to_string(free_run.objects_lost),
           std::to_string(free_run.degraded_reads),
           util::fixed(free_run.degraded_p99_us / 1000.0, 2) + " ms",
           util::fixed(free_run.get_p99_us / 1000.0, 2) + " ms",
           util::fixed(capped.get_p99_us / 1000.0, 2) + " ms",
           util::fixed(capped.at_risk_fragment_s, 2),
           util::fixed(capped.rebuild_wait_s, 3) + " s"});
      report.set(policy.prefix + "_objects_lost", free_run.objects_lost);
      report.set(policy.prefix + "_degraded_reads", free_run.degraded_reads);
      report.set(policy.prefix + "_degraded_p99_us", free_run.degraded_p99_us);
      report.set(policy.prefix + "_get_p99_us", free_run.get_p99_us);
      report.set(policy.prefix + "_get_p99_us_throttled", capped.get_p99_us);
      report.set(policy.prefix + "_at_risk_fragment_s_throttled",
                 capped.at_risk_fragment_s);
      report.set(policy.prefix + "_at_risk_fragment_s",
                 free_run.at_risk_fragment_s);
      report.set(policy.prefix + "_objects_repaired",
                 free_run.objects_repaired);
      report.set(policy.prefix + "_rebuild_wait_s_throttled",
                 capped.rebuild_wait_s);
    }
    table.print();
  }

  // --- F14b: rack-aware vs rack-oblivious EC(4,2) placement -----------
  std::cout << "\n";
  {
    run_placement(true, report, "aware_");
    run_placement(false, report, "oblivious_");
    core::Table("F14b: EC(4,2), every rack downed in turn (48 objects)",
                report, "placement",
                {{"rack-aware", "aware_"}, {"rack-oblivious", "oblivious_"}},
                {{"worst frags/rack", "worst_frags_per_rack"},
                 {"objects lost", "objects_lost"},
                 {"repaired", "objects_repaired"}})
        .print();
    std::cout << "\nShape check: the rack cap holds every stripe at <= 2 "
                 "fragments per rack,\nso rack-aware placement loses "
                 "nothing while oblivious HRW loses "
              << report.get("oblivious_objects_lost").count()
              << " objects; the rebuild throttle trades slower repair "
                 "(at-risk fragment-seconds)\nfor a flatter foreground "
                 "GET p99.\n";
  }

  if (core::has_flag(argc, argv, "--json")) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
