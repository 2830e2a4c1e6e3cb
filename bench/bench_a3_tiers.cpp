// A3 — Ablation: cache-capacity sweep. Fraction of the storage node's
// fast tiers granted to the object store, vs steady-state hit mix and
// GET latency on a zipfian read workload over a 32 GiB working set.
// `--json` writes BENCH_a3_tiers.json (fully deterministic).
#include <iostream>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace evolve;

int main(int argc, char** argv) {
  core::MetricsReport report("a3_tiers");
  std::vector<std::pair<std::string, std::string>> rows;
  for (double fraction : {0.05, 0.15, 0.40, 1.00}) {
    sim::Simulation sim;
    cluster::Cluster cl;
    cl.add_node(cluster::make_compute_node("client", 0));
    auto server = cluster::make_storage_node("server", 0);
    server.devices[0].capacity = 8 * util::kGiB;   // dram tier
    server.devices[1].capacity = 24 * util::kGiB;  // nvme tier
    cl.add_node(server);
    net::Topology topology(cl);
    net::Fabric fabric(sim, topology);
    storage::IoSubsystem io(sim, cl);
    storage::ObjectStoreConfig config;
    config.replicas = 1;
    config.cache_capacity_fraction = fraction;
    storage::ObjectStore store(sim, cl, fabric, io,
                               cl.nodes_with_label("role=storage"), config);
    store.create_bucket("ws");
    const util::Bytes object = 4 * util::kMiB;
    const int objects = static_cast<int>(32LL * util::kGiB / object);
    for (int i = 0; i < objects; ++i) {
      store.preload({"ws", util::numbered("o", i)}, object);
    }
    util::Rng rng(4242);
    auto one_get = [&] {
      store.get(0, {"ws", util::numbered("o", rng.zipf(objects, 0.9))},
                [](const storage::GetResult&) {});
      sim.run();
    };
    for (int i = 0; i < 3000; ++i) one_get();  // warmup to steady state
    store.metrics().reset();
    for (int i = 0; i < 2000; ++i) one_get();
    const auto& m = store.metrics();
    const auto& lat = m.histogram("get_latency_us");
    const std::string p = util::fixed(fraction * 100, 0) + "pct_";
    report.set(p + "dram_cap_bytes",
               static_cast<util::Bytes>(8 * util::kGiB * fraction));
    report.set(p + "nvme_cap_bytes",
               static_cast<util::Bytes>(24 * util::kGiB * fraction));
    report.set(p + "dram_hits", m.counter("get_tier_dram"));
    report.set(p + "nvme_hits", m.counter("get_tier_nvme"));
    report.set(p + "hdd_reads", m.counter("get_tier_hdd"));
    report.set(p + "mean_get_us", lat.mean());
    report.set(p + "p95_get_us", lat.p95());
    rows.emplace_back(util::fixed(fraction * 100, 0) + "%", p);
  }
  const auto bytes = [](double b) {
    return util::human_bytes(static_cast<util::Bytes>(b));
  };
  const auto micros = [](double us) {
    return util::human_time(static_cast<util::TimeNs>(us * 1000));
  };
  core::Table(
      "A3: cache capacity sweep (32 GiB working set, zipf 0.9, steady state)",
      report, "cache grant", rows,
      {{"dram cap", "dram_cap_bytes", bytes},
       {"nvme cap", "nvme_cap_bytes", bytes},
       {"dram", "dram_hits"},
       {"nvme", "nvme_hits"},
       {"hdd", "hdd_reads"},
       {"mean GET", "mean_get_us", micros},
       {"p95 GET", "p95_get_us", micros}})
      .print();
  std::cout << "\nShape check: growing the cache grant first moves reads "
               "from HDD to NVMe,\nthen concentrates the zipf head in DRAM; "
               "latency falls in two distinct steps.\n";
  if (core::has_flag(argc, argv, "--json")) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
