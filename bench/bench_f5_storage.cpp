// F5 — Storage tiering and scaling: GET throughput and tier hit mix vs
// working-set size (tier-spill cliffs), and aggregate throughput vs
// number of storage servers.
//
// `--json` writes BENCH_f5_storage.json (all metrics are simulated and
// deterministic).
#include <iostream>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace evolve;

namespace {

struct Setup {
  sim::Simulation sim;
  cluster::Cluster cluster;
  net::Topology topology;
  net::Fabric fabric;
  storage::IoSubsystem io;
  storage::ObjectStore store;

  Setup(int compute, int storage_nodes, storage::ObjectStoreConfig config)
      : cluster(cluster::make_testbed(compute, storage_nodes, 0)),
        topology(cluster),
        fabric(sim, topology),
        io(sim, cluster),
        store(sim, cluster, fabric, io,
              cluster.nodes_with_label("role=storage"), config) {}
};

}  // namespace

int main(int argc, char** argv) {
  core::MetricsReport report("f5_storage");
  // --- Working-set sweep: hit mix and mean latency -------------------
  // Custom tier sizes (8 GiB DRAM cache + 24 GiB NVMe cache over HDD)
  // so the sweep crosses both capacity cliffs. A zipf warmup pass brings
  // the cache to steady state before measuring.
  {
    core::Table table(
        "F5a: zipfian GETs vs working-set size (8G dram + 24G nvme cache)",
        {"working set", "dram hits", "nvme hits", "hdd reads",
         "mean latency"});
    for (util::Bytes working_set :
         {4LL * util::kGiB, 16LL * util::kGiB, 48LL * util::kGiB,
          128LL * util::kGiB}) {
      sim::Simulation sim;
      cluster::Cluster cl;
      cl.add_node(cluster::make_compute_node("client", 0));
      auto server = cluster::make_storage_node("server", 0);
      server.devices[0].capacity = 8 * util::kGiB;    // dram cache
      server.devices[1].capacity = 24 * util::kGiB;   // nvme cache
      cl.add_node(server);
      net::Topology topology(cl);
      net::Fabric fabric(sim, topology);
      storage::IoSubsystem io(sim, cl);
      storage::ObjectStoreConfig config;
      config.replicas = 1;
      storage::ObjectStore store(sim, cl, fabric, io,
                                 cl.nodes_with_label("role=storage"), config);
      store.create_bucket("ws");
      const util::Bytes object = 4 * util::kMiB;
      const int objects = static_cast<int>(working_set / object);
      for (int i = 0; i < objects; ++i) {
        store.preload({"ws", util::numbered("o", i)}, object);
      }
      util::Rng rng(99);
      auto one_get = [&](bool) {
        const auto id = rng.zipf(objects, 0.9);
        store.get(0, {"ws", util::numbered("o", id)},
                  [](const storage::GetResult&) {});
        sim.run();
      };
      for (int i = 0; i < 3000; ++i) one_get(false);  // warmup
      store.metrics().reset();
      for (int i = 0; i < 2000; ++i) one_get(true);   // measured
      const auto& m = store.metrics();
      const auto mean_us = m.histogram("get_latency_us").mean();
      table.add_row(
          {util::human_bytes(working_set),
           std::to_string(m.counter("get_tier_dram")),
           std::to_string(m.counter("get_tier_nvme")),
           std::to_string(m.counter("get_tier_hdd")),
           util::human_time(static_cast<util::TimeNs>(mean_us * 1000))});
      const std::string prefix =
          "ws_" + std::to_string(working_set / util::kGiB) + "g";
      report.set(prefix + "_dram_hits", m.counter("get_tier_dram"));
      report.set(prefix + "_nvme_hits", m.counter("get_tier_nvme"));
      report.set(prefix + "_hdd_reads", m.counter("get_tier_hdd"));
      report.set(prefix + "_mean_latency_us", mean_us);
    }
    table.print();
  }

  // --- Server scaling -------------------------------------------------
  std::cout << "\n";
  {
    core::Table table(
        "F5b: aggregate GET throughput vs storage servers (16 clients)",
        {"servers", "time for 4 GiB", "throughput"});
    for (int servers : {1, 2, 4, 8}) {
      storage::ObjectStoreConfig config;
      config.replicas = 1;
      Setup s(16, servers, config);
      s.store.create_bucket("scale");
      const util::Bytes object = 16 * util::kMiB;
      const int objects = 256;  // 4 GiB total
      for (int i = 0; i < objects; ++i) {
        s.store.preload({"scale", util::numbered("o", i)}, object,
                        /*warm_cache=*/true);
      }
      int done = 0;
      for (int i = 0; i < objects; ++i) {
        s.store.get(i % 16, {"scale", util::numbered("o", i)},
                    [&](const storage::GetResult&) { ++done; });
      }
      s.sim.run();
      const double seconds = util::to_seconds(s.sim.now());
      const double gbps = 4.0 / seconds;
      table.add_row({std::to_string(servers), util::human_time(s.sim.now()),
                     util::fixed(gbps, 2) + " GiB/s"});
      const std::string prefix = "scale_" + std::to_string(servers);
      report.set(prefix + "_seconds", seconds);
      report.set(prefix + "_gib_per_s", gbps);
    }
    table.print();
  }
  std::cout << "\nShape check: latency climbs in steps as the working set "
               "spills DRAM\nthen NVMe; aggregate throughput scales with "
               "servers until client links bind.\n";
  if (core::json_mode(argc, argv)) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
