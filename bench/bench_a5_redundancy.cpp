// A5 — Ablation: redundancy scheme. Replication (R=2, R=3) vs erasure
// coding (4+2, 8+3): durable-capacity overhead and PUT/GET latency by
// object size. `--json` writes BENCH_a5_redundancy.json.
#include <iostream>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "util/strings.hpp"

using namespace evolve;

namespace {

struct Scheme {
  std::string name;
  storage::ObjectStoreConfig config;
};

std::vector<Scheme> schemes() {
  std::vector<Scheme> out;
  {
    storage::ObjectStoreConfig c;
    c.replicas = 2;
    out.push_back({"replication R=2", c});
  }
  {
    storage::ObjectStoreConfig c;
    c.replicas = 3;
    out.push_back({"replication R=3", c});
  }
  {
    storage::ObjectStoreConfig c;
    c.redundancy = storage::Redundancy::kErasure;
    c.ec_data = 4;
    c.ec_parity = 2;
    out.push_back({"erasure 4+2", c});
  }
  {
    storage::ObjectStoreConfig c;
    c.redundancy = storage::Redundancy::kErasure;
    c.ec_data = 8;
    c.ec_parity = 3;
    out.push_back({"erasure 8+3", c});
  }
  return out;
}

struct Measured {
  util::TimeNs put_latency;
  util::TimeNs get_cold;
  double overhead;
};

Measured measure(const storage::ObjectStoreConfig& config,
                 util::Bytes size) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(2, 12, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"),
                             config);
  store.create_bucket("b");
  Measured m{};
  util::TimeNs start = sim.now();
  util::TimeNs done = -1;
  store.put(0, {"b", "obj"}, size, [&] { done = sim.now(); });
  sim.run();
  m.put_latency = done - start;
  util::Bytes durable = 0;
  for (auto s : store.servers()) durable += store.durable_bytes(s);
  m.overhead = static_cast<double>(durable) / static_cast<double>(size);
  // Cold GET from another client (drop caches by disabling admission).
  start = sim.now();
  store.get(1, {"b", "obj"}, [&](const storage::GetResult&) {
    m.get_cold = sim.now() - start;
  });
  sim.run();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  core::MetricsReport report("a5_redundancy");
  for (util::Bytes size : {4 * util::kMiB, 64 * util::kMiB}) {
    core::Table table("A5: redundancy schemes, " + util::human_bytes(size) +
                          " objects (12 storage servers)",
                      {"scheme", "capacity overhead", "PUT", "warm GET"});
    const std::string size_prefix =
        "mib_" + std::to_string(size / util::kMiB);
    int scheme_index = 0;
    for (const Scheme& scheme : schemes()) {
      const auto m = measure(scheme.config, size);
      table.add_row({scheme.name, util::fixed(m.overhead, 2) + "x",
                     util::human_time(m.put_latency),
                     util::human_time(m.get_cold)});
      const std::string prefix =
          size_prefix + "_scheme_" + std::to_string(scheme_index++);
      report.set(prefix + "_overhead", m.overhead);
      report.set(prefix + "_put_ms",
                 static_cast<double>(m.put_latency) / 1e6);
      report.set(prefix + "_get_cold_ms",
                 static_cast<double>(m.get_cold) / 1e6);
    }
    table.print();
    std::cout << "\n";
  }
  std::cout << "Shape check: erasure coding halves the capacity overhead of "
               "3-way\nreplication; GETs pay fan-in (k fragments) plus "
               "decode, PUTs pay encode but\nmove fragments instead of full "
               "copies.\n";
  if (core::has_flag(argc, argv, "--json")) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
