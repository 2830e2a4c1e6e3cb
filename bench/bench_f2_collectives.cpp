// F2 — HPC collectives: allreduce latency vs message size and algorithm
// (16 nodes), and vs node count at a fixed 4 MiB payload. `--json`
// writes BENCH_f2_collectives.json (fully deterministic).
#include <iostream>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "hpc/communicator.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "util/strings.hpp"

using namespace evolve;

namespace {

util::TimeNs allreduce_time(int nodes, util::Bytes bytes,
                            hpc::CollectiveAlgo algo) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(nodes, 0, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  std::vector<cluster::NodeId> ranks;
  for (int i = 0; i < nodes; ++i) ranks.push_back(i);
  hpc::Communicator comm(sim, fabric, ranks);
  util::TimeNs done = -1;
  comm.allreduce(bytes, algo, [&] { done = sim.now(); });
  sim.run();
  return done;
}

const std::vector<std::pair<const char*, hpc::CollectiveAlgo>> kAlgos = {
    {"linear", hpc::CollectiveAlgo::kLinear},
    {"tree", hpc::CollectiveAlgo::kTree},
    {"rec-dbl", hpc::CollectiveAlgo::kRecursiveDoubling},
    {"ring", hpc::CollectiveAlgo::kRing},
};

}  // namespace

int main(int argc, char** argv) {
  core::MetricsReport report("f2_collectives");
  std::vector<core::Column> algo_columns;
  for (const auto& [name, algo] : kAlgos) {
    algo_columns.push_back({name, std::string(name) + "_ns", core::nanos});
  }
  {
    std::vector<std::pair<std::string, std::string>> rows;
    for (util::Bytes bytes :
         {util::kKiB, 32 * util::kKiB, util::kMiB, 8 * util::kMiB,
          64 * util::kMiB}) {
      const std::string p = util::numbered("size_", bytes) + "B_";
      for (const auto& [name, algo] : kAlgos) {
        report.set(p + name + "_ns", allreduce_time(16, bytes, algo));
      }
      rows.emplace_back(util::human_bytes(bytes), p);
    }
    core::Table("F2a: allreduce time vs message size (16 ranks)", report,
                "size", rows, algo_columns)
        .print();
  }
  std::cout << "\n";
  {
    std::vector<std::pair<std::string, std::string>> rows;
    for (int ranks : {2, 4, 8, 16, 32}) {
      const std::string p = util::numbered("ranks_", ranks) + "_";
      for (const auto& [name, algo] : kAlgos) {
        report.set(p + name + "_ns",
                   allreduce_time(ranks, 4 * util::kMiB, algo));
      }
      rows.emplace_back(std::to_string(ranks), p);
    }
    core::Table("F2b: 4 MiB allreduce vs rank count", report, "ranks", rows,
                algo_columns)
        .print();
  }
  std::cout << "\n";
  {
    // Extended collective set at a fixed 4 MiB payload, 16 ranks.
    auto timed = [&report](const std::string& key, auto&& invoke) {
      sim::Simulation sim;
      auto cluster = cluster::make_testbed(16, 0, 0);
      net::Topology topology(cluster);
      net::Fabric fabric(sim, topology);
      std::vector<cluster::NodeId> ranks;
      for (int i = 0; i < 16; ++i) ranks.push_back(i);
      hpc::Communicator comm(sim, fabric, ranks);
      util::TimeNs done = -1;
      invoke(comm, [&sim, &done] { done = sim.now(); });
      sim.run();
      report.set(key + "_ns", done);
    };
    const util::Bytes mb4 = 4 * util::kMiB;
    timed("scatter", [&](hpc::Communicator& c, auto cb) {
      c.scatter(0, mb4 / 16, cb);
    });
    timed("gather", [&](hpc::Communicator& c, auto cb) {
      c.gather(0, mb4 / 16, cb);
    });
    timed("allgather", [&](hpc::Communicator& c, auto cb) {
      c.allgather(mb4 / 16, cb);
    });
    timed("reduce_scatter", [&](hpc::Communicator& c, auto cb) {
      c.reduce_scatter(mb4, cb);
    });
    timed("alltoall", [&](hpc::Communicator& c, auto cb) {
      c.alltoall(mb4 / 16, cb);
    });
    timed("barrier", [&](hpc::Communicator& c, auto cb) { c.barrier(cb); });
    core::Table("F2c: extended collectives (16 ranks, 4 MiB payload)", report,
                "collective",
                {{"scatter (tree)", "scatter_"},
                 {"gather (tree)", "gather_"},
                 {"allgather (ring)", "allgather_"},
                 {"reduce-scatter (ring)", "reduce_scatter_"},
                 {"alltoall", "alltoall_"},
                 {"barrier", "barrier_"}},
                {{"time", "ns", core::nanos}})
        .print();
  }
  std::cout << "\nShape check: recursive doubling wins small messages "
               "(latency-bound);\nring wins large messages (bandwidth-"
               "optimal); linear degrades worst with scale.\n";
  if (core::has_flag(argc, argv, "--json")) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
