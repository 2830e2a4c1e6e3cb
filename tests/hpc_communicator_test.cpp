#include "hpc/communicator.hpp"

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "hpc/job.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"

namespace evolve::hpc {
namespace {

struct CommFixture {
  explicit CommFixture(int nodes = 8)
      : cluster(cluster::make_testbed(nodes, 0, 0)),
        topology(cluster),
        fabric(sim, topology) {
    std::vector<cluster::NodeId> ranks;
    for (int n = 0; n < nodes; ++n) ranks.push_back(n);
    comm = std::make_unique<Communicator>(sim, fabric, ranks);
  }

  sim::Simulation sim;
  cluster::Cluster cluster;
  net::Topology topology;
  net::Fabric fabric;
  std::unique_ptr<Communicator> comm;
};

TEST(Communicator, RequiresRanks) {
  CommFixture f;
  EXPECT_THROW(Communicator(f.sim, f.fabric, {}), std::invalid_argument);
}

TEST(Communicator, SendDeliversAfterTransferTime) {
  CommFixture f;
  util::TimeNs done = -1;
  f.comm->send(0, 1, 125 * util::kMiB, [&] { done = f.sim.now(); });
  f.sim.run();
  const double expected_s = 125.0 * util::kMiB / 1.25e9;
  EXPECT_NEAR(util::to_seconds(done), expected_s, 0.01 * expected_s);
  EXPECT_EQ(f.comm->metrics().counter("messages"), 1);
}

TEST(Communicator, BarrierCompletes) {
  CommFixture f;
  bool done = false;
  f.comm->barrier([&] { done = true; });
  f.sim.run();
  EXPECT_TRUE(done);
  EXPECT_GT(f.sim.now(), 0);
}

TEST(Communicator, NodeOfValidatesRank) {
  CommFixture f(4);
  EXPECT_EQ(f.comm->node_of(2), 2);
  EXPECT_THROW(f.comm->node_of(4), std::out_of_range);
  EXPECT_THROW(f.comm->node_of(-1), std::out_of_range);
}

TEST(Communicator, TreeBcastFasterThanLinearForManyRanks) {
  const util::Bytes bytes = 16 * util::kMiB;
  util::TimeNs linear_time = 0, tree_time = 0;
  {
    CommFixture f(16);
    f.comm->bcast(0, bytes, CollectiveAlgo::kLinear,
                  [&] { linear_time = f.sim.now(); });
    f.sim.run();
  }
  {
    CommFixture f(16);
    f.comm->bcast(0, bytes, CollectiveAlgo::kTree,
                  [&] { tree_time = f.sim.now(); });
    f.sim.run();
  }
  // Linear serializes 15 copies through the root's uplink; the tree
  // parallelizes across senders.
  EXPECT_LT(tree_time, linear_time / 2);
}

TEST(Communicator, RingAllreduceBeatsLinearAtLargeSize) {
  const util::Bytes bytes = 64 * util::kMiB;
  util::TimeNs ring_time = 0, linear_time = 0;
  {
    CommFixture f(8);
    f.comm->allreduce(bytes, CollectiveAlgo::kRing,
                      [&] { ring_time = f.sim.now(); });
    f.sim.run();
  }
  {
    CommFixture f(8);
    f.comm->allreduce(bytes, CollectiveAlgo::kLinear,
                      [&] { linear_time = f.sim.now(); });
    f.sim.run();
  }
  EXPECT_LT(ring_time, linear_time);
}

TEST(Communicator, RecursiveDoublingBeatsRingAtSmallSize) {
  const util::Bytes bytes = 1024;
  util::TimeNs rd_time = 0, ring_time = 0;
  {
    CommFixture f(16);
    f.comm->allreduce(bytes, CollectiveAlgo::kRecursiveDoubling,
                      [&] { rd_time = f.sim.now(); });
    f.sim.run();
  }
  {
    CommFixture f(16);
    f.comm->allreduce(bytes, CollectiveAlgo::kRing,
                      [&] { ring_time = f.sim.now(); });
    f.sim.run();
  }
  // Small messages are latency-bound: log2(16)=4 rounds beats 2*15 rounds.
  EXPECT_LT(rd_time, ring_time);
}

TEST(Communicator, AllgatherCompletes) {
  CommFixture f(4);
  bool done = false;
  f.comm->allgather(util::kMiB, [&] { done = true; });
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(Communicator, ReduceCompletes) {
  CommFixture f(5);
  bool done = false;
  f.comm->reduce(2, util::kMiB, CollectiveAlgo::kTree, [&] { done = true; });
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(Communicator, EmptyScheduleCompletesImmediately) {
  CommFixture f(1);
  bool done = false;
  f.comm->allreduce(util::kMiB, CollectiveAlgo::kRing, [&] { done = true; });
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(Communicator, IntraNodeRanksUseLoopback) {
  // Two ranks pinned to the same node: traffic never crosses the network.
  CommFixture f(2);
  Communicator local(f.sim, f.fabric, {0, 0});
  util::TimeNs done = -1;
  local.send(0, 1, 160 * util::kMiB, [&] { done = f.sim.now(); });
  f.sim.run();
  // Loopback runs at 16 GB/s vs 1.25 GB/s network.
  const double expected_s = 160.0 * util::kMiB / 16e9;
  EXPECT_NEAR(util::to_seconds(done), expected_s, 0.1 * expected_s);
}

TEST(RunMpiProgram, IteratesComputeAndAllreduce) {
  CommFixture f(4);
  MpiProgram program;
  program.iterations = 5;
  program.compute_per_iteration = util::millis(10);
  program.allreduce_bytes = util::kMiB;
  MpiRunStats stats;
  bool done = false;
  run_mpi_program(f.sim, *f.comm, program, [&](const MpiRunStats& s) {
    stats = s;
    done = true;
  });
  f.sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(stats.iterations_completed, 5);
  EXPECT_EQ(stats.compute_time, util::millis(50));
  EXPECT_GT(stats.total_time, util::millis(50));  // communication adds time
}

TEST(RunMpiProgram, SpeedupShrinksComputeOnly) {
  CommFixture f(4);
  MpiProgram fast;
  fast.iterations = 3;
  fast.compute_per_iteration = util::millis(40);
  fast.allreduce_bytes = util::kMiB;
  fast.compute_speedup = 4.0;
  MpiRunStats stats;
  run_mpi_program(f.sim, *f.comm, fast,
                  [&](const MpiRunStats& s) { stats = s; });
  f.sim.run();
  EXPECT_EQ(stats.compute_time, util::millis(30));  // 3 x 10ms
}

TEST(RunMpiProgram, ZeroIterationsCompletesInstantly) {
  CommFixture f(2);
  MpiProgram program;
  program.iterations = 0;
  bool done = false;
  run_mpi_program(f.sim, *f.comm, program,
                  [&](const MpiRunStats& s) { done = (s.total_time == 0); });
  f.sim.run();
  EXPECT_TRUE(done);
}

TEST(RunMpiProgram, ValidatesArguments) {
  CommFixture f(2);
  MpiProgram bad;
  bad.iterations = -1;
  EXPECT_THROW(run_mpi_program(f.sim, *f.comm, bad, [](const MpiRunStats&) {}),
               std::invalid_argument);
  MpiProgram bad2;
  bad2.compute_speedup = 0;
  EXPECT_THROW(run_mpi_program(f.sim, *f.comm, bad2, [](const MpiRunStats&) {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace evolve::hpc
