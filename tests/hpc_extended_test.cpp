// Tests for the extended collective set (scatter/gather/reduce-scatter/
// all-to-all).
#include <gtest/gtest.h>

#include <set>

#include "cluster/cluster.hpp"
#include "hpc/collectives.hpp"
#include "hpc/communicator.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"

namespace evolve::hpc {
namespace {

// ---- Collective schedules ------------------------------------------

TEST(ScatterSchedule, LinearIsOneRound) {
  const auto schedule = scatter_schedule(8, 0, 100, CollectiveAlgo::kLinear);
  ASSERT_EQ(schedule.size(), 1u);
  EXPECT_EQ(schedule[0].transfers.size(), 7u);
  EXPECT_EQ(schedule_bytes(schedule), 7 * 100);
}

TEST(ScatterSchedule, TreeMovesLogRoundsAndExactBytes) {
  // Binomial scatter of per-rank blocks: each rank's block crosses the
  // tree once per level it descends; total bytes = sum of block moves.
  const auto schedule = scatter_schedule(8, 0, 100, CollectiveAlgo::kTree);
  EXPECT_EQ(schedule.size(), 3u);  // log2(8)
  // Round 1 moves 4 blocks, round 2 moves 2x2, round 3 moves 4x1.
  EXPECT_EQ(schedule_bytes(schedule), (4 + 2 + 2 + 1 + 1 + 1 + 1) * 100);
}

TEST(ScatterSchedule, TreeCoversEveryRank) {
  for (int p : {2, 3, 5, 8, 13, 16}) {
    for (int root : {0, p - 1}) {
      const auto schedule = scatter_schedule(p, root, 10);
      std::set<int> reached = {root};
      for (const Round& round : schedule) {
        for (const Transfer& t : round.transfers) {
          EXPECT_TRUE(reached.count(t.src)) << "p=" << p;
          reached.insert(t.dst);
        }
      }
      EXPECT_EQ(reached.size(), static_cast<std::size_t>(p)) << "p=" << p;
    }
  }
}

TEST(ScatterSchedule, SingleRankEmpty) {
  EXPECT_TRUE(scatter_schedule(1, 0, 100).empty());
}

TEST(GatherSchedule, MirrorsScatter) {
  const auto scatter = scatter_schedule(8, 2, 100);
  const auto gather = gather_schedule(8, 2, 100);
  ASSERT_EQ(scatter.size(), gather.size());
  EXPECT_EQ(schedule_bytes(scatter), schedule_bytes(gather));
  // First gather round = reversed last scatter round.
  const auto& first = gather.front().transfers;
  const auto& last = scatter.back().transfers;
  ASSERT_EQ(first.size(), last.size());
  EXPECT_EQ(first[0].src, last[0].dst);
  EXPECT_EQ(first[0].dst, last[0].src);
}

TEST(ReduceScatterSchedule, RingStructure) {
  const auto schedule = reduce_scatter_schedule(4, 4000, 0.5);
  ASSERT_EQ(schedule.size(), 3u);  // p-1 rounds
  for (const Round& round : schedule) {
    EXPECT_EQ(round.transfers.size(), 4u);
    EXPECT_GT(round.compute, 0);
    for (const Transfer& t : round.transfers) EXPECT_EQ(t.bytes, 1000);
  }
  EXPECT_TRUE(reduce_scatter_schedule(1, 100, 0.5).empty());
}

TEST(AlltoallSchedule, RotationCoversAllPairs) {
  const int p = 5;
  const auto schedule = alltoall_schedule(p, 10);
  EXPECT_EQ(schedule.size(), static_cast<std::size_t>(p - 1));
  std::set<std::pair<int, int>> pairs;
  for (const Round& round : schedule) {
    for (const Transfer& t : round.transfers) {
      EXPECT_NE(t.src, t.dst);
      EXPECT_TRUE(pairs.emplace(t.src, t.dst).second) << "duplicate pair";
    }
  }
  EXPECT_EQ(pairs.size(), static_cast<std::size_t>(p * (p - 1)));
  EXPECT_EQ(schedule_bytes(schedule), p * (p - 1) * 10);
}

TEST(ExtendedCollectives, RunOnCommunicator) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(8, 0, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  std::vector<cluster::NodeId> ranks;
  for (int i = 0; i < 8; ++i) ranks.push_back(i);
  Communicator comm(sim, fabric, ranks);
  int done = 0;
  comm.scatter(0, util::kMiB, [&] { ++done; });
  sim.run();
  comm.gather(0, util::kMiB, [&] { ++done; });
  sim.run();
  comm.reduce_scatter(8 * util::kMiB, [&] { ++done; });
  sim.run();
  comm.alltoall(util::kMiB, [&] { ++done; });
  sim.run();
  EXPECT_EQ(done, 4);
}

}  // namespace
}  // namespace evolve::hpc
