#include "dataflow/engine.hpp"

#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"

namespace evolve::dataflow {
namespace {

struct EngineFixture {
  explicit EngineFixture(int compute = 4, int storage = 4,
                         DataflowConfig config = {})
      : cluster(cluster::make_testbed(compute, storage, 0)),
        topology(cluster),
        fabric(sim, topology),
        io(sim, cluster),
        store(sim, cluster, fabric, io,
              cluster.nodes_with_label("role=storage")),
        catalog(store),
        engine(sim, cluster, fabric, io, catalog, config) {}

  void stage_dataset(const std::string& name, int partitions,
                     util::Bytes total) {
    catalog.define(storage::DatasetSpec{name, partitions, total});
    catalog.preload(name);
  }

  std::vector<ExecutorSpec> executors_on(const std::string& label,
                                         int slots = 4) {
    std::vector<ExecutorSpec> out;
    for (auto node : cluster.nodes_with_label(label)) {
      out.push_back(ExecutorSpec{node, slots});
    }
    return out;
  }

  sim::Simulation sim;
  cluster::Cluster cluster;
  net::Topology topology;
  net::Fabric fabric;
  storage::IoSubsystem io;
  storage::ObjectStore store;
  storage::DatasetCatalog catalog;
  DataflowEngine engine;
};

LogicalPlan scan_aggregate(const std::string& in, const std::string& out,
                           int reducers = 8) {
  LogicalPlan plan;
  const int src = plan.add_source(in);
  const int mapped = plan.add_map(src, "parse", 0.8, 0.5);
  const int reduced = plan.add_reduce_by_key(mapped, "agg", reducers, 0.05);
  plan.add_sink(reduced, out);
  return plan;
}

TEST(DataflowEngine, RunsSingleStagePlan) {
  EngineFixture f;
  f.stage_dataset("in", 8, 64 * util::kMiB);
  LogicalPlan plan;
  plan.add_sink(plan.add_map(plan.add_source("in"), "noop", 1.0, 0.1), "out");
  JobStats stats;
  bool done = false;
  f.engine.run(plan, f.executors_on("role=compute"), [&](const JobStats& s) {
    stats = s;
    done = true;
  });
  f.sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(stats.tasks, 8);
  EXPECT_EQ(stats.stages.size(), 1u);
  EXPECT_EQ(stats.bytes_read, 64 * util::kMiB);
  EXPECT_GT(stats.duration, 0);
  EXPECT_EQ(stats.bytes_shuffled, 0);
  // Output dataset registered and materialized.
  EXPECT_TRUE(f.catalog.defined("out"));
  EXPECT_TRUE(f.catalog.materialized("out"));
  EXPECT_NEAR(static_cast<double>(f.catalog.spec("out").total_bytes),
              static_cast<double>(64 * util::kMiB), 16.0);
}

TEST(DataflowEngine, ShuffleMovesBytes) {
  EngineFixture f;
  f.stage_dataset("in", 8, 64 * util::kMiB);
  JobStats stats;
  f.engine.run(scan_aggregate("in", "out"), f.executors_on("role=compute"),
               [&](const JobStats& s) { stats = s; });
  f.sim.run();
  EXPECT_EQ(stats.stages.size(), 2u);
  // Map output = 64MiB * 0.8; all of it crosses the shuffle.
  EXPECT_NEAR(static_cast<double>(stats.bytes_shuffled),
              64.0 * util::kMiB * 0.8, 1024.0);
  // Reduce output = shuffled * 0.05 written to the sink.
  EXPECT_NEAR(static_cast<double>(stats.bytes_written),
              64.0 * util::kMiB * 0.8 * 0.05, 1024.0);
}

TEST(DataflowEngine, StagesRunInDependencyOrder) {
  EngineFixture f;
  f.stage_dataset("in", 4, 16 * util::kMiB);
  JobStats stats;
  f.engine.run(scan_aggregate("in", "out", 4), f.executors_on("role=compute"),
               [&](const JobStats& s) { stats = s; });
  f.sim.run();
  ASSERT_EQ(stats.stages.size(), 2u);
  EXPECT_GE(stats.stages[1].start_time, stats.stages[0].finish_time);
}

TEST(DataflowEngine, JoinPlanCompletes) {
  EngineFixture f;
  f.stage_dataset("orders", 8, 32 * util::kMiB);
  f.stage_dataset("users", 4, 8 * util::kMiB);
  LogicalPlan plan;
  const int orders = plan.add_source("orders");
  const int users = plan.add_source("users");
  const int joined = plan.add_join(orders, users, "join", 8, 0.6);
  plan.add_sink(joined, "enriched");
  JobStats stats;
  f.engine.run(plan, f.executors_on("role=compute"),
               [&](const JobStats& s) { stats = s; });
  f.sim.run();
  EXPECT_EQ(stats.stages.size(), 3u);
  EXPECT_EQ(stats.tasks, 8 + 4 + 8);
  EXPECT_NEAR(static_cast<double>(stats.bytes_shuffled),
              40.0 * util::kMiB, 1024.0);
  EXPECT_TRUE(f.catalog.materialized("enriched"));
}

TEST(DataflowEngine, MoreExecutorsRunFasterOnComputeBoundPlan) {
  auto run_with = [](int executor_nodes) {
    DataflowConfig config;
    config.locality_wait = 0;  // executors are off the storage nodes anyway
    EngineFixture f(8, 4, config);
    f.stage_dataset("in", 32, 256 * util::kMiB);
    LogicalPlan plan;
    const int src = plan.add_source("in");
    // Compute-heavy transform: 20 ns/byte dominates I/O.
    const int heavy = plan.add_map(src, "featurize", 0.1, 20.0);
    plan.add_sink(heavy, "out");
    std::vector<ExecutorSpec> execs;
    for (int i = 0; i < executor_nodes; ++i) {
      execs.push_back(ExecutorSpec{i, 4});
    }
    util::TimeNs duration = 0;
    f.engine.run(plan, execs,
                 [&](const JobStats& s) { duration = s.duration; });
    f.sim.run();
    return duration;
  };
  const auto slow = run_with(1);
  const auto fast = run_with(8);
  // Speedup plateaus on the shared storage substrate (HDD reads), so we
  // assert a solid but sub-linear improvement.
  EXPECT_LT(static_cast<double>(fast), 0.7 * static_cast<double>(slow));
}

TEST(DataflowEngine, LocalityWithExecutorsOnStorageNodes) {
  DataflowConfig config;
  config.locality_wait = util::seconds(2);
  EngineFixture f(4, 4, config);
  f.stage_dataset("in", 16, 64 * util::kMiB);
  JobStats stats;
  // Executors co-located with the data (converged deployment).
  f.engine.run(scan_aggregate("in", "out", 8),
               f.executors_on("role=storage"),
               [&](const JobStats& s) { stats = s; });
  f.sim.run();
  // Every source task (stage 0) should land on a replica holder; reducer
  // tasks have no locality preference and are excluded.
  ASSERT_GE(stats.stages.size(), 1u);
  EXPECT_EQ(stats.stages[0].local_tasks, stats.stages[0].tasks);
  EXPECT_EQ(stats.stages[0].tasks, 16);
}

TEST(DataflowEngine, NoLocalityOnDisaggregatedExecutors) {
  EngineFixture f;
  f.stage_dataset("in", 16, 64 * util::kMiB);
  JobStats stats;
  f.engine.run(scan_aggregate("in", "out", 8),
               f.executors_on("role=compute"),
               [&](const JobStats& s) { stats = s; });
  f.sim.run();
  EXPECT_EQ(stats.local_tasks, 0);
}

TEST(DataflowEngine, RequiresExecutorsAndData) {
  EngineFixture f;
  f.stage_dataset("in", 4, util::kMiB);
  EXPECT_THROW(f.engine.run(scan_aggregate("in", "out"), {}, {}),
               std::invalid_argument);
  EXPECT_THROW(f.engine.run(scan_aggregate("missing", "out"),
                            f.executors_on("role=compute"), {}),
               std::invalid_argument);
  EXPECT_THROW(
      f.engine.run(scan_aggregate("in", "out"), {ExecutorSpec{999, 1}}, {}),
      std::invalid_argument);
}

TEST(DataflowEngine, ConcurrentJobsBothComplete) {
  EngineFixture f;
  f.stage_dataset("a", 8, 32 * util::kMiB);
  f.stage_dataset("b", 8, 32 * util::kMiB);
  int done = 0;
  f.engine.run(scan_aggregate("a", "out-a"), {ExecutorSpec{0, 4}},
               [&](const JobStats&) { ++done; });
  f.engine.run(scan_aggregate("b", "out-b"), {ExecutorSpec{1, 4}},
               [&](const JobStats&) { ++done; });
  f.sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(f.engine.metrics().counter("jobs_completed"), 2);
}

TEST(DataflowEngine, DefaultParallelismAppliesWhenUnset) {
  EngineFixture f;
  f.stage_dataset("in", 4, 16 * util::kMiB);
  JobStats stats;
  f.engine.run(scan_aggregate("in", "out", /*reducers=*/0),
               f.executors_on("role=compute"),
               [&](const JobStats& s) { stats = s; });
  f.sim.run();
  ASSERT_EQ(stats.stages.size(), 2u);
  EXPECT_EQ(stats.stages[1].tasks, kDefaultParallelism);
}

TEST(DataflowEngine, ChainedJobsThroughCatalog) {
  EngineFixture f;
  f.stage_dataset("raw", 8, 64 * util::kMiB);
  bool second_done = false;
  f.engine.run(scan_aggregate("raw", "stage1", 8),
               f.executors_on("role=compute"), [&](const JobStats&) {
                 // Second job consumes the first job's output dataset.
                 f.engine.run(scan_aggregate("stage1", "stage2", 4),
                              f.executors_on("role=compute"),
                              [&](const JobStats&) { second_done = true; });
               });
  f.sim.run();
  EXPECT_TRUE(second_done);
  EXPECT_TRUE(f.catalog.materialized("stage2"));
}

}  // namespace
}  // namespace evolve::dataflow
