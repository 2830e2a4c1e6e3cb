#include "core/platform.hpp"
#include "core/session.hpp"

#include <gtest/gtest.h>

#include "core/siloed.hpp"
#include "fault/fault_injector.hpp"
#include "fault/wiring.hpp"

#include "workloads/ml.hpp"
#include "workloads/tabular.hpp"

namespace evolve::core {
namespace {

PlatformConfig small_config() {
  PlatformConfig config;
  config.compute_nodes = 6;
  config.storage_nodes = 4;
  config.accel_nodes = 2;
  return config;
}

TEST(Platform, BringsUpAllSubsystems) {
  sim::Simulation sim;
  Platform platform(sim, small_config());
  EXPECT_EQ(platform.cluster().size(), 12);
  EXPECT_EQ(platform.store().servers().size(), 4u);
  EXPECT_EQ(platform.accel().device_count(), 4);
  EXPECT_EQ(platform.orchestrator().running_count(), 0);
}

TEST(Platform, SessionDataflowRoundTrip) {
  sim::Simulation sim;
  Platform platform(sim, small_config());
  Session session(platform);
  session.create_dataset("events", 16, 128 * util::kMiB);
  const auto stats = session.run_dataflow(
      workloads::scan_filter_aggregate("events", "summary", 8), 4, 4);
  EXPECT_GT(stats.duration, 0);
  EXPECT_EQ(stats.bytes_read, 128 * util::kMiB);
  EXPECT_TRUE(platform.catalog().materialized("summary"));
  // Executor pods were released.
  EXPECT_EQ(platform.orchestrator().running_count(), 0);
}

TEST(Platform, SessionHpcRoundTrip) {
  sim::Simulation sim;
  Platform platform(sim, small_config());
  Session session(platform);
  const auto program = workloads::sgd_program(workloads::SgdModel{}, 4);
  const auto stats = session.run_hpc(program, 4);
  EXPECT_EQ(stats.iterations_completed, 10);
  EXPECT_GT(stats.total_time, 0);
  EXPECT_EQ(platform.orchestrator().running_count(), 0);
}

TEST(Platform, SessionAccelOffload) {
  sim::Simulation sim;
  Platform platform(sim, small_config());
  Session session(platform);
  const auto elapsed = session.run_accel("encrypt", util::seconds(15));
  // encrypt speedup 15x: ~1s device time (+ reconfig + overhead).
  EXPECT_LT(elapsed, util::seconds(2));
  EXPECT_GT(elapsed, util::seconds(1) - util::millis(1));
}

TEST(Platform, ExecutorsPreferDataNodes) {
  PlatformConfig config = small_config();
  config.dataflow.locality_wait = util::seconds(5);
  sim::Simulation sim;
  Platform platform(sim, config);
  Session session(platform);
  session.create_dataset("hot", 8, 64 * util::kMiB);
  const auto stats = session.run_dataflow(
      workloads::scan_filter_aggregate("hot", "out", 4), 4, 4);
  // With locality placement on, executor pods land on the storage nodes
  // holding replicas, so source tasks are node-local.
  EXPECT_EQ(stats.stages[0].local_tasks, stats.stages[0].tasks);
}

TEST(Platform, LocalityPlacementOffLosesLocality) {
  PlatformConfig config = small_config();
  config.locality_placement = false;
  config.dataflow.locality_wait = 0;
  sim::Simulation sim;
  Platform platform(sim, config);
  Session session(platform);
  session.create_dataset("hot", 8, 64 * util::kMiB);
  const auto stats = session.run_dataflow(
      workloads::scan_filter_aggregate("hot", "out", 4), 4, 4);
  EXPECT_LT(stats.stages[0].local_tasks, stats.stages[0].tasks);
}

TEST(Platform, WorkflowMixesAllStepKinds) {
  sim::Simulation sim;
  Platform platform(sim, small_config());
  Session session(platform);
  session.create_dataset("raw", 8, 32 * util::kMiB);

  workflow::Workflow wf("mixed");
  orch::PodSpec pod;
  pod.name = "prep";
  pod.request = cluster::cpu_mem(1000, util::kGiB);
  wf.add(workflow::container_step("prep", pod, util::seconds(1)));

  auto analytics = workflow::dataflow_step(
      "analytics", workloads::scan_filter_aggregate("raw", "agg", 4), 2, 4);
  analytics.depends_on = {"prep"};
  wf.add(analytics);

  auto train = workflow::hpc_step(
      "train", workloads::sgd_program(workloads::SgdModel{.epochs = 3}, 4), 4);
  train.depends_on = {"analytics"};
  wf.add(train);

  auto score = workflow::accel_step("score", "dnn-infer", util::seconds(4));
  score.depends_on = {"train"};
  wf.add(score);

  const auto result = session.run_workflow(wf);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.steps.size(), 4u);
  for (const auto& [name, step] : result.steps) {
    EXPECT_TRUE(step.success) << name;
  }
  EXPECT_TRUE(platform.catalog().materialized("agg"));
}

TEST(Platform, WorkflowStepFailsOnMissingDataset) {
  sim::Simulation sim;
  Platform platform(sim, small_config());
  Session session(platform);
  workflow::Workflow wf("broken");
  wf.add(workflow::dataflow_step(
      "analytics", workloads::scan_filter_aggregate("ghost", "out", 4), 2, 4));
  const auto result = session.run_workflow(wf);
  EXPECT_FALSE(result.success);
}

TEST(Platform, HpcStepFailsOnUnwrittenInputInBothLayouts) {
  // One input rule: a step's named input must be materialized in some
  // catalog, whichever layout runs it.
  auto run = [](Platform& platform) {
    workflow::Workflow wf("unwritten");
    auto solve = workflow::hpc_step(
        "solve", workloads::sgd_program(workloads::SgdModel{}, 2), 2);
    solve.input_datasets = {"never-written"};
    wf.add(solve);
    workflow::WorkflowResult result;
    platform.run_workflow(
        wf, [&](const workflow::WorkflowResult& r) { result = r; });
    platform.sim().run();
    return result;
  };
  sim::Simulation converged_sim, siloed_sim;
  Platform converged(converged_sim, small_config());
  SiloedPlatform siloed(siloed_sim, small_config());
  EXPECT_FALSE(run(converged).success);
  EXPECT_FALSE(run(siloed).success);
  EXPECT_EQ(converged.orchestrator(World::kHpc)
                .metrics()
                .counter("pods_started"),
            0);
}

TEST(Platform, NodeCrashFailsHpcStep) {
  sim::Simulation sim;
  Platform platform(sim, small_config());
  orch::Orchestrator& orch = platform.orchestrator(World::kHpc);
  fault::FaultInjector injector(sim);
  fault::connect(injector, orch);
  workflow::Workflow wf("crash");
  auto solve = workflow::hpc_step(
      "solve", workloads::sgd_program(workloads::SgdModel{}, 4), 4);
  solve.max_retries = 1;
  wf.add(solve);
  int reports = 0;
  workflow::WorkflowResult result;
  platform.run_workflow(wf, [&](const workflow::WorkflowResult& r) {
    result = r;
    ++reports;
  });
  // Crash the node of one rank while the program runs: the step must
  // fail and retry, not report the orphaned program's completion.
  sim.at(util::millis(200), [&] {
    for (cluster::NodeId node : orch.managed_nodes()) {
      if (orch.node_status(node).pod_count() > 0) {
        injector.kill(node);
        return;
      }
    }
    FAIL() << "no rank pod running at the crash";
  });
  sim.run();
  EXPECT_EQ(reports, 1);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.total_retries, 1);
  EXPECT_EQ(orch.metrics().counter("gang_kills"), 3);  // 4 ranks, 1 crashed
  EXPECT_EQ(orch.running_count(), 0);
}

TEST(Platform, RunDataflowValidatesArgs) {
  sim::Simulation sim;
  Platform platform(sim, small_config());
  dataflow::LogicalPlan plan;
  plan.add_sink(plan.add_source("x"), "y");
  EXPECT_THROW(platform.run_dataflow(plan, 0, 4, {}), std::invalid_argument);
  EXPECT_THROW(platform.run_hpc({}, 0, {}), std::invalid_argument);
}

TEST(Platform, ConcurrentWorkflowsShareThePlatform) {
  sim::Simulation sim;
  Platform platform(sim, small_config());
  platform.catalog().define(storage::DatasetSpec{"a", 8, 32 * util::kMiB});
  platform.catalog().preload("a");
  platform.catalog().define(storage::DatasetSpec{"b", 8, 32 * util::kMiB});
  platform.catalog().preload("b");
  int done = 0;
  workflow::Workflow wf1("one");
  wf1.add(workflow::dataflow_step(
      "j1", workloads::scan_filter_aggregate("a", "out-a", 4), 2, 4));
  workflow::Workflow wf2("two");
  wf2.add(workflow::dataflow_step(
      "j2", workloads::scan_filter_aggregate("b", "out-b", 4), 2, 4));
  platform.run_workflow(wf1, [&](const workflow::WorkflowResult& r) {
    EXPECT_TRUE(r.success);
    ++done;
  });
  platform.run_workflow(wf2, [&](const workflow::WorkflowResult& r) {
    EXPECT_TRUE(r.success);
    ++done;
  });
  sim.run();
  EXPECT_EQ(done, 2);
}

}  // namespace
}  // namespace evolve::core
