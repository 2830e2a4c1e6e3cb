#include "core/siloed.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/platform.hpp"
#include "trace/critical_path.hpp"
#include "trace/tracer.hpp"
#include "workloads/ml.hpp"
#include "workloads/mobility.hpp"
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

workloads::MobilityScenario small_mobility(util::Bytes trace_bytes) {
  workloads::MobilityScenario scenario;
  scenario.trace_bytes = trace_bytes;
  scenario.trace_partitions = 16;
  scenario.analytics_executors = 2;
  scenario.clustering_ranks = 2;
  return scenario;
}

/// Stages and runs the mobility pipeline; both layouts take this path.
workflow::WorkflowResult run_mobility(
    Platform& platform, const workloads::MobilityScenario& scenario) {
  workloads::stage_mobility_inputs(platform.catalog(), scenario);
  workflow::WorkflowResult result;
  platform.run_workflow(workloads::mobility_pipeline(scenario),
                        [&](const workflow::WorkflowResult& r) { result = r; });
  platform.sim().run();
  return result;
}

TEST(SiloedPlatform, PartitionsHardware) {
  sim::Simulation sim;
  SiloedPlatform silos(sim, small_config());
  EXPECT_EQ(silos.orchestrators().size(), 3u);
  EXPECT_EQ(silos.orchestrator(World::kCloud).managed_nodes().size(), 2u);
  EXPECT_EQ(silos.orchestrator(World::kBigData).managed_nodes().size(), 2u);
  // + accel nodes
  EXPECT_EQ(silos.orchestrator(World::kHpc).managed_nodes().size(), 2u + 2u);
  EXPECT_EQ(silos.store(World::kBigData).servers().size(), 2u);
  EXPECT_EQ(silos.store(World::kHpc).servers().size(), 2u);
  // The cloud silo has no store of its own.
  EXPECT_EQ(&silos.catalog(World::kCloud), &silos.catalog(World::kBigData));
}

TEST(SiloedPlatform, RequiresEnoughNodes) {
  sim::Simulation sim;
  PlatformConfig tiny;
  tiny.compute_nodes = 2;
  tiny.storage_nodes = 2;
  EXPECT_THROW(SiloedPlatform(sim, tiny), std::invalid_argument);
}

TEST(SiloedPlatform, StagingCopiesDataset) {
  sim::Simulation sim;
  SiloedPlatform silos(sim, small_config());
  silos.catalog(World::kBigData)
      .define(storage::DatasetSpec{"features", 8, 64 * util::kMiB});
  silos.catalog(World::kBigData).preload("features");
  EXPECT_FALSE(silos.catalog(World::kHpc).defined("features"));

  bool done = false;
  silos.stage_dataset("features", silos.catalog(World::kHpc),
                      [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(silos.catalog(World::kHpc).materialized("features"));
  EXPECT_EQ(silos.staged_bytes(), 64 * util::kMiB);
  EXPECT_EQ(silos.staging_operations(), 1);
  EXPECT_GT(sim.now(), 0);  // staging took simulated time
}

TEST(SiloedPlatform, StagingIsIdempotent) {
  sim::Simulation sim;
  SiloedPlatform silos(sim, small_config());
  silos.catalog(World::kBigData)
      .define(storage::DatasetSpec{"d", 4, util::kMiB});
  silos.catalog(World::kBigData).preload("d");
  bool first = false, second = false;
  silos.stage_dataset("d", silos.catalog(World::kHpc), [&] { first = true; });
  sim.run();
  silos.stage_dataset("d", silos.catalog(World::kHpc), [&] { second = true; });
  EXPECT_TRUE(first);
  EXPECT_TRUE(second);  // a no-op copy completes at once
  EXPECT_EQ(silos.staging_operations(), 1);  // second call was a no-op
}

TEST(SiloedPlatform, StagingUnknownDatasetThrows) {
  sim::Simulation sim;
  SiloedPlatform silos(sim, small_config());
  EXPECT_THROW(
      silos.stage_dataset("ghost", silos.catalog(World::kHpc), [] {}),
      std::invalid_argument);
}

TEST(SiloedPlatform, MobilityWorkflowRunsWithStaging) {
  sim::Simulation sim;
  SiloedPlatform silos(sim, small_config());
  const auto result = run_mobility(silos, small_mobility(256 * util::kMiB));
  EXPECT_TRUE(result.success);
  // The clustering step's input had to be staged into the HPC store.
  EXPECT_GT(silos.staged_bytes(), 0);
  EXPECT_TRUE(silos.catalog(World::kHpc).materialized("route-stats"));
}

TEST(SiloedPlatform, ConvergedBeatsSiloedOnMobilityPipeline) {
  const auto scenario = small_mobility(512 * util::kMiB);
  sim::Simulation converged_sim, siloed_sim;
  Platform converged(converged_sim, small_config());
  SiloedPlatform siloed(siloed_sim, small_config());
  const auto converged_result = run_mobility(converged, scenario);
  const auto siloed_result = run_mobility(siloed, scenario);
  ASSERT_TRUE(converged_result.success);
  ASSERT_TRUE(siloed_result.success);
  EXPECT_GT(converged_result.duration, 0);
  // Converged avoids the cross-silo staging copies.
  EXPECT_EQ(converged.staged_bytes(), 0);
  EXPECT_LT(converged_result.duration, siloed_result.duration);
}

TEST(SiloedPlatform, ContainerStepsRunInCloudSilo) {
  sim::Simulation sim;
  SiloedPlatform silos(sim, small_config());
  orch::PodSpec pod;
  pod.name = "web";
  pod.request = cluster::cpu_mem(1000, util::kGiB);
  workflow::Workflow wf("svc");
  wf.add(workflow::container_step("svc", pod, util::seconds(1)));
  workflow::WorkflowResult result;
  silos.run_workflow(wf, [&](const workflow::WorkflowResult& r) {
    result = r;
  });
  sim.run();
  EXPECT_TRUE(result.success);
  EXPECT_EQ(silos.orchestrator(World::kCloud).metrics().counter("pods_started"),
            1);
  EXPECT_EQ(
      silos.orchestrator(World::kBigData).metrics().counter("pods_started"),
      0);
}

TEST(SiloedPlatform, TracedRunMatchesUntraced) {
  const auto scenario = small_mobility(256 * util::kMiB);
  sim::Simulation plain_sim, traced_sim;
  SiloedPlatform plain(plain_sim, small_config());
  SiloedPlatform traced(traced_sim, small_config());
  trace::Tracer tracer(traced_sim);
  traced.set_tracer(&tracer);
  const auto a = run_mobility(plain, scenario);
  const auto b = run_mobility(traced, scenario);
  ASSERT_TRUE(a.success);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.duration, b.duration);
  EXPECT_EQ(a.total_retries, b.total_retries);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (const auto& [name, step] : a.steps) {
    EXPECT_EQ(step.start_time, b.steps.at(name).start_time) << name;
    EXPECT_EQ(step.finish_time, b.steps.at(name).finish_time) << name;
    EXPECT_EQ(step.attempts, b.steps.at(name).attempts) << name;
  }
  EXPECT_EQ(plain.staged_bytes(), traced.staged_bytes());
  EXPECT_EQ(plain.staging_operations(), traced.staging_operations());

  // The staging copies sit on the workflow's critical path as storage
  // time, so the siloed gap is attributable per layer.
  tracer.close_open_spans();
  trace::SpanId run = trace::kNoSpan;
  for (trace::SpanId root : trace::root_spans(tracer)) {
    if (tracer.span(root).name == "wf.run") run = root;
  }
  ASSERT_NE(run, trace::kNoSpan);
  const auto path = trace::critical_path(tracer, run);
  EXPECT_EQ(path.total, b.duration);
  EXPECT_GT(path.by_layer[static_cast<int>(trace::Layer::kStorage)], 0);
}

TEST(SiloedPlatform, ExecutorsPreferOnlyTheirSilosNodes) {
  // The big-data store's servers are outside the big-data silo, so the
  // locality filter leaves the executors without preferences: placement
  // is the same with locality placement on as with it off. Three racks
  // put the store's servers on the rack of one silo node but not the
  // other, so unfiltered preferences would move placement through the
  // same-rack credit.
  auto run = [](bool locality) {
    PlatformConfig config = small_config();
    config.racks = 3;
    config.locality_placement = locality;
    sim::Simulation sim;
    SiloedPlatform silos(sim, config);
    silos.catalog().define(storage::DatasetSpec{"hot", 8, 64 * util::kMiB});
    silos.catalog().preload("hot");
    dataflow::JobStats stats;
    silos.run_dataflow(workloads::scan_filter_aggregate("hot", "out", 4), 2,
                       4, [&](const dataflow::JobStats& s) { stats = s; });
    sim.run();
    return stats;
  };
  const auto on = run(true);
  const auto off = run(false);
  EXPECT_FALSE(on.failed);
  EXPECT_EQ(on.duration, off.duration);
  EXPECT_EQ(on.local_tasks, 0);
  EXPECT_EQ(off.local_tasks, 0);
}

}  // namespace
}  // namespace evolve::core
