// Cross-module integration and determinism properties.
#include <gtest/gtest.h>

#include "core/platform.hpp"
#include "core/session.hpp"
#include "core/unified_scheduler.hpp"
#include "workloads/mobility.hpp"
#include "workloads/tabular.hpp"
#include "workloads/trace.hpp"

namespace evolve {
namespace {

// ---- Determinism: same seed => byte-identical behaviour -------------

util::TimeNs run_mobility_once() {
  sim::Simulation sim;
  core::Platform platform(sim);
  workloads::MobilityScenario scenario;
  scenario.trace_bytes = 256 * util::kMiB;
  workloads::stage_mobility_inputs(platform.catalog(), scenario);
  util::TimeNs duration = -1;
  platform.run_workflow(workloads::mobility_pipeline(scenario),
                        [&](const workflow::WorkflowResult& r) {
                          duration = r.success ? r.duration : -1;
                        });
  sim.run();
  return duration;
}

TEST(Determinism, WorkflowReplaysIdentically) {
  const auto first = run_mobility_once();
  const auto second = run_mobility_once();
  ASSERT_GT(first, 0);
  EXPECT_EQ(first, second);
}

TEST(Determinism, TraceOutcomeReplaysIdentically) {
  auto run = [] {
    sim::Simulation sim;
    core::PlatformConfig config;
    config.compute_nodes = 9;
    config.storage_nodes = 2;
    config.accel_nodes = 0;
    core::Platform platform(sim, config);
    util::Rng rng(99);
    workloads::TraceParams params;
    params.jobs = 30;
    const auto trace = workloads::make_mixed_trace(rng, params);
    return core::run_trace(platform, trace);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.mean_wait, b.mean_wait);
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
}

TEST(Determinism, DifferentSeedsDiverge) {
  auto run = [](std::uint64_t seed) {
    sim::Simulation sim;
    core::PlatformConfig config;
    config.compute_nodes = 9;
    config.storage_nodes = 2;
    config.accel_nodes = 0;
    core::Platform platform(sim, config);
    util::Rng rng(seed);
    workloads::TraceParams params;
    params.jobs = 30;
    const auto trace = workloads::make_mixed_trace(rng, params);
    return core::run_trace(platform, trace);
  };
  EXPECT_NE(run(1).makespan, run(2).makespan);
}

// ---- Shared-substrate contention ------------------------------------

TEST(Contention, DataflowShuffleSlowsConcurrentCollective) {
  auto allreduce_time = [](bool with_background) {
    sim::Simulation sim;
    core::PlatformConfig config;
    // Disaggregated executors: the background job's reads and shuffle
    // must cross the same links the collective uses.
    config.locality_placement = false;
    config.dataflow.locality_wait = 0;
    core::Platform platform(sim, config);
    core::Session session(platform);
    if (with_background) {
      // A fat scan+shuffle saturating the shared fabric.
      platform.catalog().define(
          storage::DatasetSpec{"bg", 64, 8 * util::kGiB});
      platform.catalog().preload("bg", /*warm_cache=*/true);
      platform.run_dataflow(
          workloads::scan_filter_aggregate("bg", "bg-out", 32), 8, 4,
          [](const dataflow::JobStats&) {});
    }
    std::vector<cluster::NodeId> ranks;
    for (int i = 0; i < 8; ++i) ranks.push_back(i);
    hpc::Communicator comm(sim, platform.fabric(), ranks);
    util::TimeNs done = -1;
    // Start the collective after the background job has ramped up.
    sim.at(util::millis(500), [&] {
      comm.allreduce(32 * util::kMiB, hpc::CollectiveAlgo::kRing,
                     [&] { done = sim.now() - util::millis(500); });
    });
    sim.run();
    return done;
  };
  const auto solo = allreduce_time(false);
  const auto contended = allreduce_time(true);
  ASSERT_GT(solo, 0);
  ASSERT_GT(contended, 0);
  // The converged fabric is shared: storage/shuffle traffic visibly
  // slows the collective.
  EXPECT_GT(contended, solo + solo / 10);
}

// ---- Tenants on the shared store -----------------------------------

TEST(Integration, DatasetsAndTenantObjectsShareTheStore) {
  sim::Simulation sim;
  core::Platform platform(sim);
  core::Session session(platform);
  storage::ObjectStore& store = platform.store();

  store.create_bucket("models");
  bool wrote = false;
  store.put(0, storage::ObjectKey{"models", "v1/weights.bin"},
            64 * util::kMiB, [&] { wrote = true; });
  sim.run();
  EXPECT_TRUE(wrote);

  // A dataset job and a second tenant's object coexist in one
  // bucket-separated store; total durable bytes reflect both (R=2
  // replication).
  session.create_dataset("events", 8, 64 * util::kMiB);
  util::Bytes durable = 0;
  for (auto s : store.servers()) durable += store.durable_bytes(s);
  EXPECT_EQ(durable, 2 * (64 * util::kMiB + 64 * util::kMiB));
}

TEST(Integration, WorkflowCustomStepDrivesStoreIo) {
  sim::Simulation sim;
  core::Platform platform(sim);
  storage::ObjectStore& store = platform.store();
  store.create_bucket("out");
  const storage::ObjectKey report{"out", "report.bin"};

  workflow::Workflow wf("store-flow");
  wf.add(workflow::custom_step("write-report", [&store, report](auto done) {
    store.put(0, report, util::kMiB, [done] { done(true); });
  }));
  auto verify = workflow::custom_step("verify", [&store, report](auto done) {
    done(store.object_size(report) == util::kMiB);
  });
  verify.depends_on = {"write-report"};
  wf.add(verify);

  workflow::WorkflowResult result;
  platform.run_workflow(wf, [&](const workflow::WorkflowResult& r) {
    result = r;
  });
  sim.run();
  EXPECT_TRUE(result.success);
}

// ---- Converged locality ablation at the platform level ---------------

TEST(Integration, LocalityPlacementReducesNetworkBytes) {
  auto fabric_bytes = [](bool locality) {
    sim::Simulation sim;
    core::PlatformConfig config;
    config.locality_placement = locality;
    if (!locality) config.dataflow.locality_wait = 0;
    core::Platform platform(sim, config);
    core::Session session(platform);
    session.create_dataset("hot", 16, 256 * util::kMiB, /*warm=*/true);
    session.run_dataflow(workloads::scan_filter_aggregate("hot", "out", 8),
                         4, 4);
    return platform.fabric().stats().bytes_remote;
  };
  const auto with_locality = fabric_bytes(true);
  const auto without = fabric_bytes(false);
  // Node-local reads use loopback; placement off the data nodes must
  // move more bytes across real network links.
  EXPECT_LT(with_locality, without);
}

}  // namespace
}  // namespace evolve
