// Hot-path allocation tests. This TU overrides the global new/delete
// with counting forwards to malloc/free, so it lives in its own test
// binary (evolve_alloc_tests) and must stay the only TU there that
// defines these operators.
//
// The claims under test: once the tracer's name set and span chunks are
// warm, recording a span performs zero heap allocations — names are
// interned string_views and spans land in pre-reserved append-only
// chunks. Recording a metric under a name the registry already holds
// allocates nothing, however long the name. A warm net::Fabric starts,
// cancels and completes flows without allocating, and a warm
// serve::Service (hedging and batching on) serves requests without
// allocating. A warm ObjectStore::locate allocates only the vector it
// returns, and a warm ring allreduce allocates as much at 16 ranks as
// at 4: nothing per message.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "cluster/cluster.hpp"
#include "hpc/communicator.hpp"
#include "metrics/registry.hpp"
#include "net/fabric.hpp"
#include "orch/controllers.hpp"
#include "orch/scheduler.hpp"
#include "serve/service.hpp"
#include "sim/simulation.hpp"
#include "storage/io_model.hpp"
#include "storage/object_store.hpp"
#include "trace/tracer.hpp"

namespace {
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
// The nothrow forms (std::stable_sort's temporary buffer) must pair with
// the free() below too; a sanitizer runtime otherwise supplies its own.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size);
}
// GCC does not see that operator new above is this TU's own malloc
// forward: once gtest's `new TestClass` inlines into a delete below, it
// flags the matching free() as mismatched (seen in sanitizer builds).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace evolve::trace {
namespace {

TEST(TracerAllocation, WarmSpanRecordingAllocatesNothing) {
  sim::Simulation sim;
  Tracer tracer(sim);

  constexpr int kWarm = 8;
  constexpr int kHot = 20'000;
  const char* names[] = {"serve.request", "serve.queue", "serve.exec",
                         "net.transfer"};

  // Warm-up: intern every name once and pre-reserve the span chunks.
  for (int i = 0; i < kWarm; ++i) {
    const SpanId id = tracer.begin(Layer::kServe, names[i % 4]);
    tracer.end(id);
  }
  tracer.reserve_spans(kWarm + kHot);
  EXPECT_EQ(tracer.interned_names(), 4u);

  const std::size_t before = g_allocs.load();
  for (int i = 0; i < kHot; ++i) {
    const SpanId id = tracer.begin(Layer::kServe, names[i % 4]);
    tracer.end(id);
  }
  const std::size_t after = g_allocs.load();

  EXPECT_EQ(after - before, 0u)
      << "span recording on a warm tracer must not allocate";
  EXPECT_EQ(tracer.spans().size(),
            static_cast<std::size_t>(kWarm + kHot));
  EXPECT_EQ(tracer.interned_names(), 4u);
}

TEST(TracerAllocation, RepeatedNamesShareInternedStorage) {
  sim::Simulation sim;
  Tracer tracer(sim);
  const SpanId a = tracer.begin(Layer::kNetwork, "net.transfer");
  tracer.end(a);
  const SpanId b = tracer.begin(Layer::kNetwork, "net.transfer");
  tracer.end(b);
  // Same interned backing bytes, not just equal content.
  EXPECT_EQ(tracer.span(a).name.data(), tracer.span(b).name.data());
  EXPECT_EQ(tracer.span(a).name, "net.transfer");
  EXPECT_EQ(tracer.interned_names(), 1u);
}

}  // namespace
}  // namespace evolve::trace

namespace evolve::metrics {
namespace {

TEST(RegistryAllocation, RecordingUnderAnExistingLongNameAllocatesNothing) {
  // Both names outgrow libstdc++'s 15-char small-string buffer, so any
  // std::string built from them per call would hit the heap.
  constexpr const char* kCounter = "block_read_requests";
  constexpr const char* kHistogram = "block_read_latency_us";
  Registry reg;
  reg.count(kCounter);
  reg.observe(kHistogram, 999);  // sizes the buckets for every sample below

  const std::size_t before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    reg.count(kCounter);
    reg.observe(kHistogram, i);
  }
  const std::int64_t total = reg.counter(kCounter);
  const std::size_t after = g_allocs.load();

  EXPECT_EQ(after - before, 0u)
      << "counting under an existing name must not allocate";
  EXPECT_EQ(total, 1001);
  EXPECT_EQ(reg.histogram(kHistogram).count(), 1001);
}

}  // namespace
}  // namespace evolve::metrics

namespace evolve::net {
namespace {

struct FabricWorld {
  sim::Simulation sim;
  cluster::Cluster cluster = cluster::make_testbed(4, 0, 0, 2);
  Topology topology{cluster};
  Fabric fabric{sim, topology};
};

// The event queue's timing wheel keeps every bucket's capacity, but a
// bucket allocates the first time an event lands in it. Rounds that start
// a whole wheel horizon (2^34 ns) apart put their events in the same
// buckets, so a round started one horizon after a warm-up round measures
// a warm fabric on a warm event queue.
constexpr util::TimeNs kWheelHorizon = util::TimeNs{1} << 34;

/// Runs `round` at the next whole wheel horizon, to completion.
template <typename Round>
void run_round(sim::Simulation& sim, Round& round) {
  sim.at((sim.now() / kWheelHorizon + 1) * kWheelHorizon, [&round] { round(); });
  sim.run();
}

/// Runs `scenario` once to warm the fabric's tables, then again under the
/// counter; returns the second round's allocations.
template <typename Scenario>
std::size_t warm_round_allocations(FabricWorld& w, Scenario scenario) {
  run_round(w.sim, scenario);
  const std::size_t before = g_allocs.load();
  run_round(w.sim, scenario);
  return g_allocs.load() - before;
}

TEST(FabricAllocation, WarmLoneFlowAllocatesNothing) {
  FabricWorld w;
  int done = 0;
  const std::size_t allocs = warm_round_allocations(w, [&] {
    w.fabric.transfer(0, 1, 256 * util::kKiB, [&done] { ++done; });
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(done, 2);
}

TEST(FabricAllocation, WarmFlowsSharingAPairAllocateNothing) {
  FabricWorld w;
  int done = 0;
  const std::size_t allocs = warm_round_allocations(w, [&] {
    w.fabric.transfer(0, 2, 256 * util::kKiB, [&done] { ++done; });
    w.fabric.transfer(0, 2, 64 * util::kKiB, [&done] { ++done; });
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(done, 4);
}

TEST(FabricAllocation, WarmCancelAllocatesNothing) {
  FabricWorld w;
  int done = 0;
  const std::size_t allocs = warm_round_allocations(w, [&] {
    const FlowId victim =
        w.fabric.transfer(0, 3, 256 * util::kKiB, [&done] { ++done; });
    w.fabric.transfer(0, 3, 64 * util::kKiB, [&done] { ++done; });
    w.sim.after(util::micros(20), [&w, victim] { w.fabric.cancel(victim); });
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(done, 2);  // only the survivors complete
  EXPECT_EQ(w.fabric.stats().flows_cancelled, 2);
}

TEST(FabricAllocation, WarmLoopbackAllocatesNothing) {
  FabricWorld w;
  int done = 0;
  const std::size_t allocs = warm_round_allocations(w, [&] {
    w.fabric.transfer(2, 2, 256 * util::kKiB, [&done] { ++done; });
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(done, 2);
  EXPECT_EQ(w.fabric.stats().bytes_remote, 0);
}

}  // namespace
}  // namespace evolve::net

namespace evolve::serve {
namespace {

TEST(ServeAllocation, WarmHedgedBatchedServiceAllocatesNothingPerRequest) {
  // Two replicas, one of them slowed 10x: its batches run past the hedge
  // delay, so requests routed there are hedged to the other one.
  sim::Simulation sim;
  cluster::Cluster cluster = cluster::make_testbed(2, 2, 0);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster));
  orch::PodSpec pod;
  pod.name = "api";
  pod.request = cluster::cpu_mem(2000, 4 * util::kGiB);
  pod.anti_affinity_group = "api";
  orch::DeploymentController deploy(orch, "api", pod, 2);
  std::vector<RequestClass> classes(1);
  classes[0].name = "rank";
  classes[0].compute_cost = util::micros(200);
  classes[0].batch_setup = util::micros(100);
  ServiceConfig config;
  config.replica.batch.max_batch = 4;
  config.replica.batch.max_linger = util::micros(300);
  config.hedging = true;
  config.hedge_min_delay = util::millis(2);
  config.hedge_min_samples = 1 << 20;  // pin the delay to hedge_min_delay
  Service service(sim, fabric, deploy, classes, config);
  sim.run();  // replicas come up
  ASSERT_EQ(service.replica_count(), 2);
  service.conditions().set_slowdown(
      cluster.nodes_with_label("role=compute")[0], 10.0, 1.0);
  const cluster::NodeId client =
      cluster.nodes_with_label("role=storage").front();

  constexpr int kRequests = 400;
  RequestId next_id = 1;
  auto offer = [&] {
    for (int i = 0; i < kRequests; ++i) {
      sim.after(util::micros(250) * i, [&service, &next_id, client] {
        Request req;
        req.id = next_id++;
        req.client = client;
        service.submit(req);
      });
    }
  };
  // Two warm-up rounds grow every table to the workload's peak.
  net::run_round(sim, offer);
  net::run_round(sim, offer);

  const std::int64_t hedges_before = service.hedges_launched();
  const std::int64_t batches_before =
      service.metrics().histogram("serve.batch_size").count();
  const std::size_t before = g_allocs.load();
  net::run_round(sim, offer);
  const std::size_t after = g_allocs.load();

  EXPECT_EQ(after - before, 0u)
      << "a warm service must serve requests without allocating";
  const TenantStats& tenant = service.tenant("default");
  EXPECT_EQ(tenant.completed, 3 * kRequests);
  EXPECT_GT(service.hedges_launched(), hedges_before);
  // Fewer batches than requests: batching coalesced.
  EXPECT_LT(service.metrics().histogram("serve.batch_size").count() -
                batches_before,
            kRequests);
  EXPECT_EQ(service.outstanding(), 0);
}

}  // namespace
}  // namespace evolve::serve

namespace evolve::storage {
namespace {

TEST(StoreAllocation, WarmLocateAllocatesOnlyItsResult) {
  // EC(4,2), rack-aware over 8 servers on 4 racks. Both key parts
  // outgrow the small-string buffer, so building full() would allocate.
  sim::Simulation sim;
  cluster::Cluster cluster = cluster::make_testbed(2, 8, 0, 4);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  IoSubsystem io(sim, cluster);
  ObjectStoreConfig config;
  config.redundancy = Redundancy::kErasure;
  ObjectStore store(sim, cluster, fabric, io,
                    cluster.nodes_with_label("role=storage"), config);
  const ObjectKey key{"a-bucket-with-a-long-name",
                      "partition-000042.parquet"};
  const std::vector<cluster::NodeId> warm = store.locate(key);

  const std::size_t before = g_allocs.load();
  const std::vector<cluster::NodeId> placed = store.locate(key);
  const std::size_t after = g_allocs.load();

  EXPECT_EQ(after - before, 1u) << "only the returned vector may allocate";
  EXPECT_EQ(placed, warm);
  EXPECT_EQ(placed.size(), 6u);
}

}  // namespace
}  // namespace evolve::storage

namespace evolve::hpc {
namespace {

/// Allocations of a warm 4 MiB ring allreduce over `ranks` ranks, one
/// per node.
std::size_t warm_ring_allreduce_allocations(int ranks) {
  sim::Simulation sim;
  cluster::Cluster cluster = cluster::make_testbed(ranks, 0, 0, 2);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  Communicator comm(sim, fabric, cluster.nodes_with_label("role=compute"));
  int done = 0;
  auto round = [&] {
    comm.allreduce(4 * util::kMiB, CollectiveAlgo::kRing,
                   [&done] { ++done; });
  };
  net::run_round(sim, round);  // warms the fabric, queue and schedule
  const std::size_t before = g_allocs.load();
  net::run_round(sim, round);
  const std::size_t after = g_allocs.load();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(comm.metrics().counter("messages"),
            2 * 2 * (ranks - 1) * ranks);
  return after - before;
}

TEST(CommunicatorAllocation, WarmRingAllreduceCostIsIndependentOfRanks) {
  // 6 rounds of 4 messages against 30 rounds of 16: any per-message or
  // per-round allocation makes the counts differ.
  EXPECT_EQ(warm_ring_allreduce_allocations(4),
            warm_ring_allreduce_allocations(16));
}

}  // namespace
}  // namespace evolve::hpc
