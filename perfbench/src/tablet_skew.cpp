// tablet-skew: stateful serving under Zipf skew. Four tablet nodes over
// a replicated object store take an open-loop stream of 70/30 reads to
// writes, Zipf(1.05) over 65,536 keys. The TabletBalancer splits and
// moves the hot range, and a 3x gray CPU slowdown hits the node that
// owns the Zipf head mid-run. Writes are acknowledged only after their
// group-commit WAL PUT is durable; reads of flushed keys pay a block
// read against the store.
#include <memory>

#include "cluster/cluster.hpp"
#include "common.hpp"
#include "fault/gray.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "serve/generator.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "tablet/balancer.hpp"
#include "tablet/service.hpp"

namespace perfbench {

using namespace evolve;

namespace {

constexpr util::TimeNs kHorizon = util::seconds(6);
constexpr double kOpsPerS = 6000.0;
constexpr util::TimeNs kSlowFrom = util::seconds(2);
constexpr util::TimeNs kSlowFor = util::seconds(3);
constexpr util::TimeNs kReadSlo = util::millis(10);
constexpr util::TimeNs kWriteSlo = util::millis(25);
constexpr std::uint64_t kKeys = 1 << 16;

}  // namespace

RunResult run_tablet_skew(const RunOptions& options) {
  RunResult result;
  const double t_build = thread_cpu_s();
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(4, 4, 0, 2);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"));

  tablet::TabletConfig config;
  config.keyspace = kKeys;
  config.initial_shards = 4;
  config.flush_bytes = 512 * util::kKiB;
  config.flush_age = util::millis(500);
  config.queue_limit = 512;
  const auto tablet_nodes = cluster.nodes_with_label("role=compute");
  tablet::TabletService service(sim, fabric, store, tablet_nodes, config);

  tablet::BalancerConfig bcfg;
  bcfg.interval = util::millis(250);
  bcfg.split_ops = 600;
  bcfg.merge_ops = 10;
  bcfg.min_move_ops = 150;
  bcfg.imbalance_ratio = 1.3;
  bcfg.max_shards = 32;
  tablet::TabletBalancer balancer(sim, service, bcfg);
  balancer.start();

  // Compute node 0 hosts shard 0, the Zipf head.
  fault::GrayInjector gray(sim);
  fault::connect(gray, service);
  gray.schedule_slow_node(tablet_nodes[0], /*cpu_factor=*/3.0,
                          /*accel_factor=*/1.0, kSlowFrom, kSlowFor);

  // Enough retry budget to outlast a shard move, so ops wait instead of
  // failing.
  tablet::ClientConfig ccfg;
  ccfg.max_attempts = 40;
  ccfg.retry_backoff = util::millis(5);
  tablet::TabletClient client(sim, service, ccfg);

  std::unique_ptr<trace::Tracer> tracer;
  if (options.traced) {
    tracer = std::make_unique<trace::Tracer>(sim);
    fabric.set_tracer(tracer.get());
    store.set_tracer(tracer.get());
    service.set_tracer(tracer.get());
    gray.set_tracer(tracer.get());
  }
  result.build_s = thread_cpu_s() - t_build;

  const double t_stage = thread_cpu_s();
  // Room for every sample up front, so the sample buffer's growth does
  // not show in the peak memory figure.
  result.latency_ms.reserve(
      static_cast<std::size_t>(1.25 * kOpsPerS * util::to_seconds(kHorizon)));
  HostTimer submit_timer(options.traced);
  serve::GeneratorConfig gen;
  gen.phases = {{kHorizon, kOpsPerS}};
  gen.class_weights = {0.7, 0.3};  // class 0 = read, class 1 = write
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = kHorizon;
  gen.seed = derive_seed(options.seed, 1);
  gen.key_dist = serve::KeyDistribution::kZipf;
  gen.keys = kKeys;
  gen.zipf_s = 1.05;
  serve::RequestGenerator generator(sim, gen, [&](serve::Request req) {
    result.arrival_digest = digest(
        digest(digest(result.arrival_digest, req.arrival), req.key), req.cls);
    const bool is_write = req.cls == 1;
    const util::TimeNs due = req.arrival;
    submit_timer.time([&] {
      client.submit(req, is_write ? tablet::OpKind::kWrite
                                  : tablet::OpKind::kRead,
                    [&result, &sim, is_write, due](tablet::OpResult r) {
                      if (r.status == tablet::OpStatus::kOk ||
                          r.status == tablet::OpStatus::kNotFound) {
                        const util::TimeNs latency = sim.now() - due;
                        ++result.completed;
                        if (latency <= (is_write ? kWriteSlo : kReadSlo)) {
                          ++result.within_slo;
                        }
                        result.latency_ms.push_back(util::to_millis(latency));
                      } else if (r.status == tablet::OpStatus::kQueueFull) {
                        ++result.shed;
                      } else {
                        ++result.failed;
                      }
                    });
    });
  });
  generator.start();
  sim.at(kHorizon + util::seconds(2), [&] {
    balancer.stop();
    service.stop();
  });
  result.stage_s = thread_cpu_s() - t_stage;
  if (options.setup_only) return result;

  run_timed(sim, kHorizon, result);
  result.offered = generator.emitted();

  // -- Invariants at drain ---------------------------------------------
  result.check(result.offered ==
                   result.completed + result.shed + result.failed,
               "offered ops != completed + shed + failed");
  result.check(fabric.stats().flows_in_flight == 0,
               "fabric flows in flight at drain");
  result.check(store.lost_objects() == 0, "objects lost");

  // -- Per-layer metrics from public accessors -------------------------
  MetricSet& m = result.layers;
  m.set("net.flows", static_cast<double>(fabric.stats().flows_started),
        "count");
  m.set("net.bytes", static_cast<double>(fabric.stats().bytes_delivered),
        "B");
  m.set("net.flows_leaked",
        static_cast<double>(fabric.stats().flows_in_flight), "count");
  const metrics::Registry& sm = store.metrics();
  m.set("store.gets",
        static_cast<double>(sm.counter("get_requests") +
                            sm.counter("block_read_requests")),
        "count");
  m.set("store.puts", static_cast<double>(sm.counter("put_requests")),
        "count");
  m.set("store.get_p99_ms",
        static_cast<double>(sm.histogram("block_read_latency_us").p99()) / 1e3,
        "ms");
  m.set("store.put_p99_ms",
        static_cast<double>(sm.histogram("put_latency_us").p99()) / 1e3, "ms");
  m.set("tablet.wal_commits", static_cast<double>(service.wal_commits()),
        "count");
  m.set("tablet.ops_per_wal_commit",
        service.wal_commits() == 0
            ? 0.0
            : static_cast<double>(service.applied_writes() +
                                  service.dup_writes()) /
                  static_cast<double>(service.wal_commits()),
        "count");
  const std::int64_t reads_served =
      service.memtable_hits() + service.block_reads();
  m.set("tablet.memtable_hit_frac",
        reads_served == 0 ? 0.0
                          : static_cast<double>(service.memtable_hits()) /
                                static_cast<double>(reads_served),
        "frac");
  m.set("tablet.flushes", static_cast<double>(service.flushes()), "count");
  // The constructor carves the initial shards by splitting; count only
  // the balancer's.
  m.set("tablet.splits",
        static_cast<double>(service.shard_map().splits() -
                            (config.initial_shards - 1)),
        "count");
  m.set("tablet.moves", static_cast<double>(service.moves_completed()),
        "count");
  m.set("tablet.move_unavail_s", service.move_unavail_seconds(), "s");
  m.set("tablet.retry_frac",
        result.offered == 0
            ? 0.0
            : static_cast<double>(client.wrong_shard_retries() +
                                  client.unavailable_retries()) /
                  static_cast<double>(result.offered),
        "frac");

  // -- Trace-derived metrics ---------------------------------------------
  if (tracer) {
    tracer->close_open_spans();
    result.check(tracer->open_spans() == 0, "open spans after close");
    MetricSet& t = result.traced;
    const auto self = self_seconds(*tracer);
    t.set("net.sim_self_s",
          self[static_cast<std::size_t>(trace::Layer::kNetwork)], "s");
    t.set("store.sim_self_s",
          self[static_cast<std::size_t>(trace::Layer::kStorage)], "s");
    t.set("tablet.sim_self_s",
          self[static_cast<std::size_t>(trace::Layer::kTablet)], "s");
    t.set("tablet.host_submit_ns", submit_timer.mean_ns(), "ns");
    add_common_trace_metrics(*tracer, roots_named(*tracer, "tablet.op"),
                             result);
  }
  return result;
}

}  // namespace perfbench
