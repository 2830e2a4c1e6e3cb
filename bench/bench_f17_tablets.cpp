// F17 — Tablet serving under Zipf skew: splitting + balancing on vs off.
//
// One stateful serving scenario, run twice: a 4-node tablet layer
// (range-sharded KV over the object store, ack-after-durable WAL
// writes, memtable + flushed-generation reads) takes an open-loop
// Zipf-keyed workload of 6000 ops/s for 30 s. The Zipf draw
// concentrates ~85% of the traffic on the first quarter of the key
// space — one shard, one node — and a gray CPU slowdown (3x) hits that
// hot node mid-run, exactly the BigBench/Tzenetopoulos skew-plus-
// stragglers regime:
//
//   off  the static 4-shard layout pins the hot range to one node: its
//        serial executor saturates, the bounded per-shard queue sheds,
//        and the slowdown stretches p99 by an order of magnitude.
//   on   the TabletBalancer splits the hot shard at its access median
//        (hot-key-dominated shards move whole instead — splitting
//        cannot spread one key) and migrates shards off the busiest
//        node. Moves cost real unavailability (flush + handoff +
//        re-open, every second of it accounted), and routing staleness
//        costs WrongShard retries — yet p99 and goodput still come out
//        far ahead.
//
// Requests flow through the serve-layer integration: a seeded
// serve::RequestGenerator with key_dist=kZipf feeds serve::Requests
// into the TabletClient, whose cached epoch-stamped shard map routes,
// refreshes, and retries. The run reports completed / goodput
// (completions within SLO), read and overall p99, queue-full sheds,
// split/merge/move counts, move unavailability, and stale-route
// retries. The check.sh gate asserts balancing-on p99 < balancing-off
// p99 and balancing-on goodput > balancing-off goodput.
//
// `--json` writes BENCH_f17_tablets.json (fully simulation-
// deterministic); `--trace` additionally writes TRACE_f17_tablets.json
// with tablet.* spans from the balanced run's first 2 s.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "fault/gray.hpp"
#include "fault/wiring.hpp"
#include "net/fabric.hpp"
#include "serve/generator.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "tablet/balancer.hpp"
#include "tablet/service.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

using namespace evolve;
using namespace evolve::tablet;

namespace {

constexpr util::TimeNs kHorizon = util::seconds(30);
constexpr util::TimeNs kSlowFrom = util::seconds(8);
constexpr util::TimeNs kSlowFor = util::seconds(17);
constexpr util::TimeNs kReadSlo = util::millis(10);
constexpr util::TimeNs kWriteSlo = util::millis(25);
constexpr std::uint64_t kKeys = 1 << 16;

double p99_of(std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const std::size_t k = (v.size() - 1) * 99 / 100;
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

/// One run, recorded into `report` under `p` ("off_" / "on_").
void run(bool balancing, core::MetricsReport& report, const std::string& p,
         std::unique_ptr<trace::Tracer>* tracer_out) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(4, 4, 0, 2);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  storage::IoSubsystem io(sim, cluster);
  storage::ObjectStore store(sim, cluster, fabric, io,
                             cluster.nodes_with_label("role=storage"));

  TabletConfig config;
  config.keyspace = kKeys;
  config.initial_shards = 4;  // one per node: balanced by range, not load
  config.flush_bytes = 512 * util::kKiB;
  config.flush_age = util::millis(500);
  // Deep queues: overload shows up as tail latency, not fail-fast sheds
  // (shedding would censor the off-run's p99 downward).
  config.queue_limit = 512;
  TabletService service(sim, fabric, store,
                        cluster.nodes_with_label("role=compute"), config);

  std::unique_ptr<trace::Tracer> tracer;
  if (tracer_out) {
    tracer = std::make_unique<trace::Tracer>(sim);
    service.set_tracer(tracer.get());
    // Span volume control: trace only the first 2 s (splits + first
    // moves land there), then detach.
    sim.at(util::seconds(2), [&service] {
      trace::Tracer* t = service.tracer();
      service.set_tracer(nullptr);
      t->close_open_spans();  // boundary spans close here, not at horizon
    });
  }

  BalancerConfig bcfg;
  bcfg.interval = util::millis(250);
  bcfg.split_ops = 600;    // ~2.4k ops/s sustained marks a shard hot
  bcfg.merge_ops = 10;
  bcfg.min_move_ops = 150;
  bcfg.imbalance_ratio = 1.3;
  bcfg.max_shards = 32;
  TabletBalancer balancer(sim, service, bcfg);
  if (balancing) balancer.start();

  // The gray slowdown lands on the node that owns the hot range at t=0
  // (compute node 0 hosts shard 0 = the Zipf head).
  const auto tablet_nodes = cluster.nodes_with_label("role=compute");
  fault::GrayInjector gray(sim);
  fault::connect(gray, service);
  gray.schedule_slow_node(tablet_nodes[0], /*cpu_factor=*/3.0,
                          /*accel_factor=*/1.0, kSlowFrom, kSlowFor);

  ClientConfig ccfg;
  ccfg.max_attempts = 6;
  TabletClient client(sim, service, ccfg);

  std::int64_t completed = 0, goodput = 0, shed = 0, failed = 0;
  std::vector<double> latencies_ms, read_latencies_ms;
  serve::GeneratorConfig gen;
  gen.phases = {{kHorizon, 6000.0}};
  gen.class_weights = {0.7, 0.3};  // class 0 = read, class 1 = write
  gen.clients = cluster.nodes_with_label("role=storage");
  gen.horizon = kHorizon;
  gen.seed = 0xf17ab;
  gen.key_dist = serve::KeyDistribution::kZipf;
  gen.keys = kKeys;
  gen.zipf_s = 1.05;
  serve::RequestGenerator generator(sim, gen, [&](serve::Request req) {
    const bool is_write = req.cls == 1;
    const util::TimeNs start = sim.now();
    client.submit(req, is_write ? OpKind::kWrite : OpKind::kRead,
                  [&, is_write, start](OpResult r) {
                    if (r.status == OpStatus::kOk ||
                        r.status == OpStatus::kNotFound) {
                      const util::TimeNs latency = sim.now() - start;
                      completed += 1;
                      const util::TimeNs slo =
                          is_write ? kWriteSlo : kReadSlo;
                      if (latency <= slo) goodput += 1;
                      latencies_ms.push_back(util::to_millis(latency));
                      if (!is_write) {
                        read_latencies_ms.push_back(util::to_millis(latency));
                      }
                    } else if (r.status == OpStatus::kQueueFull) {
                      shed += 1;
                    } else {
                      failed += 1;
                    }
                  });
  });
  generator.start();

  sim.at(kHorizon + util::seconds(2), [&] {
    balancer.stop();
    service.stop();
  });
  sim.run();

  report.set(p + "offered", generator.emitted());
  report.set(p + "completed", completed);
  report.set(p + "goodput", goodput);
  report.set(p + "shed", shed);
  report.set(p + "failed", failed);
  report.set(p + "p99_ms", p99_of(latencies_ms));
  report.set(p + "read_p99_ms", p99_of(read_latencies_ms));
  // The constructor carves initial_shards via split(); report only the
  // balancer-initiated ones.
  report.set(p + "splits",
             service.shard_map().splits() - (config.initial_shards - 1));
  report.set(p + "merges", service.shard_map().merges());
  report.set(p + "moves", service.moves_completed());
  report.set(p + "move_unavail_s", service.move_unavail_seconds());
  report.set(p + "wrong_shard_retries", client.wrong_shard_retries());
  report.set(p + "unavailable_retries", client.unavailable_retries());
  report.set(p + "memtable_hits", service.memtable_hits());
  report.set(p + "block_reads", service.block_reads());
  report.set(p + "flushes", service.flushes());
  report.set(p + "wal_commits", service.wal_commits());
  report.set(p + "final_shards", service.shard_map().shard_count());
  report.set(p + "flows_leaked", fabric.stats().flows_in_flight);
  if (tracer) {
    tracer->close_open_spans();
    *tracer_out = std::move(tracer);
  }
}

std::string ms(double v) { return util::fixed(v, 2) + " ms"; }

}  // namespace

int main(int argc, char** argv) {
  const bool tracing = core::has_flag(argc, argv, "--trace");

  core::MetricsReport report("f17_tablets");
  std::unique_ptr<trace::Tracer> on_tr;
  run(false, report, "off_", nullptr);
  run(true, report, "on_", tracing ? &on_tr : nullptr);

  const auto secs = [](double v) { return util::fixed(v, 3) + " s"; };
  core::Table(
      "F17: Zipf tablet serving + 3x gray slow node — balancing off vs on",
      report, "balancing", {{"off", "off_"}, {"on", "on_"}},
      {{"completed", "completed"}, {"goodput", "goodput"}, {"shed", "shed"},
       {"p99", "p99_ms", ms}, {"read p99", "read_p99_ms", ms},
       {"splits", "splits"}, {"moves", "moves"},
       {"move unavail", "move_unavail_s", secs},
       {"stale retries", "wrong_shard_retries"},
       {"shards", "final_shards"}})
      .print();

  const core::Row off(report, "off_"), on(report, "on_");
  std::cout << "\nShape check: splitting the hot range and balancing "
            << "shards drops p99 " << ms(off["p99_ms"].real()) << " -> "
            << ms(on["p99_ms"].real()) << " and lifts goodput "
            << off["goodput"].count() << " -> " << on["goodput"].count()
            << " (" << on["splits"].count() << " splits, "
            << on["moves"].count() << " moves costing "
            << secs(on["move_unavail_s"].real())
            << " of shard unavailability, "
            << on["wrong_shard_retries"].count() << " stale-route retries).\n";

  if (tracing) {
    std::cout << "wrote "
              << trace::write_chrome_trace(
                     "f17_tablets", {{"f17/balanced", on_tr.get()}})
              << "\n";
  }
  if (core::has_flag(argc, argv, "--json")) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
