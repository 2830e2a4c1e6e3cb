// F13 — Kernel at scale: 1k -> 100k simulated node actors, 1M -> 20M
// events, driven through both event-queue kernels (hierarchical-wheel
// calendar queue with SmallFn callbacks vs the pre-calendar binary heap
// with std::function callbacks, preserved as sim::RefEventQueue).
//
// The workload is the kernel's worst honest case: per-node random
// ticks (~10ms mean), a cancel-heavy timeout that every tick re-arms
// (5-80ms out, so cancelled entries churn through the wheel bands), rare
// far-future timeouts (+30s, exercising the far heap), and same-time
// defer bursts (exercising the FIFO tie-break). Callback captures are
// ~40 bytes: inline for SmallFn, a heap allocation per event for
// std::function.
//
// Both engines execute the same RNG-driven event stream; an FNV-1a
// checksum over (time, node, kind) of every executed event proves it.
// Reports events/sec and wall-time per simulated hour; `--json` writes
// BENCH_f13_scale.json for the check.sh regression gate. Checksums,
// event counts, and end times are deterministic columns; wall-clock
// columns are host timing.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "sim/event_queue.hpp"
#include "reference/ref_event_queue.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

using namespace evolve;

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

struct ScaleResult {
  double wall_s = 0;
  std::uint64_t executed = 0;
  std::uint64_t pushes = 0;
  std::uint64_t cancels = 0;
  std::uint64_t checksum = kFnvOffset;
  // Checksum snapshot after `partial_at` executed events (0 = unused);
  // lets a truncated reference run be compared against a full run.
  std::uint64_t partial_checksum = 0;
  util::TimeNs end_time = 0;
};

/// One simulated run: `nodes` actors, stop after `budget` executed
/// events. Queue is sim::EventQueue or sim::RefEventQueue; both expose
/// push/cancel/pop/empty with identical semantics.
template <typename Queue>
ScaleResult run_scale(int nodes, std::uint64_t budget,
                      std::uint64_t partial_at) {
  Queue queue;
  util::Rng rng(0xf13c0de ^ static_cast<std::uint64_t>(nodes));
  ScaleResult r;
  util::TimeNs now = 0;
  // Pending re-armable timeout per node (0 = none).
  std::vector<std::uint64_t> pending(static_cast<std::size_t>(nodes), 0);

  // The tick closure captures the driver pointers plus a 3-word salt so
  // the capture is ~40 bytes — inline for SmallFn, heap for std::function.
  struct Ctx {
    Queue* queue;
    util::Rng* rng;
    ScaleResult* r;
    util::TimeNs* now;
    std::vector<std::uint64_t>* pending;
    int nodes;
  };
  Ctx ctx{&queue, &rng, &r, &now, &pending, nodes};

  struct TickFn {
    Ctx* c;
    int node;
    std::uint64_t salt[3];

    void operator()() const {
      Ctx& ctx = *c;
      ScaleResult& r = *ctx.r;
      const util::TimeNs now = *ctx.now;
      r.checksum = (r.checksum ^ (static_cast<std::uint64_t>(now) * 3 +
                                  static_cast<std::uint64_t>(node))) *
                   kFnvPrime;
      // Re-arm this node's timeout: cancel the old one, push a new one
      // 5-80ms out (cancel-heavy wheel churn).
      auto& pending = (*ctx.pending)[static_cast<std::size_t>(node)];
      if (pending != 0 && ctx.queue->cancel(pending)) ++r.cancels;
      const util::TimeNs timeout_at =
          now + util::millis(5) +
          static_cast<util::TimeNs>(ctx.rng->uniform_int(0, 75'000'000));
      pending = ctx.queue->push(
          timeout_at, TimeoutFn{c, node, {salt[0] + 1, salt[1], salt[2]}});
      ++r.pushes;
      // Rare far-future work: lands past the wheel horizon.
      if (ctx.rng->uniform_int(0, 63) == 0) {
        ctx.queue->push(now + util::seconds(30),
                        TimeoutFn{c, node, {salt[0], salt[1] + 7, salt[2]}});
        ++r.pushes;
      }
      // Same-time defer burst: exercises the (time, seq) FIFO tie-break.
      if (ctx.rng->uniform_int(0, 7) == 0) {
        ctx.queue->push(now, BurstFn{c, node, {salt[0], salt[1], salt[2]}});
        ++r.pushes;
      }
      // Next tick: uniform 1ns-20ms (~10ms mean). Uniform rather than
      // exponential so the driver's per-event cost has no log() call —
      // shared driver work dilutes the kernel comparison.
      const auto dt =
          static_cast<util::TimeNs>(ctx.rng->uniform_int(1, 20'000'000));
      ctx.queue->push(now + dt, TickFn{c, node, {salt[0] ^ 0x9e37,
                                                 salt[1] + 1, salt[2]}});
      ++r.pushes;
    }

    struct TimeoutFn {
      Ctx* c;
      int node;
      std::uint64_t salt[3];
      void operator()() const {
        ScaleResult& r = *c->r;
        r.checksum = (r.checksum ^ (static_cast<std::uint64_t>(*c->now) * 5 +
                                    static_cast<std::uint64_t>(node))) *
                     kFnvPrime;
        auto& pending = (*c->pending)[static_cast<std::size_t>(node)];
        pending = 0;  // fired; the next tick arms a fresh one
      }
    };
    struct BurstFn {
      Ctx* c;
      int node;
      std::uint64_t salt[3];
      void operator()() const {
        ScaleResult& r = *c->r;
        r.checksum = (r.checksum ^ (static_cast<std::uint64_t>(*c->now) * 7 +
                                    static_cast<std::uint64_t>(node))) *
                     kFnvPrime;
      }
    };
  };

  for (int n = 0; n < nodes; ++n) {
    const auto start =
        static_cast<util::TimeNs>(rng.uniform_int(1, 20'000'000));
    queue.push(start, TickFn{&ctx, n, {static_cast<std::uint64_t>(n), 0, 0}});
    ++r.pushes;
  }

  const auto begin = std::chrono::steady_clock::now();
  while (r.executed < budget && !queue.empty()) {
    auto ev = queue.pop();
    now = ev.time;
    ev.fn();
    ++r.executed;
    if (r.executed == partial_at) r.partial_checksum = r.checksum;
  }
  const auto end = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(end - begin).count();
  r.end_time = now;
  return r;
}

std::string hex_of(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string label_of(int nodes) {
  if (nodes % 1000 == 0) return std::to_string(nodes / 1000) + "k";
  return std::to_string(nodes);
}

double events_per_sec(const ScaleResult& r) {
  return r.wall_s > 0 ? static_cast<double>(r.executed) / r.wall_s : 0.0;
}

double wall_per_sim_hour(const ScaleResult& r) {
  const double sim_s = util::to_seconds(r.end_time);
  return sim_s > 0 ? r.wall_s * 3600.0 / sim_s : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  struct Point {
    int nodes;
    std::uint64_t events;
    std::uint64_t ref_events;  // reference run budget (may be truncated)
  };
  std::vector<Point> points;
  if (quick) {
    points = {{1'000, 200'000, 200'000}};
  } else {
    points = {{1'000, 1'000'000, 1'000'000},
              {10'000, 5'000'000, 5'000'000},
              {100'000, 20'000'000, 2'000'000}};
  }

  core::Table table("F13: kernel scale sweep, calendar queue vs binary heap",
                    {"nodes", "engine", "events", "wall", "events/sec",
                     "wall/sim-hour", "checksum"});
  core::MetricsReport report("f13_scale");
  report.set("quick", quick ? 1 : 0);

  double speedup_10k = 0;
  for (const Point& p : points) {
    const std::string label = label_of(p.nodes);
    const bool truncated = p.ref_events < p.events;
    const std::uint64_t partial_at = truncated ? p.ref_events : 0;

    const ScaleResult cal =
        run_scale<sim::EventQueue>(p.nodes, p.events, partial_at);
    const ScaleResult ref =
        run_scale<sim::RefEventQueue>(p.nodes, p.ref_events, 0);

    const std::uint64_t cal_cmp =
        truncated ? cal.partial_checksum : cal.checksum;
    const bool match = cal_cmp == ref.checksum;
    const double cal_eps = events_per_sec(cal);
    const double ref_eps = events_per_sec(ref);
    const double speedup = ref_eps > 0 ? cal_eps / ref_eps : 0.0;
    if (p.nodes == 10'000) speedup_10k = speedup;

    table.add_row({label, "calendar", std::to_string(cal.executed),
                   util::fixed(cal.wall_s * 1e3, 0) + " ms",
                   util::fixed(cal_eps / 1e6, 2) + "M",
                   util::fixed(wall_per_sim_hour(cal), 1) + " s",
                   hex_of(cal.checksum)});
    table.add_row({label, "binary-heap", std::to_string(ref.executed),
                   util::fixed(ref.wall_s * 1e3, 0) + " ms",
                   util::fixed(ref_eps / 1e6, 2) + "M",
                   util::fixed(wall_per_sim_hour(ref), 1) + " s",
                   hex_of(ref.checksum)});

    // Deterministic columns (identical on every host).
    report.set("cal_" + label + "_events",
               static_cast<std::int64_t>(cal.executed));
    report.set("cal_" + label + "_pushes",
               static_cast<std::int64_t>(cal.pushes));
    report.set("cal_" + label + "_cancels",
               static_cast<std::int64_t>(cal.cancels));
    report.set("cal_" + label + "_checksum",
               static_cast<std::int64_t>(cal.checksum));
    report.set("cal_" + label + "_end_time_ns",
               static_cast<std::int64_t>(cal.end_time));
    report.set("ref_" + label + "_events",
               static_cast<std::int64_t>(ref.executed));
    report.set("ref_" + label + "_checksum",
               static_cast<std::int64_t>(ref.checksum));
    report.set("match_" + label, match ? 1 : 0);
    // Host-timing columns (filtered out of bit-identity diffs).
    report.set("cal_" + label + "_wall_s", cal.wall_s);
    report.set("cal_" + label + "_events_per_sec", cal_eps);
    report.set("cal_" + label + "_wall_per_sim_hour_s",
               wall_per_sim_hour(cal));
    report.set("ref_" + label + "_wall_s", ref.wall_s);
    report.set("ref_" + label + "_events_per_sec", ref_eps);
    report.set("speedup_" + label, speedup);

    if (!match) {
      std::cout << "ERROR: engine checksums diverge at " << label
                << " nodes\n";
      return 1;
    }
  }
  table.print();
  if (!quick) {
    std::cout << "\nSpeedup at the 10k-node point (calendar vs binary heap): "
              << util::fixed(speedup_10k, 2) << "x\n";
  }
  std::cout << "Shape check: per-point checksums match across engines (same "
               "executed event stream); events/sec should stay roughly flat "
               "from 1k to 100k nodes for the calendar queue.\n";

  if (core::json_mode(argc, argv)) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
