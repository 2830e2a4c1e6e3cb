// F9 — Simulation-kernel churn: thousands of concurrent flows with Poisson
// arrivals and mid-flight cancels on a racked topology, run through both
// fabric engines (incremental grouped net::Fabric vs the from-scratch
// reference::RefFabric).
//
// Reports wall-clock per simulated flow, solver recompute counts, and the
// speedup of the incremental kernel; `--json` also writes
// BENCH_f9_churn.json for cross-PR tracking.
#include <chrono>
#include <iostream>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "net/fabric.hpp"
#include "reference/ref_fabric.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

using namespace evolve;

namespace {

constexpr int kHosts = 16;
constexpr int kRacks = 4;

struct Arrival {
  util::TimeNs time;
  cluster::NodeId src;
  cluster::NodeId dst;
  util::Bytes bytes;
};

struct Schedule {
  std::vector<Arrival> arrivals;
  std::vector<std::pair<util::TimeNs, int>> cancels;  // (time, arrival index)
};

// One opening shuffle wave (all arrivals at t=0) followed by Poisson churn.
// With 16 hosts there are only 240 distinct directed paths, so a 4096-flow
// wave stresses exactly what flow grouping is for: many flows, few groups.
Schedule make_schedule(int wave, int churn) {
  util::Rng rng(0xf9f9f9f9ULL);
  Schedule s;
  for (int i = 0; i < wave; ++i) {
    const auto src = static_cast<cluster::NodeId>(rng.uniform_int(0, kHosts - 1));
    auto dst = static_cast<cluster::NodeId>(rng.uniform_int(0, kHosts - 1));
    if (dst == src) dst = static_cast<cluster::NodeId>((dst + 1) % kHosts);
    s.arrivals.push_back(Arrival{0, src, dst, 256 * util::kMiB});
  }
  util::TimeNs t = 0;
  for (int i = 0; i < churn; ++i) {
    t += static_cast<util::TimeNs>(rng.exponential(1.0 / 20e3));  // ~20us mean
    const auto src = static_cast<cluster::NodeId>(rng.uniform_int(0, kHosts - 1));
    auto dst = static_cast<cluster::NodeId>(rng.uniform_int(0, kHosts - 1));
    if (dst == src) dst = static_cast<cluster::NodeId>((dst + 1) % kHosts);
    const util::Bytes bytes = rng.uniform_int(1, 16) * util::kMiB;
    const int index = wave + i;
    s.arrivals.push_back(Arrival{t, src, dst, bytes});
    if (rng.chance(0.15)) {
      s.cancels.emplace_back(
          t + static_cast<util::TimeNs>(rng.exponential(1.0 / 1e6)) + 1, index);
    }
  }
  return s;
}

struct ChurnResult {
  double wall_s = 0;
  std::int64_t recomputations = 0;
  std::int64_t completed = 0;
  std::int64_t cancelled = 0;
  std::size_t events = 0;
  int peak_concurrent = 0;
};

template <typename FabricT>
ChurnResult run_churn(const Schedule& schedule) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(kHosts, 0, 0, kRacks);
  net::Topology topology(cluster);
  FabricT fabric(sim, topology);
  ChurnResult result;
  std::vector<net::FlowId> started(schedule.arrivals.size(), -1);
  for (std::size_t i = 0; i < schedule.arrivals.size(); ++i) {
    const Arrival& a = schedule.arrivals[i];
    sim.at(a.time, [&, i, a] {
      started[i] = fabric.transfer(a.src, a.dst, a.bytes, [] {});
      result.peak_concurrent =
          std::max(result.peak_concurrent, fabric.active_flows());
    });
  }
  for (const auto& [time, index] : schedule.cancels) {
    sim.at(time, [&fabric, &started, index = index] {
      if (started[static_cast<std::size_t>(index)] >= 0) {
        fabric.cancel(started[static_cast<std::size_t>(index)]);
      }
    });
  }
  const auto begin = std::chrono::steady_clock::now();
  result.events = sim.run();
  const auto end = std::chrono::steady_clock::now();
  result.wall_s = std::chrono::duration<double>(end - begin).count();
  result.recomputations = fabric.stats().rate_recomputations;
  result.completed = fabric.stats().flows_completed;
  result.cancelled = fabric.stats().flows_cancelled;
  return result;
}

// Recomputes needed to absorb a same-timestamp wave of `n` flows.
std::int64_t wave_recomputations(int n) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(kHosts, 0, 0, kRacks);
  net::Topology topology(cluster);
  net::Fabric fabric(sim, topology);
  util::Rng rng(7);
  net::FlowId last = -1;
  for (int i = 0; i < n; ++i) {
    const auto src = static_cast<cluster::NodeId>(rng.uniform_int(0, kHosts - 1));
    auto dst = static_cast<cluster::NodeId>(rng.uniform_int(0, kHosts - 1));
    if (dst == src) dst = static_cast<cluster::NodeId>((dst + 1) % kHosts);
    last = fabric.transfer(src, dst, 64 * util::kMiB, [] {});
  }
  fabric.flow_rate(last);  // force the deferred flush
  return fabric.stats().rate_recomputations;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kWave = 4096;
  constexpr int kChurn = 2048;
  const Schedule schedule = make_schedule(kWave, kChurn);

  const ChurnResult inc = run_churn<net::Fabric>(schedule);
  const ChurnResult ref = run_churn<reference::RefFabric>(schedule);

  const auto flows = static_cast<double>(schedule.arrivals.size());
  const double inc_us_per_flow = inc.wall_s * 1e6 / flows;
  const double ref_us_per_flow = ref.wall_s * 1e6 / flows;
  const double speedup = ref_us_per_flow / inc_us_per_flow;

  core::Table table("F9: fabric churn, 4096-flow wave + 2048 Poisson arrivals",
                    {"engine", "wall", "us/flow", "recomputes", "events",
                     "peak flows"});
  auto row = [&](const char* name, const ChurnResult& r, double us) {
    table.add_row({name, util::fixed(r.wall_s * 1e3, 1) + " ms",
                   util::fixed(us, 2), std::to_string(r.recomputations),
                   std::to_string(r.events), std::to_string(r.peak_concurrent)});
  };
  row("incremental", inc, inc_us_per_flow);
  row("reference", ref, ref_us_per_flow);
  table.print();
  std::cout << "\nSpeedup (wall-clock per flow): " << util::fixed(speedup, 1)
            << "x\n";

  core::Table waves("F9b: recomputes to absorb one same-timestamp wave",
                    {"wave flows", "recomputes (incremental)",
                     "recomputes (eager would be)"});
  core::MetricsReport report("f9_churn");
  report.set("flows_total", static_cast<std::int64_t>(schedule.arrivals.size()));
  report.set("peak_concurrent", inc.peak_concurrent);
  report.set("incremental_wall_s", inc.wall_s);
  report.set("incremental_us_per_flow", inc_us_per_flow);
  report.set("incremental_us_per_event",
             inc.wall_s * 1e6 / static_cast<double>(inc.events));
  report.set("incremental_rate_recomputations", inc.recomputations);
  report.set("incremental_events", static_cast<std::int64_t>(inc.events));
  report.set("reference_wall_s", ref.wall_s);
  report.set("reference_us_per_flow", ref_us_per_flow);
  report.set("reference_us_per_event",
             ref.wall_s * 1e6 / static_cast<double>(ref.events));
  report.set("reference_rate_recomputations", ref.recomputations);
  report.set("reference_events", static_cast<std::int64_t>(ref.events));
  report.set("speedup_per_flow", speedup);
  for (int n : {1024, 2048, 4096}) {
    const std::int64_t solves = wave_recomputations(n);
    waves.add_row({std::to_string(n), std::to_string(solves),
                   std::to_string(n)});
    report.set("wave_" + std::to_string(n) + "_recomputations", solves);
  }
  std::cout << "\n";
  waves.print();
  std::cout << "\nShape check: completions "
            << inc.completed << "/" << ref.completed << ", cancels "
            << inc.cancelled << "/" << ref.cancelled
            << " (engines must agree); wave recomputes stay flat while the "
               "wave size doubles.\n";

  if (core::has_flag(argc, argv, "--json")) {
    std::cout << "wrote " << report.write() << "\n";
  }
  return 0;
}
