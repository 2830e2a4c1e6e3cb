// F15 — Hierarchical fair share under three-world contention: a serving
// deployment, a batch pod flood, and periodic MPI gangs oversubscribe an
// 8-node cluster. Priority-only scheduling (the baseline) lets the
// high-priority worlds squeeze batch out; the fair-share pool tree plus
// budget-gated preemption and the background rebalancer converge every
// tenant toward its share. Reported: per-tenant delivered share, Jain
// fairness index, worst-case queue wait (starvation), preemption churn.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/report.hpp"
#include "orch/controllers.hpp"
#include "orch/fairshare.hpp"
#include "orch/rebalancer.hpp"
#include "orch/scheduler.hpp"
#include "sim/simulation.hpp"
#include "util/strings.hpp"
#include "util/types.hpp"

using namespace evolve;

namespace {

constexpr int kNodes = 8;                       // 8 x 32 cores = 256 cores
constexpr util::TimeNs kHorizon = util::seconds(150);
const char* const kTenants[] = {"serving", "batch", "mpi"};

struct TenantOutcome {
  double core_seconds = 0;  // delivered CPU integral over the horizon
  double max_wait_s = 0;    // worst queue wait (starvation proxy)
};

struct RunOutcome {
  std::map<std::string, TenantOutcome> tenants;
  double jain = 0;
  double cpu_util = 0;
  std::int64_t preemptions = 0;
  std::int64_t rebalance_evictions = 0;
};

double overlap_core_seconds(const orch::PodStatus& status,
                            util::TimeNs horizon) {
  if (status.start_time < 0) return 0;
  util::TimeNs end = horizon;
  if (status.finish_time >= 0 && status.finish_time < horizon) {
    end = status.finish_time;
  }
  if (end <= status.start_time) return 0;
  const double seconds = (end - status.start_time) / double(util::kSecond);
  return seconds * (status.spec.request.cpu_millicores / 1000.0);
}

double jain_index(const std::vector<double>& shares) {
  double sum = 0, sum_sq = 0;
  for (double x : shares) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0) return 0;
  return (sum * sum) / (shares.size() * sum_sq);
}

RunOutcome run_world(bool fair_share) {
  sim::Simulation sim;
  auto cluster = cluster::make_testbed(kNodes, 0, 0);
  orch::OrchestratorConfig config;
  config.enable_preemption = true;
  config.enable_fair_preemption = fair_share;
  orch::Orchestrator orch(sim, cluster,
                          orch::SchedulingPolicy::spreading(cluster), config);

  orch::PoolTree tree;
  orch::Rebalancer rebalancer(
      sim, orch,
      {.interval = util::millis(500),
       .starvation_threshold = util::seconds(1),
       .max_evictions_per_round = 2,
       .max_starving_considered = 8});
  if (fair_share) {
    // Equal-weight pools; serving also carries a 32-core guarantee
    // (an availability floor, below its weight share here).
    tree.add_pool({.name = "serving",
                   .guarantee = cluster::cpu_mem(32000, 0)});
    tree.add_pool({.name = "batch"});
    tree.add_pool({.name = "mpi"});
    for (const char* tenant : kTenants) tree.assign_tenant(tenant, tenant);
    orch.attach_pool_tree(&tree);
    rebalancer.start();
  }

  // World 1: serving. 8 replicas x 8 cores at priority 10, scaling to 18
  // at t=50s into an already-saturated cluster; protected by a
  // disruption budget in fair mode.
  orch::PodSpec replica;
  replica.tenant = "serving";
  replica.request = cluster::cpu_mem(8000, 8 * util::kGiB);
  replica.priority = 10;
  orch::DeploymentController frontend(orch, "frontend", replica, 8);
  sim.at(util::seconds(50), [&] { frontend.scale(18); });
  // Serving replicas are controller-owned; integrate their delivered CPU
  // through the replica observer (evicted replicas count up to the
  // moment they left).
  double serving_core_s = 0;
  std::map<orch::PodId, util::TimeNs> up_since;
  const double replica_cores = replica.request.cpu_millicores / 1000.0;
  frontend.set_replica_observer(
      [&](orch::PodId id, cluster::NodeId, bool up) {
        if (up) {
          up_since[id] = sim.now();
          return;
        }
        auto it = up_since.find(id);
        if (it == up_since.end()) return;
        serving_core_s +=
            (sim.now() - it->second) / double(util::kSecond) * replica_cores;
        up_since.erase(it);
      });
  if (fair_share) {
    frontend.set_disruption_budget({.max_evictions_per_window = 2,
                                    .window = util::seconds(5),
                                    .min_available = 8});
  }

  // Pod bookkeeping for tenants we submit directly.
  std::vector<orch::PodId> tracked;
  auto submit_batch = [&] {
    orch::PodSpec spec;
    spec.tenant = "batch";
    spec.request = cluster::cpu_mem(4000, 4 * util::kGiB);
    spec.priority = 0;
    tracked.push_back(orch.submit(spec, util::seconds(25)));
  };
  auto submit_gang = [&] {
    std::vector<orch::PodSpec> members(4);
    for (auto& member : members) {
      member.tenant = "mpi";
      member.request = cluster::cpu_mem(16000, 16 * util::kGiB);
      member.priority = 5;
    }
    for (orch::PodId id : orch.submit_gang(members, util::seconds(10))) {
      tracked.push_back(id);
    }
  };

  // World 2: batch flood — 5 x 4-core pods every 2 s for 140 s
  // (~250 cores of steady demand: batch alone can eat the cluster).
  for (int t = 0; t < 140; t += 2) {
    sim.at(util::seconds(t), [&, n = 5] {
      for (int i = 0; i < n; ++i) submit_batch();
    });
  }
  // World 3: MPI gangs — 4 x 16 cores for 10 s, every 12 s (~53 cores of
  // average demand; all-or-nothing, so fragmentation starves it first).
  for (int t = 0; t < 143; t += 12) {
    sim.at(util::seconds(t), [&] { submit_gang(); });
  }

  sim.run_until(kHorizon);

  RunOutcome outcome;
  for (const char* tenant : kTenants) outcome.tenants[tenant];
  for (orch::PodId id : tracked) {
    const orch::PodStatus& status = orch.pod(id);
    TenantOutcome& t = outcome.tenants[status.spec.tenant];
    t.core_seconds += overlap_core_seconds(status, kHorizon);
    const util::TimeNs started_or_now =
        status.start_time >= 0 ? status.start_time : kHorizon;
    t.max_wait_s = std::max(
        t.max_wait_s, (started_or_now - status.submit_time) /
                          double(util::kSecond));
  }
  // Replicas still up at the horizon.
  for (const auto& [id, start] : up_since) {
    (void)id;
    serving_core_s +=
        (kHorizon - start) / double(util::kSecond) * replica_cores;
  }
  outcome.tenants["serving"].core_seconds += serving_core_s;

  std::vector<double> shares;
  for (const char* tenant : kTenants) {
    shares.push_back(outcome.tenants[tenant].core_seconds);
  }
  outcome.jain = jain_index(shares);
  outcome.cpu_util = orch.cpu_utilization();
  outcome.preemptions = orch.metrics().counter("preemptions");
  outcome.rebalance_evictions =
      orch.metrics().counter("rebalance_evictions");
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const RunOutcome priority = run_world(/*fair_share=*/false);
  const RunOutcome fair = run_world(/*fair_share=*/true);

  core::Table table(
      "F15: 3-world contention, priority-only vs hierarchical fair share "
      "(8 nodes, 150 s)",
      {"scheduler", "serving core-s", "batch core-s", "mpi core-s", "jain",
       "mpi max wait", "preemptions", "rebalance"});
  for (const auto& [name, outcome] :
       {std::pair{"priority", &priority}, std::pair{"fair-share", &fair}}) {
    table.add_row(
        {name,
         util::fixed(outcome->tenants.at("serving").core_seconds, 0),
         util::fixed(outcome->tenants.at("batch").core_seconds, 0),
         util::fixed(outcome->tenants.at("mpi").core_seconds, 0),
         util::fixed(outcome->jain, 3),
         util::fixed(outcome->tenants.at("mpi").max_wait_s, 1) + "s",
         std::to_string(outcome->preemptions),
         std::to_string(outcome->rebalance_evictions)});
  }
  table.print();
  std::cout << "\nShape check: under priority-only scheduling the "
               "all-or-nothing MPI gangs\nnever find room between the "
               "serving and batch worlds; the pool tree's\nreservation + "
               "budget-gated preemption pull every tenant toward its\n"
               "share (jain -> 1) at bounded preemption churn.\n";

  if (core::json_mode(argc, argv)) {
    core::MetricsReport report("f15_fairness");
    report.set("jain_fair", fair.jain);
    report.set("jain_priority", priority.jain);
    report.set("serving_core_s_fair",
               fair.tenants.at("serving").core_seconds);
    report.set("batch_core_s_fair", fair.tenants.at("batch").core_seconds);
    report.set("mpi_core_s_fair", fair.tenants.at("mpi").core_seconds);
    report.set("batch_core_s_priority",
               priority.tenants.at("batch").core_seconds);
    report.set("batch_max_wait_s_fair",
               fair.tenants.at("batch").max_wait_s);
    report.set("batch_max_wait_s_priority",
               priority.tenants.at("batch").max_wait_s);
    report.set("mpi_max_wait_s_fair", fair.tenants.at("mpi").max_wait_s);
    report.set("preemptions_fair", fair.preemptions);
    report.set("preemptions_priority", priority.preemptions);
    report.set("rebalance_evictions_fair", fair.rebalance_evictions);
    report.set("cpu_util_fair", fair.cpu_util);
    report.set("cpu_util_priority", priority.cpu_util);
    std::cout << "\nwrote " << report.write() << "\n";
  }
  return 0;
}
