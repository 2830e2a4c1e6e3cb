// MPI-style communicator executing point-to-point messages and collective
// schedules over the simulated fabric.
//
// Ranks map to cluster nodes (several ranks may share a node; intra-node
// traffic uses the loopback path). Collectives run round-by-round: all
// transfers of a round proceed in parallel, then local reduction compute
// is charged, then the next round starts.
//
// A running collective is one pooled state that all of its message
// events point at, so a warm collective allocates nothing per message,
// and allreduce schedules are built once per (bytes, algorithm).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "hpc/collectives.hpp"
#include "metrics/registry.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "util/types.hpp"

namespace evolve::hpc {

class Communicator {
 public:
  using Callback = std::function<void()>;

  Communicator(sim::Simulation& sim, net::Fabric& fabric,
               std::vector<cluster::NodeId> rank_nodes);

  int size() const { return static_cast<int>(rank_nodes_.size()); }
  cluster::NodeId node_of(int rank) const;

  /// Point-to-point message; `on_done` fires when it is fully received.
  void send(int src, int dst, util::Bytes bytes, Callback on_done);

  /// Executes a prebuilt schedule round-by-round. The schedule is copied,
  /// so the caller's may go away.
  void execute(const Schedule& schedule, Callback on_done);

  // Convenience collective entry points.
  void barrier(Callback on_done);
  void bcast(int root, util::Bytes bytes, CollectiveAlgo algo,
             Callback on_done);
  void reduce(int root, util::Bytes bytes, CollectiveAlgo algo,
              Callback on_done);
  /// The schedule for each (bytes, algo) is built on first use and kept
  /// for the communicator's lifetime.
  void allreduce(util::Bytes bytes, CollectiveAlgo algo, Callback on_done);
  void allgather(util::Bytes bytes_per_rank, Callback on_done);
  void scatter(int root, util::Bytes bytes_per_rank, Callback on_done);
  void gather(int root, util::Bytes bytes_per_rank, Callback on_done);
  void reduce_scatter(util::Bytes bytes, Callback on_done);
  void alltoall(util::Bytes bytes_per_pair, Callback on_done);

  metrics::Registry& metrics() { return metrics_; }

 private:
  /// One running collective. Its message events capture only
  /// {this, run, ...}, so they stay inline in util::SmallFn.
  struct Run {
    const Schedule* schedule = nullptr;  // `owned` or a cached schedule
    Schedule owned;
    std::size_t round = 0;
    int remaining = 0;  // messages of the round still in flight
    Callback on_done;
  };

  /// An idle run from the pool (a new one when none is idle).
  Run* acquire_run();
  /// Counts the collective and starts `run` at round 0.
  void start(Run* run, Callback on_done);
  /// Starts the run's current round, or finishes the run after the last.
  void run_round(Run* run);
  void next_round(Run* run);
  /// Counts one message and sends it after the per-message overhead;
  /// `on_done` runs when it is received.
  template <typename Fn>
  void post(int src, int dst, util::Bytes bytes, Fn on_done);

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  std::vector<cluster::NodeId> rank_nodes_;
  metrics::Registry metrics_;
  std::vector<std::unique_ptr<Run>> runs_;  // every run, idle or not
  std::vector<Run*> idle_runs_;
  std::map<std::pair<util::Bytes, CollectiveAlgo>, Schedule>
      allreduce_schedules_;
};

}  // namespace evolve::hpc
