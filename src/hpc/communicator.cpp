#include "hpc/communicator.hpp"

#include <memory>
#include <stdexcept>

namespace evolve::hpc {
namespace {

/// Software overhead charged per message on top of the fabric time.
constexpr util::TimeNs kPerMessageOverhead = util::micros(1);
/// Local combine cost for reductions (ns per byte reduced).
constexpr double kReduceNsPerByte = 0.05;

}  // namespace

Communicator::Communicator(sim::Simulation& sim, net::Fabric& fabric,
                           std::vector<cluster::NodeId> rank_nodes)
    : sim_(sim), fabric_(fabric), rank_nodes_(std::move(rank_nodes)) {
  if (rank_nodes_.empty()) {
    throw std::invalid_argument("communicator needs at least one rank");
  }
}

cluster::NodeId Communicator::node_of(int rank) const {
  if (rank < 0 || rank >= size()) throw std::out_of_range("bad rank");
  return rank_nodes_[static_cast<std::size_t>(rank)];
}

template <typename Fn>
void Communicator::post(int src, int dst, util::Bytes bytes, Fn on_done) {
  const cluster::NodeId src_node = node_of(src);
  const cluster::NodeId dst_node = node_of(dst);
  metrics_.count("messages");
  metrics_.count("bytes_sent", bytes);
  sim_.after(kPerMessageOverhead,
             [this, src_node, dst_node, bytes,
              cb = std::move(on_done)]() mutable {
               fabric_.transfer(src_node, dst_node, bytes, std::move(cb));
             });
}

void Communicator::send(int src, int dst, util::Bytes bytes,
                        Callback on_done) {
  post(src, dst, bytes, std::move(on_done));
}

Communicator::Run* Communicator::acquire_run() {
  if (idle_runs_.empty()) {
    runs_.push_back(std::make_unique<Run>());
    return runs_.back().get();
  }
  Run* run = idle_runs_.back();
  idle_runs_.pop_back();
  return run;
}

void Communicator::start(Run* run, Callback on_done) {
  run->round = 0;
  run->on_done = std::move(on_done);
  metrics_.count("collectives");
  run_round(run);
}

void Communicator::run_round(Run* run) {
  const Schedule& schedule = *run->schedule;
  if (run->round >= schedule.size()) {
    // Back to the pool before the callback, which may start another.
    Callback on_done = std::move(run->on_done);
    run->on_done = nullptr;
    idle_runs_.push_back(run);
    on_done();
    return;
  }
  const Round& round = schedule[run->round];
  if (round.transfers.empty()) {
    sim_.after(round.compute, [this, run] { next_round(run); });
    return;
  }
  run->remaining = static_cast<int>(round.transfers.size());
  for (const Transfer& t : round.transfers) {
    post(t.src, t.dst, t.bytes, [this, run] {
      if (--run->remaining > 0) return;
      sim_.after((*run->schedule)[run->round].compute,
                 [this, run] { next_round(run); });
    });
  }
}

void Communicator::next_round(Run* run) {
  ++run->round;
  run_round(run);
}

void Communicator::execute(const Schedule& schedule, Callback on_done) {
  Run* run = acquire_run();
  run->owned = schedule;  // copy-assignment reuses the run's storage
  run->schedule = &run->owned;
  start(run, std::move(on_done));
}

void Communicator::barrier(Callback on_done) {
  execute(barrier_schedule(size()), std::move(on_done));
}

void Communicator::bcast(int root, util::Bytes bytes, CollectiveAlgo algo,
                         Callback on_done) {
  execute(bcast_schedule(size(), root, bytes, algo), std::move(on_done));
}

void Communicator::reduce(int root, util::Bytes bytes, CollectiveAlgo algo,
                          Callback on_done) {
  execute(reduce_schedule(size(), root, bytes, kReduceNsPerByte, algo),
          std::move(on_done));
}

void Communicator::allreduce(util::Bytes bytes, CollectiveAlgo algo,
                             Callback on_done) {
  auto it = allreduce_schedules_.find({bytes, algo});
  if (it == allreduce_schedules_.end()) {
    it = allreduce_schedules_
             .emplace(std::make_pair(bytes, algo),
                      allreduce_schedule(size(), bytes, kReduceNsPerByte,
                                         algo))
             .first;
  }
  Run* run = acquire_run();
  run->schedule = &it->second;
  start(run, std::move(on_done));
}

void Communicator::allgather(util::Bytes bytes_per_rank, Callback on_done) {
  execute(allgather_schedule(size(), bytes_per_rank), std::move(on_done));
}

void Communicator::scatter(int root, util::Bytes bytes_per_rank,
                           Callback on_done) {
  execute(scatter_schedule(size(), root, bytes_per_rank),
          std::move(on_done));
}

void Communicator::gather(int root, util::Bytes bytes_per_rank,
                          Callback on_done) {
  execute(gather_schedule(size(), root, bytes_per_rank), std::move(on_done));
}

void Communicator::reduce_scatter(util::Bytes bytes, Callback on_done) {
  execute(reduce_scatter_schedule(size(), bytes, kReduceNsPerByte),
          std::move(on_done));
}

void Communicator::alltoall(util::Bytes bytes_per_pair, Callback on_done) {
  execute(alltoall_schedule(size(), bytes_per_pair), std::move(on_done));
}

}  // namespace evolve::hpc
