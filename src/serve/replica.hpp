// One serving replica: bounded FIFO queue, dynamic batching, execution.
//
// A ReplicaServer models one pod of a deployment serving requests on its
// node. Requests enter a bounded FIFO; the BatchFormer decides when the
// head batch is released (full, or the head lingered out); the batch
// then executes for `batch_setup + n * compute_cost` of work — on the
// replica's CPU share stretched by the node's gray slowdown factor, or
// offloaded to the accel pool when the class names a kernel (the pool
// applies kernel speedup, device queueing, and the device's own
// slowdown).
//
// Replicas are single-batch servers: one batch executes at a time, which
// is what makes queue sojourn the honest overload signal the admission
// controller consumes.
//
// Lifecycle: close() puts the replica in a terminal state (pod evicted
// or scaled down) and hands back the still-queued requests for
// re-routing; an executing batch is allowed to drain in simulation, and
// its completion is reported with `closed() == true` so the service can
// re-route those requests too. The owner must keep the object alive
// until it is idle (pending events capture `this`).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "accel/pool.hpp"
#include "serve/batch.hpp"
#include "serve/request.hpp"
#include "sim/simulation.hpp"
#include "trace/tracer.hpp"
#include "util/types.hpp"

namespace evolve::serve {

struct ReplicaConfig {
  int queue_limit = 64;  // bounded FIFO; overflow = shed
  BatchConfig batch;
};

class ReplicaServer {
 public:
  /// Fired once per request when it leaves the queue into a batch
  /// (sojourn = batch start - enqueue).
  using DequeueFn = std::function<void(util::TimeNs sojourn)>;
  /// Fired when a batch finishes executing: the copies it carried, the
  /// class, and the per-batch execution time.
  using BatchDoneFn = std::function<void(std::int64_t replica_key,
                                         const std::vector<CopyRef>& copies,
                                         int cls, util::TimeNs exec)>;

  ReplicaServer(sim::Simulation& sim, std::int64_t key, cluster::NodeId node,
                const std::vector<RequestClass>& classes,
                ReplicaConfig config, DequeueFn on_dequeue,
                BatchDoneFn on_batch_done);
  ReplicaServer(const ReplicaServer&) = delete;
  ReplicaServer& operator=(const ReplicaServer&) = delete;

  /// Enqueues copy `copy` of request `id`. Returns false (shed) when the
  /// queue is at its limit or the replica is closed. `copy_span` parents
  /// the serve.queue / serve.exec spans.
  bool enqueue(RequestId id, int copy, int cls, trace::SpanId copy_span);

  /// Removes a still-queued copy (a hedge race was lost). Returns false
  /// when the copy is not in the queue (already executing or done).
  bool cancel_queued(RequestId id, int copy);

  /// Terminal: stops accepting, cancels the linger timer, and returns
  /// the queued requests (FIFO order) for the service to re-route.
  std::vector<QueuedRequest> close();

  std::int64_t key() const { return key_; }
  cluster::NodeId node() const { return node_; }
  bool closed() const { return closed_; }
  bool executing() const { return executing_; }
  /// True when no batch is executing and nothing is queued — a closed
  /// replica may be destroyed once idle.
  bool idle() const { return !executing_ && queue_.empty(); }
  int queue_depth() const { return static_cast<int>(queue_.size()); }

  std::int64_t batches_executed() const { return batches_; }
  std::int64_t requests_executed() const { return requests_executed_; }

  /// Gray-failure CPU slowdown (>= 1; applied at batch start).
  void set_slowdown(double factor) { slowdown_ = factor; }
  double slowdown() const { return slowdown_; }

  /// Attaches the accel pool used for classes with an accel kernel.
  void set_accel_pool(accel::AccelPool* pool) { pool_ = pool; }
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

 private:
  void maybe_start();
  void start_batch(const std::vector<std::size_t>& take);
  void finish_batch(int cls, util::TimeNs exec, trace::SpanId batch_span);

  sim::Simulation& sim_;
  std::int64_t key_;
  cluster::NodeId node_;
  const std::vector<RequestClass>& classes_;
  ReplicaConfig config_;
  BatchFormer former_;
  DequeueFn on_dequeue_;
  BatchDoneFn on_batch_done_;
  RequestQueue queue_;
  // Reused per batch: at most one batch executes at a time, so the
  // executing batch, its serve.exec spans and the copies handed to the
  // batch-done callback live here, and the batch-done event captures
  // only scalars.
  BatchPlan plan_;
  std::vector<QueuedRequest> batch_;
  std::vector<trace::SpanId> exec_spans_;
  std::vector<CopyRef> batch_copies_;
  bool executing_ = false;
  bool closed_ = false;
  double slowdown_ = 1.0;
  sim::EventId linger_event_ = 0;
  bool linger_armed_ = false;
  util::TimeNs linger_deadline_ = -1;
  accel::AccelPool* pool_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  std::int64_t batches_ = 0;
  std::int64_t requests_executed_ = 0;
};

}  // namespace evolve::serve
