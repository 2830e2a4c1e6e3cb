#include "serve/replica.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace evolve::serve {

ReplicaServer::ReplicaServer(sim::Simulation& sim, std::int64_t key,
                             cluster::NodeId node,
                             const std::vector<RequestClass>& classes,
                             ReplicaConfig config, DequeueFn on_dequeue,
                             BatchDoneFn on_batch_done)
    : sim_(sim),
      key_(key),
      node_(node),
      classes_(classes),
      config_(config),
      former_(config.batch),
      on_dequeue_(std::move(on_dequeue)),
      on_batch_done_(std::move(on_batch_done)) {
  if (config_.queue_limit < 1) {
    throw std::invalid_argument("queue_limit must be >= 1");
  }
  if (!on_batch_done_) {
    throw std::invalid_argument("replica needs a batch-done callback");
  }
}

bool ReplicaServer::enqueue(RequestId id, int copy, int cls,
                            trace::SpanId copy_span) {
  if (closed_) return false;
  if (static_cast<int>(queue_.size()) >= config_.queue_limit) return false;
  QueuedRequest entry;
  entry.id = id;
  entry.copy = copy;
  entry.cls = cls;
  entry.enqueued = sim_.now();
  entry.span = copy_span;
  entry.queue_span =
      trace::begin_span(tracer_, trace::Layer::kServe, "serve.queue",
                        copy_span);
  queue_.push_back(entry);
  maybe_start();
  return true;
}

bool ReplicaServer::cancel_queued(RequestId id, int copy) {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    QueuedRequest& entry = queue_[i];
    if (entry.id != id || entry.copy != copy) continue;
    if (tracer_ && entry.queue_span != trace::kNoSpan) {
      tracer_->annotate(entry.queue_span, "cancelled", "1");
    }
    trace::end_span(tracer_, entry.queue_span);
    queue_.erase(i);
    // The head may have changed; the linger deadline follows it.
    maybe_start();
    return true;
  }
  return false;
}

std::vector<QueuedRequest> ReplicaServer::close() {
  closed_ = true;
  if (linger_armed_) {
    sim_.cancel(linger_event_);
    linger_armed_ = false;
  }
  std::vector<QueuedRequest> orphans;
  orphans.reserve(queue_.size());
  for (std::size_t i = 0; i < queue_.size(); ++i) orphans.push_back(queue_[i]);
  for (QueuedRequest& entry : orphans) {
    if (tracer_ && entry.queue_span != trace::kNoSpan) {
      tracer_->annotate(entry.queue_span, "replica_closed", "1");
    }
    trace::end_span(tracer_, entry.queue_span);
    entry.queue_span = trace::kNoSpan;
  }
  queue_.clear();
  return orphans;
}

void ReplicaServer::maybe_start() {
  if (executing_ || closed_) return;
  former_.plan(queue_, sim_.now(), plan_);
  if (plan_.ready) {
    if (linger_armed_) {
      sim_.cancel(linger_event_);
      linger_armed_ = false;
    }
    start_batch(plan_.take);
    return;
  }
  if (plan_.release_at < 0) return;  // empty queue
  if (linger_armed_ && linger_deadline_ == plan_.release_at) return;
  if (linger_armed_) sim_.cancel(linger_event_);
  linger_deadline_ = plan_.release_at;
  linger_event_ = sim_.at(plan_.release_at, [this] {
    linger_armed_ = false;
    maybe_start();
  });
  linger_armed_ = true;
}

void ReplicaServer::start_batch(const std::vector<std::size_t>& take) {
  const util::TimeNs now = sim_.now();
  std::vector<QueuedRequest>& batch = batch_;
  batch.clear();
  // Indices ascend; erase from the back so earlier indices stay valid.
  for (auto it = take.rbegin(); it != take.rend(); ++it) {
    batch.push_back(queue_[*it]);
    queue_.erase(*it);
  }
  std::reverse(batch.begin(), batch.end());  // restore FIFO order

  const int cls = batch.front().cls;
  const RequestClass& klass = classes_[static_cast<std::size_t>(cls)];
  const auto n = static_cast<std::int64_t>(batch.size());

  trace::SpanId batch_span = trace::begin_span(
      tracer_, trace::Layer::kServe, "serve.batch", trace::kNoSpan);
  if (tracer_ && batch_span != trace::kNoSpan) {
    tracer_->annotate(batch_span, "replica", std::to_string(key_));
    tracer_->annotate(batch_span, "node", std::to_string(node_));
    tracer_->annotate(batch_span, "size", std::to_string(n));
    tracer_->annotate(batch_span, "class", klass.name);
  }

  exec_spans_.clear();
  for (QueuedRequest& entry : batch) {
    trace::end_span(tracer_, entry.queue_span);
    entry.queue_span = trace::kNoSpan;
    if (on_dequeue_) on_dequeue_(now - entry.enqueued);
    exec_spans_.push_back(trace::begin_span(
        tracer_, trace::Layer::kServe, "serve.exec", entry.span));
  }

  executing_ = true;
  ++batches_;
  requests_executed_ += n;

  const util::TimeNs work = klass.batch_setup + n * klass.compute_cost;
  const util::TimeNs started = now;
  auto done = [this, cls, started, batch_span] {
    finish_batch(cls, sim_.now() - started, batch_span);
  };
  if (!klass.accel_kernel.empty() && pool_ &&
      pool_->kernels().has(klass.accel_kernel)) {
    pool_->offload(klass.accel_kernel, work, node_, std::move(done));
  } else {
    const auto stretched =
        static_cast<util::TimeNs>(static_cast<double>(work) * slowdown_);
    sim_.after(stretched, std::move(done));
  }
}

void ReplicaServer::finish_batch(int cls, util::TimeNs exec,
                                 trace::SpanId batch_span) {
  executing_ = false;
  for (trace::SpanId span : exec_spans_) trace::end_span(tracer_, span);
  trace::end_span(tracer_, batch_span);
  // The callback may start this replica's next batch (a hedge loser
  // cancelled out of this queue re-plans it), which refills batch_ and
  // exec_spans_; batch_copies_ is only ever filled here.
  batch_copies_.clear();
  for (const QueuedRequest& entry : batch_) {
    batch_copies_.push_back({entry.id, entry.copy});
  }
  on_batch_done_(key_, batch_copies_, cls, exec);
  maybe_start();
}

}  // namespace evolve::serve
