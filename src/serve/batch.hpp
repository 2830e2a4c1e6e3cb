// Dynamic batch formation: max batch size + max linger time.
//
// The BatchFormer is pure decision logic over a replica's FIFO queue: it
// never touches the simulation clock or schedules events, so it is
// exhaustively unit-testable and trivially deterministic. The replica
// server owns the linger timer and re-plans on every enqueue, batch
// completion, and timer expiry.
//
// Coalescing rule: a batch is formed from the queue head's class. The
// former scans the whole queue in FIFO order collecting requests of that
// class (other classes keep their positions), and declares the batch
// ready when either `max_batch` compatible requests are waiting or the
// head request has lingered `max_linger`. A lone request therefore never
// waits more than the linger bound for company that isn't coming.
#pragma once

#include <cstddef>
#include <vector>

#include "serve/request.hpp"
#include "trace/tracer.hpp"
#include "util/ring_queue.hpp"
#include "util/types.hpp"

namespace evolve::serve {

struct BatchConfig {
  int max_batch = 8;                           // 1 disables coalescing
  util::TimeNs max_linger = util::micros(500);  // head-of-line wait bound
};

/// One queued request copy (the replica's FIFO element).
struct QueuedRequest {
  RequestId id = 0;
  int cls = 0;
  util::TimeNs enqueued = 0;
  trace::SpanId span = trace::kNoSpan;        // the copy's parent span
  trace::SpanId queue_span = trace::kNoSpan;  // serve.queue, open while queued
};

/// A replica's FIFO of queued copies.
using RequestQueue = util::RingQueue<QueuedRequest>;

/// The former's verdict for the current queue state.
struct BatchPlan {
  bool ready = false;
  /// When !ready and the queue is non-empty: absolute time at which the
  /// head batch must be released even if still short (-1 = nothing to do).
  util::TimeNs release_at = -1;
  /// Queue indices (ascending) of the head-class requests to take.
  std::vector<std::size_t> take;
};

class BatchFormer {
 public:
  explicit BatchFormer(BatchConfig config);

  /// Plans the head batch of `queue` into `out`, reusing its storage so
  /// a replica re-planning on every enqueue allocates nothing.
  void plan(const RequestQueue& queue, util::TimeNs now,
            BatchPlan& out) const;

  const BatchConfig& config() const { return config_; }

 private:
  BatchConfig config_;
};

}  // namespace evolve::serve
