// Request-serving model types: the cloud third of the converged stack
// finally gets a request path.
//
// A RequestClass describes one kind of traffic a service handles
// (per-tenant, with a size/compute cost and a latency SLO); a Request is
// one arrival of one class from one client node. The serving subsystem
// measures and defends tail latency per tenant: every terminal outcome
// is accounted against the class's tenant, and goodput means "completed
// within the SLO", not merely completed.
#pragma once

#include <cstdint>
#include <string>

#include "cluster/node.hpp"
#include "util/types.hpp"

namespace evolve::serve {

using RequestId = std::int64_t;

/// One copy of a request: the request and the copy's index (0 = the
/// primary, 1 = its hedge). The service names every copy it routes,
/// queues, parks or executes this way.
struct CopyRef {
  RequestId id = 0;
  int copy = 0;
};

/// One traffic class: what a request of this kind costs and what latency
/// it was promised. Compute cost splits into a per-request part and a
/// per-batch fixed setup (weight load, kernel launch) — the setup
/// amortization is exactly what dynamic batching buys.
struct RequestClass {
  std::string name;
  std::string tenant = "default";
  util::Bytes request_bytes = 16 * util::kKiB;
  util::Bytes response_bytes = 4 * util::kKiB;
  util::TimeNs compute_cost = util::millis(5);  // per-request CPU work
  util::TimeNs batch_setup = util::millis(4);   // per-batch fixed CPU work
  util::TimeNs slo = util::millis(100);         // end-to-end latency target
  /// Non-empty: batches offload through the accel pool under this kernel
  /// (device time = work / kernel speedup) instead of running on the
  /// replica's CPU share.
  std::string accel_kernel;
};

/// One arrival. `cls` indexes the owning service's class table. `key`
/// addresses stateful (tablet) backends; stateless services ignore it.
struct Request {
  RequestId id = 0;
  int cls = 0;
  cluster::NodeId client = cluster::kInvalidNode;
  util::TimeNs arrival = 0;
  std::uint64_t key = 0;
};

/// Terminal request outcomes (per-tenant accounting).
enum class Outcome {
  kCompleted,      // response delivered to the client
  kShedAdmission,  // rejected by the CoDel admission controller
  kShedQueueFull,  // bounced off a full replica queue
};

const char* to_string(Outcome outcome);

/// Per-tenant serving counters. Goodput counts only completions that met
/// the class SLO — the BigBench characterization's point that tail
/// latency, not mean, is what degrades under contention.
struct TenantStats {
  std::int64_t arrived = 0;
  std::int64_t admitted = 0;
  std::int64_t shed_admission = 0;
  std::int64_t shed_queue_full = 0;
  std::int64_t completed = 0;
  std::int64_t slo_violations = 0;

  std::int64_t shed() const { return shed_admission + shed_queue_full; }
  std::int64_t goodput() const { return completed - slo_violations; }
};

}  // namespace evolve::serve
