// Open-loop request generation from seeded Poisson phases.
//
// Open-loop matters for tail-latency measurement: arrivals never wait
// for responses, so an overloaded service sees its queues actually
// build instead of the workload politely backing off (the coordinated-
// omission trap). Exponential interarrivals are drawn from a
// piecewise-constant rate curve (memorylessness makes restarting the
// draw at each phase boundary exact, not an approximation). The stream
// is fully determined by the seed, so every serving benchmark is
// bit-reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "serve/request.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace evolve::serve {

/// One piece of the piecewise-constant rate curve: `rate_per_s` holds
/// until absolute time `until`. The last phase's rate extends to the
/// horizon.
struct ArrivalPhase {
  util::TimeNs until = 0;
  double rate_per_s = 0;
};

/// How request keys are drawn. kNone leaves every Request::key at 0 and
/// draws no random numbers, so stateless workloads keep their RNG stream
/// (and therefore every existing baseline) bit-identical.
enum class KeyDistribution {
  kNone,     // stateless: key stays 0, no draw
  kUniform,  // uniform over [0, keys)
  kZipf,     // Zipf(keys, zipf_s): key 0 hottest
};

struct GeneratorConfig {
  std::vector<ArrivalPhase> phases;  // ascending `until`; never empty
  /// Per-class mix weights (indexes the service's class table). Empty =
  /// single class 0.
  std::vector<double> class_weights;
  /// Client nodes issuing requests (uniform seeded pick per request).
  std::vector<cluster::NodeId> clients;
  std::uint64_t seed = 0x5eedf00d;
  util::TimeNs horizon = util::seconds(10);  // no arrivals at/after this
  /// Key sampling for stateful backends (off by default).
  KeyDistribution key_dist = KeyDistribution::kNone;
  std::uint64_t keys = 1;  // key-space size when key_dist != kNone
  double zipf_s = 1.1;     // skew for kZipf
};

class RequestGenerator {
 public:
  using Sink = std::function<void(Request)>;

  RequestGenerator(sim::Simulation& sim, GeneratorConfig config, Sink sink);

  RequestGenerator(const RequestGenerator&) = delete;
  RequestGenerator& operator=(const RequestGenerator&) = delete;

  /// Arms the arrival process (idempotent).
  void start();
  /// Stops emitting (pending arrival events are cancelled).
  void stop();

  std::int64_t emitted() const { return emitted_; }

 private:
  double rate_at(util::TimeNs t) const;
  util::TimeNs phase_end(util::TimeNs t) const;
  void schedule_next(util::TimeNs from);
  void emit(util::TimeNs at);

  sim::Simulation& sim_;
  GeneratorConfig config_;
  Sink sink_;
  util::Rng rng_;
  bool running_ = false;
  sim::EventId pending_ = 0;
  bool has_pending_ = false;
  RequestId next_id_ = 1;
  std::int64_t emitted_ = 0;
};

}  // namespace evolve::serve
