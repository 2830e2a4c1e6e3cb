// Latency-aware autoscaling signal.
//
// The original HorizontalAutoscaler scales against an oracle
// std::function<double()> load curve. The ScalingSignal replaces the
// oracle with observations from the serving path: a sliding window of
// arrivals (demand), a sliding window of queue-delay samples (tail
// pressure), and the instantaneous in-flight depth (backlog). load()
// returns a value in the autoscaler's native unit (req/s against
// `capacity_per_replica`):
//
//   load = max( arrival_rate * pressure,
//               capacity_per_replica * inflight / target_inflight_per_replica )
//
// where pressure = clamp(p99_queue_delay / delay_target, 1, kMaxPressure).
// The first term scales on demand, inflated when the observed p99 queue
// delay overshoots its target (latency-aware scale-up before queues
// collapse); the second is a backlog floor that forces scale-up even
// when arrivals stall because everything is stuck in queues.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "util/ring_queue.hpp"
#include "util/types.hpp"

namespace evolve::serve {

/// Pressure clamp.
inline constexpr double kMaxPressure = 3.0;

struct ScalingSignalConfig {
  util::TimeNs window = util::seconds(10);       // sliding-window width
  util::TimeNs delay_target = util::millis(20);  // p99 queue-delay target
  double capacity_per_replica = 100.0;  // same unit as AutoscalerConfig
  double target_inflight_per_replica = 16.0;
};

class ScalingSignal {
 public:
  explicit ScalingSignal(sim::Simulation& sim, ScalingSignalConfig config = {});
  ScalingSignal(const ScalingSignal&) = delete;
  ScalingSignal& operator=(const ScalingSignal&) = delete;

  // -- fed by the Service ---------------------------------------------
  void on_arrival();
  void on_queue_delay(util::TimeNs delay);
  void set_inflight(int depth) { inflight_ = depth; }

  // -- consumed by the autoscaler -------------------------------------
  /// Windowed arrival rate in req/s.
  double arrival_rate();
  /// p99 of the windowed queue-delay samples (0 while empty).
  util::TimeNs queue_delay_p99();
  /// clamp(p99 / delay_target, 1, kMaxPressure).
  double pressure();
  /// The synthetic load value to hand the HorizontalAutoscaler.
  double load();

  int inflight() const { return inflight_; }

 private:
  void evict(util::TimeNs now);

  sim::Simulation& sim_;
  ScalingSignalConfig config_;
  util::RingQueue<util::TimeNs> arrivals_;
  // (time, delay) samples.
  util::RingQueue<std::pair<util::TimeNs, util::TimeNs>> delays_;
  std::vector<util::TimeNs> delay_scratch_;  // queue_delay_p99's selection
  int inflight_ = 0;
};

}  // namespace evolve::serve
