#include "serve/signal.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace evolve::serve {

ScalingSignal::ScalingSignal(sim::Simulation& sim, ScalingSignalConfig config)
    : sim_(sim), config_(config) {
  if (config_.window <= 0) throw std::invalid_argument("window must be > 0");
  if (config_.delay_target <= 0) {
    throw std::invalid_argument("delay_target must be > 0");
  }
  if (config_.capacity_per_replica <= 0 ||
      config_.target_inflight_per_replica <= 0) {
    throw std::invalid_argument("capacities must be > 0");
  }
}

void ScalingSignal::evict(util::TimeNs now) {
  const util::TimeNs cutoff = now - config_.window;
  while (!arrivals_.empty() && arrivals_.front() < cutoff) {
    arrivals_.pop_front();
  }
  while (!delays_.empty() && delays_.front().first < cutoff) {
    delays_.pop_front();
  }
}

void ScalingSignal::on_arrival() {
  const util::TimeNs now = sim_.now();
  arrivals_.push_back(now);
  evict(now);
}

void ScalingSignal::on_queue_delay(util::TimeNs delay) {
  const util::TimeNs now = sim_.now();
  delays_.emplace_back(now, delay);
  evict(now);
}

double ScalingSignal::arrival_rate() {
  const util::TimeNs now = sim_.now();
  evict(now);
  // Before a full window has elapsed, divide by elapsed time so a burst
  // at t=0 is not diluted by a window that never existed.
  const double span_s =
      util::to_seconds(std::min<util::TimeNs>(config_.window, std::max<util::TimeNs>(now, 1)));
  return static_cast<double>(arrivals_.size()) / span_s;
}

util::TimeNs ScalingSignal::queue_delay_p99() {
  evict(sim_.now());
  if (delays_.empty()) return 0;
  std::vector<util::TimeNs> sorted;
  sorted.reserve(delays_.size());
  for (const auto& [t, d] : delays_) sorted.push_back(d);
  const auto rank = static_cast<std::size_t>(
      (static_cast<double>(sorted.size()) * 99.0) / 100.0);
  const std::size_t idx = std::min(rank, sorted.size() - 1);
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(idx),
                   sorted.end());
  return sorted[idx];
}

double ScalingSignal::pressure() {
  const double ratio =
      static_cast<double>(queue_delay_p99()) /
      static_cast<double>(config_.delay_target);
  return std::clamp(ratio, 1.0, kMaxPressure);
}

double ScalingSignal::load() {
  const double demand = arrival_rate() * pressure();
  const double backlog = config_.capacity_per_replica *
                         static_cast<double>(inflight_) /
                         config_.target_inflight_per_replica;
  return std::max(demand, backlog);
}

}  // namespace evolve::serve
