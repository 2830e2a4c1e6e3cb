#include "serve/generator.hpp"

#include <algorithm>
#include <stdexcept>

namespace evolve::serve {

RequestGenerator::RequestGenerator(sim::Simulation& sim,
                                   GeneratorConfig config, Sink sink)
    : sim_(sim),
      config_(std::move(config)),
      sink_(std::move(sink)),
      rng_(config_.seed) {
  if (!sink_) throw std::invalid_argument("generator needs a sink");
  if (config_.phases.empty()) {
    throw std::invalid_argument("generator needs at least one phase");
  }
  for (std::size_t i = 0; i < config_.phases.size(); ++i) {
    if (config_.phases[i].rate_per_s < 0) {
      throw std::invalid_argument("phase rates must be >= 0");
    }
    if (i > 0 && config_.phases[i].until <= config_.phases[i - 1].until) {
      throw std::invalid_argument("phase boundaries must ascend");
    }
  }
  if (config_.clients.empty()) {
    throw std::invalid_argument("generator needs client nodes");
  }
  if (config_.horizon <= 0) {
    throw std::invalid_argument("horizon must be > 0");
  }
}

double RequestGenerator::rate_at(util::TimeNs t) const {
  for (const ArrivalPhase& phase : config_.phases) {
    if (t < phase.until) return phase.rate_per_s;
  }
  return config_.phases.back().rate_per_s;
}

util::TimeNs RequestGenerator::phase_end(util::TimeNs t) const {
  for (const ArrivalPhase& phase : config_.phases) {
    if (t < phase.until) return std::min(phase.until, config_.horizon);
  }
  return config_.horizon;
}

void RequestGenerator::start() {
  if (running_) return;
  running_ = true;
  schedule_next(sim_.now());
}

void RequestGenerator::stop() {
  running_ = false;
  if (has_pending_) {
    sim_.cancel(pending_);
    has_pending_ = false;
  }
}

void RequestGenerator::schedule_next(util::TimeNs from) {
  util::TimeNs t = from;
  while (t < config_.horizon) {
    const double rate = rate_at(t);
    const util::TimeNs bound = phase_end(t);
    if (rate <= 0) {
      t = bound;
      if (t >= config_.horizon) break;
      continue;
    }
    const auto dt = std::max<util::TimeNs>(
        1, static_cast<util::TimeNs>(rng_.exponential(rate) * 1e9));
    if (t + dt >= bound && bound < config_.horizon) {
      // Crossed into the next phase: memorylessness lets us restart the
      // exponential draw at the boundary with the new rate.
      t = bound;
      continue;
    }
    t += dt;
    if (t >= config_.horizon) break;
    pending_ = sim_.at(t, [this, t] {
      has_pending_ = false;
      if (!running_) return;
      emit(t);
      schedule_next(t);
    });
    has_pending_ = true;
    return;
  }
  running_ = false;
}

void RequestGenerator::emit(util::TimeNs at) {
  Request req;
  req.id = next_id_++;
  req.arrival = at;
  if (config_.class_weights.empty()) {
    req.cls = 0;
  } else {
    req.cls = static_cast<int>(rng_.weighted_index(config_.class_weights));
  }
  req.client = config_.clients[static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(config_.clients.size()) - 1))];
  switch (config_.key_dist) {
    case KeyDistribution::kNone:
      break;  // no draw: stateless callers keep their RNG stream intact
    case KeyDistribution::kUniform:
      req.key = static_cast<std::uint64_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(config_.keys) - 1));
      break;
    case KeyDistribution::kZipf:
      req.key = static_cast<std::uint64_t>(
          rng_.zipf(static_cast<std::int64_t>(config_.keys), config_.zipf_s));
      break;
  }
  ++emitted_;
  sink_(req);
}

}  // namespace evolve::serve
