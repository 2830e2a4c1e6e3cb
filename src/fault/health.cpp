#include "fault/health.hpp"

#include <algorithm>
#include <string>

#include "fault/gray.hpp"
#include "util/backoff.hpp"

namespace evolve::fault {

// ---------------------------------------------------------------------------
// HealthScorer
// ---------------------------------------------------------------------------

void HealthScorer::record(cluster::NodeId node, util::TimeNs service_time) {
  NodeState& state = nodes_[node];
  const auto sample = static_cast<double>(service_time);
  state.ewma = state.samples == 0
                   ? sample
                   : config_.ewma_alpha * sample +
                         (1.0 - config_.ewma_alpha) * state.ewma;
  ++state.samples;
  metrics_.observe("service_time_ms",
                   static_cast<std::int64_t>(service_time / util::kMillisecond));

  const double median = peer_median(node);
  if (median <= 0.0) return;
  const double ratio = state.ewma / median;
  if (!state.flagged && state.samples >= config_.min_samples &&
      ratio > config_.flag_ratio) {
    state.flagged = true;
    metrics_.count("nodes_flagged");
    for (const TransitionFn& fn : flag_subs_) fn(node, sim_.now());
  } else if (state.flagged && ratio < config_.clear_ratio) {
    state.flagged = false;
    metrics_.count("nodes_cleared");
    for (const TransitionFn& fn : clear_subs_) fn(node, sim_.now());
  }
}

double HealthScorer::peer_median(cluster::NodeId node) const {
  std::vector<double>& peers = peer_scratch_;
  peers.clear();
  for (const auto& [id, state] : nodes_) {
    if (id == node || state.samples < config_.min_samples) continue;
    if (is_node_down(id)) continue;  // dead peers skew the baseline
    peers.push_back(state.ewma);
  }
  if (static_cast<int>(peers.size()) < kMinPeers) return 0.0;
  // Median of the lower-middle element for even sizes: deterministic and
  // slightly conservative (a larger median flags fewer nodes).
  const std::size_t mid = (peers.size() - 1) / 2;
  std::nth_element(peers.begin(), peers.begin() + static_cast<std::ptrdiff_t>(mid),
                   peers.end());
  return peers[mid];
}

double HealthScorer::score(cluster::NodeId node) const {
  const auto it = nodes_.find(node);
  if (it == nodes_.end() || it->second.samples < config_.min_samples) {
    return 0.0;
  }
  const double median = peer_median(node);
  return median <= 0.0 ? 0.0 : it->second.ewma / median;
}

bool HealthScorer::flagged(cluster::NodeId node) const {
  const auto it = nodes_.find(node);
  return it != nodes_.end() && it->second.flagged;
}

int HealthScorer::samples(cluster::NodeId node) const {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? 0 : it->second.samples;
}

void HealthScorer::reset_node(cluster::NodeId node) { nodes_.erase(node); }

// ---------------------------------------------------------------------------
// QuarantineController
// ---------------------------------------------------------------------------

QuarantineController::QuarantineController(sim::Simulation& sim,
                                           HealthScorer& scorer)
    : sim_(sim),
      scorer_(scorer),
      conditions_([this](cluster::NodeId node, const cluster::NodeCondition&,
                         const cluster::NodeCondition& after) {
        on_condition(node, after);
      }) {
  scorer_.on_flag([this](cluster::NodeId node, util::TimeNs) {
    quarantine(node);
  });
  scorer_.on_clear([this](cluster::NodeId node, util::TimeNs) {
    // Draining work sped back up before the probe: release early and
    // forget the re-quarantine streak — the node proved itself healthy.
    if (is_quarantined(node)) {
      requarantine_streak_.erase(node);
      release(node, /*via_probe=*/false);
    }
  });
}

void QuarantineController::quarantine(cluster::NodeId node) {
  if (is_quarantined(node)) return;
  State& state = quarantined_[node];
  state.consecutive = ++requarantine_streak_[node];
  metrics_.count("quarantines");
  metrics_.set_gauge("quarantined_nodes",
                     static_cast<double>(quarantined_.size()));
  const auto degraded = degraded_since_.find(node);
  if (degraded != degraded_since_.end()) {
    const double ttq_ms = util::to_millis(sim_.now() - degraded->second);
    ttq_total_ms_ += ttq_ms;
    metrics_.observe("time_to_quarantine_ms",
                     static_cast<std::int64_t>(ttq_ms));
    degraded_since_.erase(degraded);  // charge each degradation once
  }
  if (tracer_) {
    state.span = tracer_->begin(trace::Layer::kScheduler, "fault.quarantine",
                                trace::kNoSpan);
    tracer_->annotate(state.span, "node", std::to_string(node));
    tracer_->annotate(state.span, "attempt",
                      std::to_string(state.consecutive));
  }
  tables_.set_quarantined(node, true);

  // Probe back in after an exponentially backed-off delay: the node
  // rejoins with a clean score, and fresh samples re-decide.
  const util::TimeNs delay = std::min(
      util::saturating_backoff(kProbeDelay, state.consecutive),
      kProbeDelayCap);
  state.probe_pending = true;
  state.probe_event = sim_.after(delay, [this, node] {
    const auto it = quarantined_.find(node);
    if (it == quarantined_.end()) return;
    it->second.probe_pending = false;
    metrics_.count("probes");
    scorer_.reset_node(node);
    release(node, /*via_probe=*/true);
  });
}

void QuarantineController::release(cluster::NodeId node, bool via_probe) {
  const auto it = quarantined_.find(node);
  if (it == quarantined_.end()) return;
  if (!via_probe && it->second.probe_pending) {
    sim_.cancel(it->second.probe_event);
  }
  if (tracer_) tracer_->end(it->second.span);
  quarantined_.erase(it);
  metrics_.set_gauge("quarantined_nodes",
                     static_cast<double>(quarantined_.size()));
  tables_.set_quarantined(node, false);
}

void QuarantineController::note_degradation_start(cluster::NodeId node,
                                                  util::TimeNs at) {
  degraded_since_.emplace(node, at);  // keep the earliest start
}

void QuarantineController::track_degradation(GrayInjector& gray) {
  gray_ = &gray;
  gray.attach(conditions_);
}

void QuarantineController::on_condition(cluster::NodeId node,
                                        const cluster::NodeCondition& after) {
  // Every slowdown write counts, an overlap that changes nothing too: a
  // start charged by a quarantine is noted again while the node stays
  // slow.
  if (after.cpu_slowdown > 1.0 || after.accel_slowdown > 1.0) {
    note_degradation_start(node, gray_->degraded_since(node));
  }
}

double QuarantineController::mean_time_to_quarantine_ms() const {
  const std::int64_t n = metrics_.histogram("time_to_quarantine_ms").count();
  return n == 0 ? -1.0 : ttq_total_ms_ / static_cast<double>(n);
}

}  // namespace evolve::fault
