// Gray-failure detection: per-node health scoring and quarantine.
//
// The HealthScorer consumes per-node task service times (fed by the
// dataflow engine through fault/wiring.hpp) and keeps an EWMA per node.
// A node's health score is its EWMA divided by the median EWMA of its
// peers; a score above `flag_ratio` flags the node as gray-degraded,
// and hysteresis (`clear_ratio`) prevents flap. Flag/clear transitions
// fire subscriber callbacks.
//
// The QuarantineController turns flags into scheduler quarantine: a
// flagged node stops receiving new pods/tasks (it drains — running work
// finishes), then after a probe delay the controller lifts the
// quarantine and resets the node's score so fresh probe samples decide
// whether it re-flags (re-quarantine with exponentially backed-off probe
// delay) or stays in service. Each transition writes `quarantined` into
// every attached cluster::NodeConditions table. This is the probe-back-in
// state machine:
//
//   healthy --score > flag_ratio--> quarantined (draining)
//   quarantined --kProbeDelay elapsed--> probing (back in service, score reset)
//   probing --re-flagged--> quarantined (probe delay doubled, saturating)
//   probing | quarantined --score < clear_ratio--> healthy
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/conditions.hpp"
#include "metrics/registry.hpp"
#include "sim/simulation.hpp"
#include "trace/tracer.hpp"
#include "util/types.hpp"

namespace evolve::fault {

class GrayInjector;

struct HealthScorerConfig {
  double ewma_alpha = 0.2;   // weight of the newest sample
  double flag_ratio = 2.0;   // flag when ewma > flag_ratio * peer median
  double clear_ratio = 1.3;  // clear when ewma < clear_ratio * peer median
  int min_samples = 5;       // samples before a node can be flagged
};

/// Scored peers needed to form a median.
inline constexpr int kMinPeers = 2;

class HealthScorer {
 public:
  using TransitionFn = std::function<void(cluster::NodeId, util::TimeNs)>;

  explicit HealthScorer(sim::Simulation& sim, HealthScorerConfig config = {})
      : sim_(sim), config_(config) {}
  HealthScorer(const HealthScorer&) = delete;
  HealthScorer& operator=(const HealthScorer&) = delete;

  void on_flag(TransitionFn fn) { flag_subs_.push_back(std::move(fn)); }
  void on_clear(TransitionFn fn) { clear_subs_.push_back(std::move(fn)); }

  /// Records one task service time observed on `node` and re-evaluates
  /// its flag state.
  void record(cluster::NodeId node, util::TimeNs service_time);

  /// node EWMA / peer-median EWMA; 0 while unknown (too few samples or
  /// peers).
  double score(cluster::NodeId node) const;
  bool flagged(cluster::NodeId node) const;
  int samples(cluster::NodeId node) const;

  /// Forgets a node's history and silently clears its flag (no
  /// subscriber callbacks) — the probe path: fresh samples re-decide.
  void reset_node(cluster::NodeId node);

  /// Crash and lease-expiry producers write here. A node that is down
  /// or unreachable drops out of every peer median until both clear:
  /// without this a dead node's frozen history skews the median and
  /// healthy peers can be flagged against a baseline that no longer
  /// exists.
  cluster::NodeConditions& conditions() { return conditions_; }
  bool is_node_down(cluster::NodeId node) const {
    const cluster::NodeCondition& c = conditions_[node];
    return c.down || c.unreachable;
  }

  std::int64_t flags_raised() const {
    return metrics_.counter("nodes_flagged");
  }
  std::int64_t flags_cleared() const {
    return metrics_.counter("nodes_cleared");
  }

  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

 private:
  struct NodeState {
    double ewma = 0.0;
    int samples = 0;
    bool flagged = false;
  };

  /// Median EWMA over scored peers (min_samples reached), excluding
  /// `node`. Returns 0 when fewer than kMinPeers qualify.
  double peer_median(cluster::NodeId node) const;

  sim::Simulation& sim_;
  HealthScorerConfig config_;
  std::vector<TransitionFn> flag_subs_;
  std::vector<TransitionFn> clear_subs_;
  std::map<cluster::NodeId, NodeState> nodes_;
  cluster::NodeConditions conditions_;
  mutable std::vector<double> peer_scratch_;  // reused by peer_median
  metrics::Registry metrics_;
};

/// First probe-back-in delay of a quarantined node.
inline constexpr util::TimeNs kProbeDelay = util::millis(500);
/// Probe delay doubles per consecutive re-quarantine of one node
/// (saturating), capped here.
inline constexpr util::TimeNs kProbeDelayCap = util::seconds(30);

class QuarantineController {
 public:
  QuarantineController(sim::Simulation& sim, HealthScorer& scorer);
  QuarantineController(const QuarantineController&) = delete;
  QuarantineController& operator=(const QuarantineController&) = delete;

  /// Attaches a consumer's table: quarantine (true = drained out) and
  /// release (false = probed back in) write the node's `quarantined`.
  void attach(cluster::NodeConditions& table) { tables_.attach(table); }

  bool is_quarantined(cluster::NodeId node) const {
    return quarantined_.count(node) != 0;
  }
  std::int64_t quarantines() const { return metrics_.counter("quarantines"); }
  std::int64_t probes() const { return metrics_.counter("probes"); }

  /// Marks when a node's degradation began; the next quarantine of that
  /// node records now - start as time-to-quarantine.
  void note_degradation_start(cluster::NodeId node, util::TimeNs at);
  /// Watches `gray`'s slowdowns through this controller's own table:
  /// every write that leaves a node slowed notes its degradation start.
  void track_degradation(GrayInjector& gray);

  /// Milliseconds from degradation start to first quarantine, averaged
  /// over quarantines with a known start (-1 when none recorded).
  double mean_time_to_quarantine_ms() const;

  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

 private:
  struct State {
    int consecutive = 0;  // re-quarantines since last clean clear
    sim::EventId probe_event = 0;
    bool probe_pending = false;
    trace::SpanId span = trace::kNoSpan;
  };

  void quarantine(cluster::NodeId node);
  void release(cluster::NodeId node, bool via_probe);
  void on_condition(cluster::NodeId node, const cluster::NodeCondition& after);

  sim::Simulation& sim_;
  HealthScorer& scorer_;
  cluster::ConditionTables tables_;
  cluster::NodeConditions conditions_;  // slowdowns, from gray_
  const GrayInjector* gray_ = nullptr;
  std::map<cluster::NodeId, State> quarantined_;
  std::map<cluster::NodeId, int> requarantine_streak_;
  std::map<cluster::NodeId, util::TimeNs> degraded_since_;
  /// Exact sum behind mean_time_to_quarantine_ms(); the
  /// time_to_quarantine_ms histogram keeps whole milliseconds only.
  double ttq_total_ms_ = 0;
  trace::Tracer* tracer_ = nullptr;
  metrics::Registry metrics_;
};

}  // namespace evolve::fault
