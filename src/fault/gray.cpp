#include "fault/gray.hpp"

#include <algorithm>
#include <stdexcept>

namespace evolve::fault {

namespace {

struct KindInfo {
  const char* counter;
  const char* gauge;
  trace::Layer layer;
  const char* name;
  const char* annotation;  // cpu_factor or loss, read from the Level
};

constexpr KindInfo kKinds[] = {
    {"slow_node_degradations", "slowed_nodes", trace::Layer::kDataflow,
     "slow_node", "cpu_factor"},
    {"nic_degradations", "nic_degraded_nodes", trace::Layer::kNetwork, "nic",
     "loss"},
};

}  // namespace

void GrayInjector::schedule_slow_node(cluster::NodeId node, double cpu_factor,
                                      double accel_factor, util::TimeNs at,
                                      util::TimeNs duration) {
  if (cpu_factor < 1.0 || accel_factor < 1.0) {
    throw std::invalid_argument("slowdown factors must be >= 1");
  }
  if (duration <= 0) throw std::invalid_argument("slowdown needs duration > 0");
  const util::TimeNs end = at + duration;
  sim_.at(at, [this, node, cpu_factor, accel_factor, end] {
    apply(kSlow, node, Level{cpu_factor, accel_factor, {}}, end);
  });
  sim_.at(end, [this, node, end] { clear(kSlow, node, end); });
}

void GrayInjector::schedule_nic_degradation(cluster::NodeId node,
                                            NicDegradation nic, util::TimeNs at,
                                            util::TimeNs duration) {
  if (!(nic.bandwidth_factor > 0.0) || nic.bandwidth_factor > 1.0) {
    throw std::invalid_argument("bandwidth factor must be in (0, 1]");
  }
  if (nic.loss < 0.0 || nic.loss >= 1.0) {
    throw std::invalid_argument("loss must be in [0, 1)");
  }
  if (nic.extra_latency < 0) {
    throw std::invalid_argument("extra latency must be >= 0");
  }
  if (duration <= 0) throw std::invalid_argument("nic needs duration > 0");
  const util::TimeNs end = at + duration;
  sim_.at(at, [this, node, nic, end] {
    apply(kNic, node, Level{1.0, 1.0, nic}, end);
  });
  sim_.at(end, [this, node, end] { clear(kNic, node, end); });
}

void GrayInjector::apply(Kind kind, cluster::NodeId node, const Level& level,
                         util::TimeNs until) {
  const KindInfo& info = kKinds[kind];
  ActiveMap& map = active_[kind];
  Active& a = map[node];
  if (a.until == 0) {
    a.since = sim_.now();
    metrics_.count(info.counter);
    if (tracer_) {
      a.span = tracer_->begin(info.layer, "fault.degrade", trace::kNoSpan);
      tracer_->annotate(a.span, "kind", info.name);
      tracer_->annotate(a.span, "node", std::to_string(node));
      tracer_->annotate(
          a.span, info.annotation,
          std::to_string(kind == kSlow ? level.cpu : level.nic.loss));
    }
  }
  // Overlapping degradations: the strongest wins, the longest holds.
  a.level.cpu = std::max(a.level.cpu, level.cpu);
  a.level.accel = std::max(a.level.accel, level.accel);
  a.level.nic.bandwidth_factor =
      std::min(a.level.nic.bandwidth_factor, level.nic.bandwidth_factor);
  a.level.nic.loss = std::max(a.level.nic.loss, level.nic.loss);
  a.level.nic.extra_latency =
      std::max(a.level.nic.extra_latency, level.nic.extra_latency);
  a.until = std::max(a.until, until);
  metrics_.set_gauge(info.gauge, static_cast<double>(map.size()));
  notify(kind, node, a.level);
}

void GrayInjector::clear(Kind kind, cluster::NodeId node, util::TimeNs end) {
  ActiveMap& map = active_[kind];
  const auto it = map.find(node);
  if (it == map.end() || it->second.until > end) return;
  if (tracer_) tracer_->end(it->second.span);
  map.erase(it);
  metrics_.set_gauge(kKinds[kind].gauge, static_cast<double>(map.size()));
  notify(kind, node, Level{});
}

void GrayInjector::notify(Kind kind, cluster::NodeId node, const Level& level) {
  if (kind == kSlow) {
    tables_.set_slowdown(node, level.cpu, level.accel);
    return;
  }
  for (const NicFn& fn : nic_subs_) fn(node, level.nic);
}

void GrayInjector::schedule_bitrot(util::TimeNs at, std::uint64_t seed,
                                   int replicas) {
  if (replicas <= 0) throw std::invalid_argument("bitrot needs replicas > 0");
  sim_.at(at, [this, seed, replicas] {
    metrics_.count("bitrot_events");
    metrics_.count("bitrot_replicas", replicas);
    if (tracer_) {
      const trace::SpanId span = tracer_->begin(
          trace::Layer::kStorage, "fault.degrade", trace::kNoSpan);
      tracer_->annotate(span, "kind", "bitrot");
      tracer_->annotate(span, "replicas", std::to_string(replicas));
      tracer_->end(span);
    }
    for (const BitrotFn& fn : bitrot_subs_) fn(seed, replicas);
  });
}

util::TimeNs GrayInjector::degraded_since(cluster::NodeId node) const {
  util::TimeNs since = -1;
  for (const ActiveMap& map : active_) {
    const auto it = map.find(node);
    if (it == map.end()) continue;
    since = since < 0 ? it->second.since : std::min(since, it->second.since);
  }
  return since;
}

}  // namespace evolve::fault
