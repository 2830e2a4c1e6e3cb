#include "tablet/balancer.hpp"

#include <algorithm>
#include <vector>

namespace evolve::tablet {
namespace {

// Actions per tick.
constexpr int kMaxSplitsPerTick = 2;
constexpr int kMaxMergesPerTick = 2;
constexpr int kMaxMovesPerTick = 1;

}  // namespace

TabletBalancer::TabletBalancer(sim::Simulation& sim, TabletService& service,
                               BalancerConfig config)
    : sim_(sim), service_(service), config_(config) {}

void TabletBalancer::start() {
  if (running_) return;
  running_ = true;
  service_.begin_interval();
  timer_ = sim_.after(config_.interval, [this] {
    if (!running_) return;
    tick();
    running_ = false;  // re-arm through start()
    start();
  });
}

void TabletBalancer::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(timer_);
}

void TabletBalancer::tick() {
  maybe_split();
  maybe_merge();
  maybe_move();
  service_.begin_interval();
}

void TabletBalancer::maybe_split() {
  int budget = kMaxSplitsPerTick;
  // Hottest shards first, so the budget goes where it matters.
  std::vector<ShardInfo> shards = service_.shard_map().shards();
  std::sort(shards.begin(), shards.end(),
            [this](const ShardInfo& a, const ShardInfo& b) {
              return service_.shard_ops(a.id) > service_.shard_ops(b.id);
            });
  for (const ShardInfo& s : shards) {
    if (budget <= 0) return;
    if (service_.shard_map().shard_count() >= config_.max_shards) return;
    if (service_.shard_ops(s.id) < config_.split_ops) return;  // sorted
    if (s.end - s.start < 2) continue;        // nothing left to split
    if (service_.hot_key_dominated(s.id)) continue;  // move it instead
    if (service_.shard_moving(s.id)) continue;
    if (service_.split_shard(s.id, service_.split_point(s.id))) {
      ++splits_;
      --budget;
    }
  }
}

void TabletBalancer::maybe_merge() {
  int budget = kMaxMergesPerTick;
  const std::vector<ShardInfo> shards = service_.shard_map().shards();
  for (std::size_t i = 0; i + 1 < shards.size(); ++i) {
    if (budget <= 0) return;
    const ShardInfo& l = shards[i];
    const ShardInfo& r = shards[i + 1];
    if (l.node != r.node) continue;
    if (service_.shard_ops(l.id) >= config_.merge_ops ||
        service_.shard_ops(r.id) >= config_.merge_ops) {
      continue;
    }
    if (service_.shard_moving(l.id) || service_.shard_moving(r.id)) continue;
    if (service_.merge_shards(l.id, r.id)) {
      ++merges_;
      --budget;
      ++i;  // r is gone; don't pair it again
    }
  }
}

void TabletBalancer::maybe_move() {
  int budget = kMaxMovesPerTick;
  while (budget > 0) {
    cluster::NodeId busiest = cluster::kInvalidNode;
    cluster::NodeId idlest = cluster::kInvalidNode;
    std::int64_t busiest_ops = -1;
    std::int64_t idlest_ops = 0;
    for (cluster::NodeId n : service_.nodes()) {
      if (!service_.node_serving(n)) continue;
      const std::int64_t ops = service_.node_ops(n);
      if (ops > busiest_ops) {
        busiest = n;
        busiest_ops = ops;
      }
      if (idlest == cluster::kInvalidNode || ops < idlest_ops) {
        idlest = n;
        idlest_ops = ops;
      }
    }
    if (busiest == cluster::kInvalidNode || idlest == cluster::kInvalidNode ||
        busiest == idlest) {
      return;
    }
    if (busiest_ops - idlest_ops < config_.min_move_ops) return;
    if (static_cast<double>(busiest_ops) <
        config_.imbalance_ratio * static_cast<double>(idlest_ops)) {
      return;
    }
    // Move the hottest movable shard; moving the coldest would need many
    // ticks to matter, and the move cost is per-shard, not per-op.
    ShardId victim = kInvalidShard;
    std::int64_t victim_ops = 0;
    for (ShardId s : service_.shard_map().shards_on(busiest)) {
      if (service_.shard_moving(s)) continue;
      const std::int64_t ops = service_.shard_ops(s);
      if (victim == kInvalidShard || ops > victim_ops) {
        victim = s;
        victim_ops = ops;
      }
    }
    if (victim == kInvalidShard) return;
    if (!service_.move_shard(victim, idlest)) return;
    ++moves_;
    --budget;
  }
}

}  // namespace evolve::tablet
