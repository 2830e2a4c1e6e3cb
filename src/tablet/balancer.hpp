// The tablet balancer: the control loop that turns per-shard load
// observations into split / merge / move decisions.
//
// Each tick it closes the service's observation window and acts on it:
// shards carrying sustained load split at the access median (unless one
// hot key dominates — splitting cannot spread a single key, so the
// shard moves whole instead); cold range-adjacent shards on the same
// node merge back; and when the busiest node carries materially more
// load than the idlest, the hottest movable shard migrates over. Moves
// cost real unavailability (flush + handoff + re-open), so the loop is
// deliberately conservative: bounded actions per tick, a minimum load
// floor before anything moves, and drained/non-serving nodes are never
// targeted.
#pragma once

#include <cstdint>

#include "sim/simulation.hpp"
#include "tablet/service.hpp"
#include "util/types.hpp"

namespace evolve::tablet {

struct BalancerConfig {
  util::TimeNs interval = util::millis(500);
  /// Ops in one interval above which a shard is split-hot.
  std::int64_t split_ops = 2000;
  /// Ops in one interval below which a shard is merge-cold.
  std::int64_t merge_ops = 50;
  int max_shards = 64;
  /// Busiest node must carry this multiple of the idlest node's load
  /// before a move fires.
  double imbalance_ratio = 1.5;
  /// ... and at least this many ops more (absolute floor, so an idle
  /// cluster never shuffles tablets).
  std::int64_t min_move_ops = 200;
};

class TabletBalancer {
 public:
  TabletBalancer(sim::Simulation& sim, TabletService& service,
                 BalancerConfig config = {});
  TabletBalancer(const TabletBalancer&) = delete;
  TabletBalancer& operator=(const TabletBalancer&) = delete;

  void start();
  void stop();

  /// One balancing pass over the current observation window (also
  /// callable directly from tests, without start()).
  void tick();

  std::int64_t splits_triggered() const { return splits_; }
  std::int64_t merges_triggered() const { return merges_; }
  std::int64_t moves_triggered() const { return moves_; }

 private:
  void maybe_split();
  void maybe_merge();
  void maybe_move();

  sim::Simulation& sim_;
  TabletService& service_;
  BalancerConfig config_;
  bool running_ = false;
  sim::EventId timer_ = 0;
  std::int64_t splits_ = 0;
  std::int64_t merges_ = 0;
  std::int64_t moves_ = 0;
};

}  // namespace evolve::tablet
