// Replica selection: pluggable load-balancing policies.
//
// The Router is a pure policy engine over a snapshot of replica state
// (stable key, outstanding-request depth, availability). The Service
// builds the snapshot — outstanding counts every request assigned to a
// replica and not yet retired (in the network, queued, or executing) —
// and the router returns an index. Quarantined/drained replicas arrive
// with `available = false`; the router never picks them.
//
// Policies:
//   round-robin        rotates over available replicas, ignoring depth.
//   least-outstanding  global minimum depth; ties break to lowest key.
//   power-of-two       samples two distinct available replicas with the
//                      router's seeded RNG and keeps the shallower one —
//                      the classic two-choices result: near-least-loaded
//                      quality at O(1) sampled state, and the sampling
//                      noise itself avoids thundering herds on one
//                      momentarily-empty replica.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace evolve::serve {

enum class BalancePolicy { kRoundRobin, kLeastOutstanding, kPowerOfTwo };

const char* to_string(BalancePolicy policy);

/// Snapshot of one replica for a routing decision.
struct ReplicaView {
  std::int64_t key = 0;  // stable identity (pod id); ties break on it
  int outstanding = 0;   // assigned and not yet retired
  bool available = true; // false = drained/quarantined, never picked
};

class Router {
 public:
  explicit Router(BalancePolicy policy, std::uint64_t seed = 0x70e2);

  /// Picks a replica index in `replicas`, or -1 when none is available.
  /// `exclude` (an index, or -1) removes one replica from consideration —
  /// hedged requests must land on a different replica than the primary.
  int pick(const std::vector<ReplicaView>& replicas, int exclude = -1);

  BalancePolicy policy() const { return policy_; }

 private:
  int least_outstanding(const std::vector<ReplicaView>& replicas,
                        int exclude) const;

  BalancePolicy policy_;
  util::Rng rng_;
  std::size_t rr_next_ = 0;
  std::vector<int> candidates_;  // power-of-two scratch, refilled per pick
};

}  // namespace evolve::serve
