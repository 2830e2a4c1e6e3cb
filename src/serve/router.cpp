#include "serve/router.hpp"

namespace evolve::serve {

const char* to_string(BalancePolicy policy) {
  switch (policy) {
    case BalancePolicy::kRoundRobin:
      return "round-robin";
    case BalancePolicy::kLeastOutstanding:
      return "least-outstanding";
    case BalancePolicy::kPowerOfTwo:
      return "p2c";
  }
  return "unknown";
}

Router::Router(BalancePolicy policy, std::uint64_t seed)
    : policy_(policy), rng_(seed) {}

int Router::least_outstanding(const std::vector<ReplicaView>& replicas,
                              int exclude) const {
  int best = -1;
  for (int i = 0; i < static_cast<int>(replicas.size()); ++i) {
    if (i == exclude || !replicas[i].available) continue;
    if (best < 0 || replicas[i].outstanding < replicas[best].outstanding ||
        (replicas[i].outstanding == replicas[best].outstanding &&
         replicas[i].key < replicas[best].key)) {
      best = i;
    }
  }
  return best;
}

int Router::pick(const std::vector<ReplicaView>& replicas, int exclude) {
  switch (policy_) {
    case BalancePolicy::kRoundRobin: {
      const std::size_t n = replicas.size();
      for (std::size_t step = 0; step < n; ++step) {
        const std::size_t i = (rr_next_ + step) % n;
        if (static_cast<int>(i) == exclude || !replicas[i].available) {
          continue;
        }
        rr_next_ = (i + 1) % n;
        return static_cast<int>(i);
      }
      return -1;
    }
    case BalancePolicy::kLeastOutstanding:
      return least_outstanding(replicas, exclude);
    case BalancePolicy::kPowerOfTwo: {
      std::vector<int>& candidates = candidates_;
      candidates.clear();
      for (int i = 0; i < static_cast<int>(replicas.size()); ++i) {
        if (i != exclude && replicas[i].available) candidates.push_back(i);
      }
      if (candidates.empty()) return -1;
      if (candidates.size() <= 2) {
        return least_outstanding(replicas, exclude);
      }
      const auto n = static_cast<std::int64_t>(candidates.size());
      const int a = candidates[static_cast<std::size_t>(
          rng_.uniform_int(0, n - 1))];
      // Second sample over the remaining n-1, shifted past the first so
      // the two choices are always distinct.
      std::int64_t b_pos = rng_.uniform_int(0, n - 2);
      int b = candidates[static_cast<std::size_t>(b_pos)];
      if (b == a) b = candidates[static_cast<std::size_t>(n - 1)];
      if (replicas[b].outstanding < replicas[a].outstanding ||
          (replicas[b].outstanding == replicas[a].outstanding &&
           replicas[b].key < replicas[a].key)) {
        return b;
      }
      return a;
    }
  }
  return -1;
}

}  // namespace evolve::serve
