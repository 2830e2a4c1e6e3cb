// Token-bucket retry budget: retries capped at a fraction of successes.
//
// Every layer in the platform retries on failure — dataflow tasks, serve
// hedges, store repairs, batch requeues. Retrying independently is what
// turns a healed partition into a metastable collapse: the backlog of
// failures converts into a synchronized retry wave whose added load
// keeps the goodput below the arrival rate even after the trigger is
// gone. A RetryBudget breaks the feedback loop by making retry capacity
// proportional to *observed success*: each success deposits
// `kDepositRatio` tokens (capped at `kBurst`), each retry withdraws one,
// and a layer whose budget is empty must shed/defer instead of retrying.
// During an outage successes stop, the budget drains, and the retry
// volume decays to the trickle the bucket's refill allows — so the
// moment the fault heals, real traffic (not amplified retries) fills the
// pipe.
//
// The budget is deliberately clock-free (pure success-ratio accounting),
// so it is deterministic and shareable across layers: wiring several
// subsystems to one budget gives the cluster a global retry ceiling.
#pragma once

#include <algorithm>
#include <cstdint>

namespace evolve::util {

class RetryBudget {
 public:
  /// Tokens deposited per recorded success (0.1 = retries capped at
  /// ~10% of the success rate, the classic production setting).
  static constexpr double kDepositRatio = 0.1;
  /// Bucket capacity: the largest retry burst a quiet period can bank.
  /// The bucket starts full, which lets startup retries through before
  /// the first successes land.
  static constexpr double kBurst = 10.0;

  /// A unit of real work completed; deposits kDepositRatio tokens.
  void record_success() {
    ++successes_;
    tokens_ = std::min(kBurst, tokens_ + kDepositRatio);
  }

  /// True when a retry may proceed (withdraws one token). False means
  /// the caller must defer or shed — not silently retry anyway.
  bool try_retry() {
    if (would_allow()) {
      tokens_ = std::max(0.0, tokens_ - 1.0);
      ++granted_;
      return true;
    }
    ++denied_;
    return false;
  }

  /// Non-consuming peek (e.g. to decide between hedge and wait). The
  /// epsilon absorbs accumulated deposit rounding: ten 0.1-deposits must
  /// bank exactly one retry even though 10 x 0.1 < 1.0 in binary.
  bool would_allow() const { return tokens_ >= 1.0 - 1e-9; }

  double tokens() const { return tokens_; }
  std::int64_t successes() const { return successes_; }
  std::int64_t retries_granted() const { return granted_; }
  std::int64_t retries_denied() const { return denied_; }

 private:
  double tokens_ = kBurst;
  std::int64_t successes_ = 0;
  std::int64_t granted_ = 0;
  std::int64_t denied_ = 0;
};

}  // namespace evolve::util
