// Queue-equivalence soak: the calendar EventQueue and the preserved
// binary-heap RefEventQueue must produce identical observable behaviour —
// pop order (time and payload), next_time values, cancel results, and
// size/empty — over 100 seeds of randomized push/pop/cancel churn whose
// times span every band (current heap, all four wheel levels, far heap).
//
// Handles are compared by *push index*, not raw EventId: slot-recycling
// timing legitimately differs between the engines, so ids may differ
// while the event streams are identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "reference/ref_event_queue.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace evolve::sim {
namespace {

struct Op {
  enum Kind { kPush, kPop, kCancel, kPeek } kind;
  util::TimeNs time = 0;   // kPush
  std::size_t target = 0;  // kCancel: push index to cancel
};

std::vector<Op> make_ops(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Op> ops;
  std::size_t pushes = 0;
  util::TimeNs now = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t roll = rng.uniform_int(0, 9);
    if (roll < 5 || pushes == 0) {
      // Mix of near (same L0 bucket), mid (wheel levels), and far times;
      // occasional exact ties exercise the FIFO tie-break.
      const std::int64_t band = rng.uniform_int(0, 4);
      util::TimeNs dt = 0;
      switch (band) {
        case 0: dt = rng.uniform_int(0, 1'000); break;                // L0
        case 1: dt = rng.uniform_int(0, 4'000'000); break;            // L1/L2
        case 2: dt = rng.uniform_int(0, 15'000'000'000); break;       // L3
        case 3: dt = rng.uniform_int(0, 60'000'000'000); break;       // far
        default: dt = 0; break;                                       // tie
      }
      ops.push_back(Op{Op::kPush, now + dt, 0});
      ++pushes;
    } else if (roll < 7) {
      ops.push_back(Op{Op::kPop, 0, 0});
    } else if (roll < 9) {
      ops.push_back(
          Op{Op::kCancel, 0,
             static_cast<std::size_t>(rng.uniform_int(
                 0, static_cast<std::int64_t>(pushes) - 1))});
    } else {
      ops.push_back(Op{Op::kPeek, 0, 0});
    }
    // Keep `now` loosely advancing so pushes are not all front-loaded.
    if (roll < 5) now += rng.uniform_int(0, 2'000'000);
  }
  return ops;
}

TEST(QueueEquivalenceSoak, HundredSeedsIdenticalBehaviour) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const std::vector<Op> ops = make_ops(seed * 0x9e3779b97f4a7c15ULL);

    EventQueue cal;
    RefEventQueue ref;
    std::vector<EventId> cal_ids;
    std::vector<RefEventId> ref_ids;
    std::vector<std::uint64_t> cal_fired, ref_fired;

    std::uint64_t tag = 0;
    for (const Op& op : ops) {
      switch (op.kind) {
        case Op::kPush: {
          const std::uint64_t t = tag++;
          cal_ids.push_back(
              cal.push(op.time, [&cal_fired, t] { cal_fired.push_back(t); }));
          ref_ids.push_back(
              ref.push(op.time, [&ref_fired, t] { ref_fired.push_back(t); }));
          break;
        }
        case Op::kPop: {
          ASSERT_EQ(cal.empty(), ref.empty()) << "seed " << seed;
          if (cal.empty()) break;
          Event a = cal.pop();
          RefEvent b = ref.pop();
          ASSERT_EQ(a.time, b.time) << "seed " << seed;
          a.fn();
          b.fn();
          ASSERT_EQ(cal_fired.back(), ref_fired.back()) << "seed " << seed;
          break;
        }
        case Op::kCancel: {
          const bool a = cal.cancel(cal_ids[op.target]);
          const bool b = ref.cancel(ref_ids[op.target]);
          ASSERT_EQ(a, b) << "seed " << seed << " target " << op.target;
          break;
        }
        case Op::kPeek: {
          ASSERT_EQ(cal.empty(), ref.empty()) << "seed " << seed;
          if (!cal.empty()) {
            ASSERT_EQ(cal.next_time(), ref.next_time()) << "seed " << seed;
          }
          break;
        }
      }
      ASSERT_EQ(cal.size(), ref.size()) << "seed " << seed;
    }

    // Drain both queues to the end: the full execution streams must match.
    while (!cal.empty()) {
      ASSERT_FALSE(ref.empty()) << "seed " << seed;
      Event a = cal.pop();
      RefEvent b = ref.pop();
      ASSERT_EQ(a.time, b.time) << "seed " << seed;
      a.fn();
      b.fn();
    }
    ASSERT_TRUE(ref.empty()) << "seed " << seed;
    ASSERT_EQ(cal_fired, ref_fired) << "seed " << seed;
  }
}

}  // namespace
}  // namespace evolve::sim
