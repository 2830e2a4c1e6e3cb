#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace evolve::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesRunFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  q.push(1, [&] { ++fired; });
  const EventId id = q.push(2, [&] { ++fired; });
  q.push(3, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.push(1, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterPopFails) {
  EventQueue q;
  const EventId id = q.push(1, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  EXPECT_EQ(q.size(), 0u);
  const EventId a = q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const EventId a = q.push(1, [] {});
  q.push(9, [] {});
  q.cancel(a);
  EXPECT_EQ(q.next_time(), 9);
}

TEST(EventQueue, EmptyThrowsOnAccess) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW(q.next_time(), std::logic_error);
}

TEST(EventQueue, CancelAllLeavesEmpty) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(q.push(i, [] {}));
  for (EventId id : ids) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleHandleAfterSlotReuseFails) {
  EventQueue q;
  // Run an event to recycle its slot, then push a new event that reuses it.
  const EventId old_id = q.push(1, [] {});
  q.pop();
  const EventId fresh = q.push(2, [] {});
  // The stale handle must not cancel the new occupant of the slot.
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(fresh));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, HeavyChurnKeepsFifoOrder) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 4; ++i) {
      ids.push_back(q.push(100, [&order, round, i] {
        order.push_back(round * 4 + i);
      }));
    }
    // Cancel one of this round's events; its slot gets recycled next round.
    EXPECT_TRUE(q.cancel(ids[ids.size() - 2]));
  }
  while (!q.empty()) q.pop().fn();
  // Same-time events run in schedule order even across slot reuse.
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]);
  }
  EXPECT_EQ(order.size(), 150u);
}

TEST(EventQueue, InterleavedPushPopCancelStaysConsistent) {
  EventQueue q;
  int fired = 0;
  std::vector<EventId> live;
  for (int t = 0; t < 200; ++t) {
    live.push_back(q.push(t, [&] { ++fired; }));
    if (t % 3 == 0 && !live.empty()) {
      q.cancel(live.front());
      live.erase(live.begin());
    }
    if (t % 5 == 0 && !q.empty()) q.pop().fn();
  }
  std::size_t remaining = q.size();
  while (!q.empty()) {
    q.pop().fn();
    --remaining;
  }
  EXPECT_EQ(remaining, 0u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, OrdersAcrossWheelBandsAndFarHorizon) {
  // Times spanning every band: sub-microsecond (current heap), the four
  // wheel levels, and far beyond the ~17s wheel horizon. Negative times
  // are legal at queue level and sort first.
  EventQueue q;
  const std::vector<util::TimeNs> times = {
      60'000'000'000, 500, -3, 25'000, 3'000'000, 90'000'000,
      17'500'000'000, 0,   7,  1'000'000'000};
  std::vector<util::TimeNs> expected = times;
  std::sort(expected.begin(), expected.end());
  for (const util::TimeNs t : times) q.push(t, [] {});
  std::vector<util::TimeNs> popped;
  while (!q.empty()) popped.push_back(q.pop().time);
  EXPECT_EQ(popped, expected);
}

TEST(EventQueue, CancelHeavyStressStaysConsistent) {
  // Cancel-heavy churn across all wheel bands: every observer
  // (empty/next_time/pop) must agree while cancelled entries are being
  // lazily reclaimed, and survivors must pop in exact (time, seq) order.
  EventQueue q;
  std::vector<std::pair<util::TimeNs, EventId>> live;
  std::uint64_t mix = 0x9e3779b97f4a7c15ULL;
  auto next = [&mix] {
    mix ^= mix << 13;
    mix ^= mix >> 7;
    mix ^= mix << 17;
    return mix;
  };
  util::TimeNs now = 0;
  std::vector<util::TimeNs> popped;
  for (int round = 0; round < 3000; ++round) {
    // Pushes spread from "immediately" to far past the wheel horizon.
    const util::TimeNs t =
        now + static_cast<util::TimeNs>(next() % 30'000'000'000ULL);
    live.emplace_back(t, q.push(t, [] {}));
    // Cancel ~2 of every 3 scheduled events, oldest first.
    while (live.size() > 1 && next() % 3 != 0) {
      EXPECT_TRUE(q.cancel(live.front().second));
      live.erase(live.begin());
    }
    if (next() % 4 == 0 && !q.empty()) {
      const util::TimeNs head = q.next_time();
      const Event ev = q.pop();
      EXPECT_EQ(ev.time, head);  // observers agree on the live head
      EXPECT_GE(ev.time, now);
      now = ev.time;
      popped.push_back(ev.time);
      std::erase_if(live, [&](const auto& p) { return p.second == ev.id; });
    }
    EXPECT_EQ(q.size(), live.size());
    EXPECT_EQ(q.empty(), live.empty());
  }
  std::sort(live.begin(), live.end());
  for (const auto& [t, id] : live) {
    EXPECT_EQ(q.pop().time, t);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(std::is_sorted(popped.begin(), popped.end()));
}

TEST(EventQueue, CancelAllRecyclesSlotsPromptly) {
  // Once every event is cancelled, the queue reclaims in bulk: new pushes
  // reuse the old cancellation slots instead of growing the slot table,
  // even for events that were banked deep in the wheel / far heap.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(q.push(static_cast<util::TimeNs>(i) * 1'000'000'000, [] {}));
  }
  for (EventId id : ids) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  const std::size_t slots = q.slot_count();
  for (int i = 0; i < 64; ++i) q.push(i, [] {});
  EXPECT_EQ(q.slot_count(), slots);  // all recycled, none added
  while (!q.empty()) q.pop().fn();
}

TEST(EventQueue, MoveOnlyCallbacksWork) {
  // EventFn is move-only (util::SmallFn): it must accept captures that
  // std::function cannot hold, e.g. a lambda owning another EventFn.
  EventQueue q;
  int fired = 0;
  EventFn inner = [&fired] { fired += 10; };
  q.push(5, [inner = std::move(inner)]() mutable { inner(); });
  q.push(1, [&fired] { ++fired; });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 11);
}

TEST(EventQueue, CallbackCapturesReleasedOnRunAndOnReclaim) {
  // The shared_ptr's use count is the number of live captures: the queue
  // must drop its copy when the event is popped, when a cancelled entry
  // is reclaimed on any path (settle, advance, purge), and when it is
  // destroyed with entries still queued.
  const auto token = std::make_shared<int>(0);
  const auto capture = [&token] { return [t = token] { ++*t; }; };
  {
    EventQueue q;
    q.push(5, capture());
    EXPECT_EQ(token.use_count(), 2);
    Event event = q.pop();
    EXPECT_EQ(token.use_count(), 2);  // moved out, not copied
    event.fn();
    event.fn = nullptr;
    EXPECT_EQ(token.use_count(), 1) << "after its event runs";
  }
  {
    EventQueue q;
    const EventId dead = q.push(5, capture());
    q.push(10, [] {});
    EXPECT_EQ(q.next_time(), 5);  // both now in the loaded band
    EXPECT_TRUE(q.cancel(dead));
    EXPECT_EQ(token.use_count(), 2);  // reclaimed lazily
    EXPECT_EQ(q.next_time(), 10);
    EXPECT_EQ(token.use_count(), 1) << "reclaimed by settle";
  }
  {
    EventQueue q;
    const EventId dead = q.push(5, capture());
    q.push(1'000'000, [] {});  // a later wheel bucket
    EXPECT_TRUE(q.cancel(dead));
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_EQ(q.next_time(), 1'000'000);
    EXPECT_EQ(token.use_count(), 1) << "reclaimed by advance";
  }
  {
    EventQueue q;
    const EventId dead = q.push(5, capture());
    EXPECT_TRUE(q.cancel(dead));
    EXPECT_EQ(token.use_count(), 1) << "reclaimed by purge";
  }
  {
    EventQueue q;
    q.push(5, capture());
    const EventId cancelled = q.push(7, capture());
    q.push(std::int64_t{1} << 40, capture());  // beyond the wheel horizon
    EXPECT_TRUE(q.cancel(cancelled));
    EXPECT_EQ(token.use_count(), 4);
  }
  EXPECT_EQ(token.use_count(), 1) << "released with the queue";
  EXPECT_EQ(*token, 1);
}

}  // namespace
}  // namespace evolve::sim
