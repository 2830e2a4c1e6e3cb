// util::FlatIdMap and util::RingQueue against standard-library oracles,
// and util::SlotTable's slot reuse.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/flat_id_map.hpp"
#include "util/ring_queue.hpp"
#include "util/rng.hpp"
#include "util/slot_table.hpp"

namespace evolve::util {
namespace {

constexpr std::uint64_t kMaxKey = ~std::uint64_t{0};

void expect_same(FlatIdMap<int>& map,
                 const std::unordered_map<std::uint64_t, int>& oracle,
                 const std::vector<std::uint64_t>& universe) {
  ASSERT_EQ(map.size(), oracle.size());
  for (const std::uint64_t key : universe) {
    const int* found = map.find(key);
    const auto it = oracle.find(key);
    ASSERT_EQ(found != nullptr, it != oracle.end()) << "key " << key;
    if (found) {
      EXPECT_EQ(*found, it->second) << "key " << key;
    }
  }
  std::size_t visited = 0;
  map.for_each([&](std::uint64_t key, int value) {
    ++visited;
    const auto it = oracle.find(key);
    ASSERT_NE(it, oracle.end()) << "key " << key;
    EXPECT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, oracle.size());
}

/// Random inserts and erases over `universe`, checked after every step.
void churn(FlatIdMap<int>& map, std::unordered_map<std::uint64_t, int>& oracle,
           const std::vector<std::uint64_t>& universe, Rng& rng, int steps) {
  const auto last = static_cast<std::int64_t>(universe.size()) - 1;
  for (int step = 0; step < steps; ++step) {
    const std::uint64_t key =
        universe[static_cast<std::size_t>(rng.uniform_int(0, last))];
    if (rng.uniform_int(0, 2) != 0) {
      const auto [value, inserted] = map.try_emplace(key, step);
      const auto [it, oracle_inserted] = oracle.try_emplace(key, step);
      ASSERT_EQ(inserted, oracle_inserted);
      EXPECT_EQ(*value, it->second);
    } else {
      ASSERT_EQ(map.erase(key), oracle.erase(key) == 1);
    }
    expect_same(map, oracle, universe);
  }
}

TEST(FlatIdMap, MatchesUnorderedMapUnderRandomChurn) {
  Rng rng(7);
  FlatIdMap<int> map;
  std::unordered_map<std::uint64_t, int> oracle;
  // Twelve keys never outgrow the first 16-slot table, so probe runs
  // stay long and often wrap past its end; ~0 is an ordinary key.
  std::vector<std::uint64_t> universe = {kMaxKey, 0, 1, 2, 3, 16, 17, 32,
                                         1u << 20, kMaxKey - 1, 99, 100};
  churn(map, oracle, universe, rng, 4000);
  // A wider universe forces growth, then churns the grown table.
  for (std::uint64_t k = 0; k < 3000; ++k) {
    universe.push_back(k * 0x10001 + 5);
  }
  churn(map, oracle, universe, rng, 3000);
  EXPECT_GT(map.size(), 12u);
}

TEST(FlatIdMap, EraseShiftsBackAcrossTheTableEnd) {
  // Keys whose Fibonacci home is the last slot of the first 16-slot table:
  // the second and third wrap to slots 0 and 1, and a key homed at slot 0
  // lands in slot 2.
  const auto home = [](std::uint64_t key) {
    return (key * 0x9E3779B97F4A7C15ull) >> 60;
  };
  std::vector<std::uint64_t> last_slot;
  std::uint64_t first_slot = 0;
  for (std::uint64_t k = 1; last_slot.size() < 3 || first_slot == 0; ++k) {
    if (home(k) == 15 && last_slot.size() < 3) last_slot.push_back(k);
    if (home(k) == 0 && first_slot == 0) first_slot = k;
  }
  FlatIdMap<int> map;
  map.try_emplace(last_slot[0], 0);
  map.try_emplace(last_slot[1], 1);
  map.try_emplace(last_slot[2], 2);
  map.try_emplace(first_slot, 3);
  ASSERT_TRUE(map.erase(last_slot[0]));
  EXPECT_EQ(map.find(last_slot[0]), nullptr);
  ASSERT_NE(map.find(last_slot[1]), nullptr);
  ASSERT_NE(map.find(last_slot[2]), nullptr);
  ASSERT_NE(map.find(first_slot), nullptr);
  EXPECT_EQ(*map.find(last_slot[1]), 1);
  EXPECT_EQ(*map.find(last_slot[2]), 2);
  EXPECT_EQ(*map.find(first_slot), 3);
  // Table order after the shift: slot 0, slot 1, then the wrapped-back
  // entry in slot 15.
  std::vector<int> order;
  map.for_each([&](std::uint64_t, int v) { order.push_back(v); });
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST(FlatIdMap, HoldsTheAllOnesKey) {
  FlatIdMap<int> map;
  EXPECT_EQ(map.find(kMaxKey), nullptr);
  EXPECT_FALSE(map.erase(kMaxKey));
  EXPECT_TRUE(map.try_emplace(kMaxKey, 4).second);
  EXPECT_FALSE(map.try_emplace(kMaxKey, 5).second);
  EXPECT_EQ(*map.find(kMaxKey), 4);
  EXPECT_TRUE(map.erase(kMaxKey));
  EXPECT_TRUE(map.empty());
}

TEST(RingQueue, MatchesDequeUnderRandomPushAndErase) {
  Rng rng(11);
  RingQueue<int> ring;
  std::deque<int> oracle;
  for (int step = 0; step < 20000; ++step) {
    // Biased to grow to a few dozen elements, then hover, so the ring
    // grows, wraps and erases on both sides of its gap.
    const bool push = oracle.empty() || rng.uniform_int(0, 99) <
                                            (oracle.size() < 40 ? 60 : 45);
    if (push) {
      ring.push_back(step);
      oracle.push_back(step);
    } else {
      const auto i = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(oracle.size()) - 1));
      ring.erase(i);
      oracle.erase(oracle.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_EQ(ring.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      ASSERT_EQ(ring[i], oracle[i]) << "step " << step << " index " << i;
    }
  }
  ring.clear();
  EXPECT_TRUE(ring.empty());
}

TEST(RingQueue, SlidingWindowMatchesDeque) {
  // A sliding window's shape: pushes at the back, pops at the front,
  // with the depth swinging so the ring wraps, grows and drains empty.
  Rng rng(12);
  RingQueue<int> ring;
  std::deque<int> oracle;
  for (int step = 0; step < 20000; ++step) {
    const int target = (step / 2000) % 2 == 0 ? 50 : 3;
    if (oracle.empty() || static_cast<int>(oracle.size()) < target ||
        rng.uniform_int(0, 1) == 0) {
      ring.push_back(step);
      oracle.push_back(step);
    } else {
      ring.pop_front();
      oracle.pop_front();
    }
    ASSERT_EQ(ring.size(), oracle.size());
    if (!oracle.empty()) {
      ASSERT_EQ(ring.front(), oracle.front());
    }
  }
  for (std::size_t i = 0; i < oracle.size(); ++i) EXPECT_EQ(ring[i], oracle[i]);
}

TEST(RingQueue, KeepsFifoOrderAcrossGrowth) {
  RingQueue<int> ring = {1, 2, 3};
  ring.erase(0);
  for (int v = 4; v <= 20; ++v) ring.push_back(v);  // wraps, then grows
  ASSERT_EQ(ring.size(), 19u);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], static_cast<int>(i) + 2);
  }
  EXPECT_EQ(ring.front(), 2);
}

TEST(SlotTable, ReusesTheLastReleasedSlotAndKeepsValuesAcrossGrowth) {
  SlotTable<std::unique_ptr<int>> table;  // move-only values
  std::vector<SlotTable<std::unique_ptr<int>>::Id> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(table.acquire(std::make_unique<int>(i)));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], i);
    EXPECT_EQ(*table[ids[i]], static_cast<int>(i));
  }
  table.release(ids[10]);
  table.release(ids[42]);
  EXPECT_EQ(table.acquire(std::make_unique<int>(-1)), ids[42]);
  EXPECT_EQ(table.acquire(std::make_unique<int>(-2)), ids[10]);
  EXPECT_EQ(table.acquire(std::make_unique<int>(-3)), 100u);  // none free
  EXPECT_EQ(*table[ids[42]], -1);
  EXPECT_EQ(*table[ids[10]], -2);
  EXPECT_EQ(*table[ids[99]], 99);
}

}  // namespace
}  // namespace evolve::util
