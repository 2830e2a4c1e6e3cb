#include "storage/tiered_cache.hpp"

#include <gtest/gtest.h>

#include <string>

namespace evolve::storage {
namespace {

// Cache keys are object keys; every test object lives in one bucket.
ObjectKey k(const std::string& name) { return ObjectKey{"b", name}; }

TieredCache three_tier(util::Bytes dram = 100, util::Bytes nvme = 1000,
                       util::Bytes hdd = 10000) {
  return TieredCache({TierConfig{"dram", dram}, TierConfig{"nvme", nvme},
                      TierConfig{"hdd", hdd}});
}

TEST(TieredCache, RejectsEmptyTiers) {
  EXPECT_THROW(TieredCache({}), std::invalid_argument);
}

TEST(TieredCache, PutLandsInTierZero) {
  auto cache = three_tier();
  EXPECT_TRUE(cache.put(k("a"), 50));
  EXPECT_EQ(cache.peek(k("a")), 0);
  EXPECT_EQ(cache.used(0), 50);
}

TEST(TieredCache, GetHitReportsTierAndPromotes) {
  auto cache = three_tier();
  cache.put(k("a"), 60);
  cache.put(k("b"), 60);  // evicts "a" to nvme
  EXPECT_EQ(cache.peek(k("a")), 1);
  const auto hit = cache.get(k("a"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 1);            // found in nvme...
  EXPECT_EQ(cache.peek(k("a")), 0);  // ...now promoted to dram
}

TEST(TieredCache, MissCounts) {
  auto cache = three_tier();
  EXPECT_FALSE(cache.get(k("nope")).has_value());
  EXPECT_EQ(cache.misses(), 1);
}

TEST(TieredCache, EvictionCascadesDown) {
  auto cache = three_tier(100, 100, 100);
  cache.put(k("a"), 100);
  cache.put(k("b"), 100);  // a -> nvme
  cache.put(k("c"), 100);  // b -> nvme evicts a -> hdd
  EXPECT_EQ(cache.peek(k("c")), 0);
  EXPECT_EQ(cache.peek(k("b")), 1);
  EXPECT_EQ(cache.peek(k("a")), 2);
  cache.put(k("d"), 100);  // c->nvme, b->hdd, a dropped
  EXPECT_FALSE(cache.contains(k("a")));
  EXPECT_EQ(cache.drops(), 1);
  EXPECT_EQ(cache.peek(k("b")), 2);
}

TEST(TieredCache, LruOrderWithinTier) {
  auto cache = three_tier(100, 1000, 10000);
  cache.put(k("a"), 40);
  cache.put(k("b"), 40);
  ASSERT_TRUE(cache.get(k("a")).has_value());  // refresh a
  cache.put(k("c"), 40);                       // evicts b (LRU), not a
  EXPECT_EQ(cache.peek(k("a")), 0);
  EXPECT_EQ(cache.peek(k("b")), 1);
  EXPECT_EQ(cache.peek(k("c")), 0);
}

TEST(TieredCache, ObjectTooBigForAnyTierDrops) {
  auto cache = three_tier(100, 1000, 10000);
  EXPECT_FALSE(cache.put(k("huge"), 20000));
  EXPECT_FALSE(cache.contains(k("huge")));
  EXPECT_EQ(cache.drops(), 1);
}

TEST(TieredCache, ObjectTooBigForTierZeroLandsLower) {
  auto cache = three_tier(100, 1000, 10000);
  EXPECT_TRUE(cache.put(k("mid"), 500));
  EXPECT_EQ(cache.peek(k("mid")), 1);
  EXPECT_TRUE(cache.put(k("big"), 5000));
  EXPECT_EQ(cache.peek(k("big")), 2);
}

TEST(TieredCache, BigObjectStaysInItsTierOnHit) {
  auto cache = three_tier(100, 1000, 10000);
  cache.put(k("big"), 500);
  const auto hit = cache.get(k("big"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 1);
  EXPECT_EQ(cache.peek(k("big")), 1);  // can never fit dram; stays in nvme
}

TEST(TieredCache, RefreshInOwnTierIsNotAnInsert) {
  TieredCache cache({TierConfig{"dram", 100}, TierConfig{"nvme", 1000}});
  cache.put(k("big"), 500);  // too big for dram: lands in nvme
  EXPECT_EQ(cache.stats(1).inserts, 1);
  ASSERT_EQ(cache.get(k("big")), 1);
  ASSERT_EQ(cache.get(k("big")), 1);
  // Two hits refreshed it where it was; nothing changed tier.
  EXPECT_EQ(cache.stats(1).hits, 2);
  EXPECT_EQ(cache.stats(1).inserts, 1);
  EXPECT_EQ(cache.stats(0).inserts, 0);
  EXPECT_EQ(cache.used(1), 500);
}

TEST(TieredCache, PromotionCountsOneInsertInTierZero) {
  auto cache = three_tier(100, 1000, 10000);
  cache.put(k("a"), 60);
  cache.put(k("b"), 60);  // a -> nvme
  ASSERT_EQ(cache.get(k("a")), 1);  // a -> dram, b -> nvme
  EXPECT_EQ(cache.stats(0).inserts, 3);
  EXPECT_EQ(cache.stats(1).inserts, 0);
  EXPECT_EQ(cache.stats(1).demotions_in, 2);
}

TEST(TieredCache, KeysWithTheSameFullStringAreOneObject) {
  auto cache = three_tier();
  cache.put(ObjectKey{"a", "b/c"}, 40);
  EXPECT_TRUE(cache.contains(ObjectKey{"a/b", "c"}));
  cache.put(ObjectKey{"a/b", "c"}, 70);  // overwrites, not a second object
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.used(0), 70);
  EXPECT_TRUE(cache.erase(ObjectKey{"a", "b/c"}));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TieredCache, EraseFreesSpace) {
  auto cache = three_tier();
  cache.put(k("a"), 100);
  EXPECT_TRUE(cache.erase(k("a")));
  EXPECT_FALSE(cache.erase(k("a")));
  EXPECT_EQ(cache.used(0), 0);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(TieredCache, PutOverwriteReplacesSize) {
  auto cache = three_tier();
  cache.put(k("a"), 30);
  cache.put(k("a"), 70);
  EXPECT_EQ(cache.used(0), 70);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TieredCache, StatsTrackHitsAndDemotions) {
  auto cache = three_tier(100, 100, 100);
  cache.put(k("a"), 100);
  cache.put(k("b"), 100);
  ASSERT_TRUE(cache.get(k("b")).has_value());
  EXPECT_EQ(cache.stats(0).hits, 1);
  EXPECT_EQ(cache.stats(0).inserts, 2);
  EXPECT_EQ(cache.stats(0).demotions_out, 1);
  EXPECT_EQ(cache.stats(1).demotions_in, 1);
}

TEST(TieredCache, ZeroSizeObjectsAllowed) {
  auto cache = three_tier();
  EXPECT_TRUE(cache.put(k("empty"), 0));
  EXPECT_TRUE(cache.get(k("empty")).has_value());
}

TEST(TieredCache, NegativeSizeRejected) {
  auto cache = three_tier();
  EXPECT_THROW(cache.put(k("bad"), -1), std::invalid_argument);
}

// Invariant sweep: usage never exceeds capacity under random workloads.
class TieredCacheInvariants : public ::testing::TestWithParam<int> {};

TEST_P(TieredCacheInvariants, UsageNeverExceedsCapacity) {
  auto cache = three_tier(500, 2000, 5000);
  const int seed = GetParam();
  // Deterministic pseudo-random workload from the seed.
  std::uint64_t state = static_cast<std::uint64_t>(seed);
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int i = 0; i < 2000; ++i) {
    const ObjectKey key = k("k" + std::to_string(next() % 100));
    switch (next() % 3) {
      case 0:
        cache.put(key, static_cast<util::Bytes>(next() % 600));
        break;
      case 1:
        cache.get(key);
        break;
      default:
        cache.erase(key);
        break;
    }
    for (int t = 0; t < cache.tier_count(); ++t) {
      ASSERT_LE(cache.used(t), cache.config(t).capacity);
      ASSERT_GE(cache.used(t), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TieredCacheInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99));

}  // namespace
}  // namespace evolve::storage
