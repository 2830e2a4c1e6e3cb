#include "storage/tiered_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/strings.hpp"

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

/// The cache's contract restated as plain lists searched linearly: each
/// tier is a list of (name, size), front = most recent.
class NaiveTieredCache {
 public:
  explicit NaiveTieredCache(std::vector<util::Bytes> capacities)
      : capacities_(std::move(capacities)),
        lru_(capacities_.size()),
        stats_(capacities_.size()) {}

  bool put(const std::string& name, util::Bytes size) {
    erase(name);
    for (const util::Bytes capacity : capacities_) {
      if (size <= capacity) {
        place(0, {name, size}, /*demotion=*/false);
        return true;
      }
    }
    ++drops_;
    return false;
  }

  std::optional<int> get(const std::string& name) {
    const auto found = find(name);
    if (!found) {
      ++misses_;
      return std::nullopt;
    }
    const auto [tier, it] = *found;
    ++stats_[tier].hits;
    const Item item = *it;
    lru_[tier].erase(it);
    if (tier == 0 || item.size > capacities_[0]) {
      lru_[tier].push_front(item);
    } else {
      stats_[tier].used -= item.size;
      place(0, item, /*demotion=*/false);
    }
    return tier;
  }

  std::optional<int> peek(const std::string& name) {
    const auto found = find(name);
    if (!found) return std::nullopt;
    return found->first;
  }

  bool erase(const std::string& name) {
    const auto found = find(name);
    if (!found) return false;
    stats_[found->first].used -= found->second->size;
    lru_[found->first].erase(found->second);
    return true;
  }

  const TierStats& stats(int tier) const { return stats_[tier]; }
  std::int64_t misses() const { return misses_; }
  std::int64_t drops() const { return drops_; }
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& tier : lru_) n += tier.size();
    return n;
  }

 private:
  struct Item {
    std::string name;
    util::Bytes size;
  };
  using List = std::list<Item>;

  std::optional<std::pair<int, List::iterator>> find(const std::string& name) {
    for (std::size_t t = 0; t < lru_.size(); ++t) {
      for (auto it = lru_[t].begin(); it != lru_[t].end(); ++it) {
        if (it->name == name) return std::make_pair(static_cast<int>(t), it);
      }
    }
    return std::nullopt;
  }

  void place(std::size_t tier, const Item& item, bool demotion) {
    while (tier < capacities_.size() && item.size > capacities_[tier]) ++tier;
    if (tier == capacities_.size()) {
      ++drops_;
      return;
    }
    while (stats_[tier].used + item.size > capacities_[tier] &&
           !lru_[tier].empty()) {
      const Item victim = lru_[tier].back();
      lru_[tier].pop_back();
      stats_[tier].used -= victim.size;
      ++stats_[tier].demotions_out;
      place(tier + 1, victim, /*demotion=*/true);
    }
    stats_[tier].used += item.size;
    ++(demotion ? stats_[tier].demotions_in : stats_[tier].inserts);
    lru_[tier].push_front(item);
  }

  std::vector<util::Bytes> capacities_;
  std::vector<List> lru_;
  std::vector<TierStats> stats_;
  std::int64_t misses_ = 0;
  std::int64_t drops_ = 0;
};

// Seeded put/get/peek/erase streams (overwrites and objects too big for
// some or every tier included) against the naive model, compared after
// every operation.
class TieredCacheModel : public ::testing::TestWithParam<int> {};

TEST_P(TieredCacheModel, MatchesNaiveModel) {
  auto cache = three_tier(100, 400, 1000);
  NaiveTieredCache model({100, 400, 1000});
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 3000; ++i) {
    const std::string name = util::numbered("k", rng.uniform_int(0, 15));
    const auto size = rng.uniform_int(0, 9) == 0 ? rng.uniform_int(0, 1200)
                                                 : rng.uniform_int(0, 120);
    const std::int64_t op = rng.uniform_int(0, 19);
    if (op < 7) {
      ASSERT_EQ(cache.put(k(name), size), model.put(name, size)) << i;
    } else if (op < 14) {
      ASSERT_EQ(cache.get(k(name)), model.get(name)) << i;
    } else if (op < 17) {
      ASSERT_EQ(cache.peek(k(name)), model.peek(name)) << i;
    } else {
      ASSERT_EQ(cache.erase(k(name)), model.erase(name)) << i;
    }
    for (int t = 0; t < cache.tier_count(); ++t) {
      const TierStats& got = cache.stats(t);
      const TierStats& want = model.stats(t);
      ASSERT_EQ(got.hits, want.hits) << i << " tier " << t;
      ASSERT_EQ(got.inserts, want.inserts) << i << " tier " << t;
      ASSERT_EQ(got.demotions_in, want.demotions_in) << i << " tier " << t;
      ASSERT_EQ(got.demotions_out, want.demotions_out) << i << " tier " << t;
      ASSERT_EQ(got.used, want.used) << i << " tier " << t;
    }
    ASSERT_EQ(cache.misses(), model.misses()) << i;
    ASSERT_EQ(cache.drops(), model.drops()) << i;
    ASSERT_EQ(cache.size(), model.size()) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TieredCacheModel,
                         ::testing::Values(1, 2, 3, 7, 42));

}  // namespace
}  // namespace evolve::storage
