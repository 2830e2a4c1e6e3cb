// Per-node tiered cache (DRAM -> NVMe -> HDD) with LRU per tier and
// demotion cascades, mirroring the EVOLVE storage nodes' tiering.
//
// This class is a placement/bookkeeping structure: it decides which tier
// an object lives in. Timing is applied by the object store, which charges
// the device queue of the tier the cache reports.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/object_key.hpp"
#include "util/types.hpp"

namespace evolve::storage {

struct TierConfig {
  std::string name;          // must match a StorageDeviceSpec name
  util::Bytes capacity = 0;  // bytes usable for cached objects
};

struct TierStats {
  std::int64_t hits = 0;
  std::int64_t inserts = 0;
  std::int64_t demotions_in = 0;   // objects demoted into this tier
  std::int64_t demotions_out = 0;  // objects demoted out of this tier
  util::Bytes used = 0;
};

/// Multi-tier LRU. Tier 0 is fastest. An object lives in exactly one tier.
/// Inserts land in tier 0; eviction demotes the LRU object to the next
/// tier (possibly cascading); the last tier evicts to nowhere (drop).
/// Keys are ObjectKeys, so keys with the same full() are one object.
class TieredCache {
 public:
  explicit TieredCache(std::vector<TierConfig> tiers);
  // LRU entries point at index keys, which a copy would not re-point.
  TieredCache(const TieredCache&) = delete;
  TieredCache& operator=(const TieredCache&) = delete;
  TieredCache(TieredCache&&) = default;
  TieredCache& operator=(TieredCache&&) = default;

  /// Inserts or refreshes an object in tier 0. Objects larger than tier 0
  /// land in the first tier that can ever hold them; objects larger than
  /// every tier are not cached (returns false).
  bool put(const ObjectKey& key, util::Bytes size);

  /// Looks up an object. On a hit, promotes it to tier 0 (if it fits) and
  /// returns the tier index it was found in *before* promotion. An object
  /// too big for tier 0 is refreshed in its own tier; that is a hit, not
  /// an insert.
  std::optional<int> get(const ObjectKey& key);

  /// Looks up without promoting or touching LRU order.
  std::optional<int> peek(const ObjectKey& key) const;

  /// Removes an object from whatever tier holds it.
  bool erase(const ObjectKey& key);

  /// Drops every cached object (node crash: volatile tiers are gone and
  /// restart starts cold). Cumulative hit/miss counters are preserved.
  void clear() {
    for (Tier& tier : tiers_) {
      tier.lru.clear();
      tier.stats.used = 0;
    }
    index_.clear();
  }

  bool contains(const ObjectKey& key) const;

  int tier_count() const { return static_cast<int>(tiers_.size()); }
  const TierStats& stats(int tier) const;
  const TierConfig& config(int tier) const;
  util::Bytes used(int tier) const;

  std::int64_t misses() const { return misses_; }
  std::int64_t drops() const { return drops_; }

  /// Total objects across all tiers.
  std::size_t size() const { return index_.size(); }

 private:
  struct Entry {
    const ObjectKey* key;  // the index_ node's key (nodes never move)
    util::Bytes size;
  };
  using Lru = std::list<Entry>;  // front = most recent
  struct Tier {
    TierConfig config;
    TierStats stats;
    Lru lru;
  };
  struct Location {
    int tier;
    Lru::iterator it;
  };
  using Index = std::unordered_map<ObjectKey, Location, ObjectKeyHash>;

  /// Moves the entry `at` (spliced into a holding list by the caller) to
  /// the head of the first tier from `tier` on that can hold it,
  /// evicting/demoting there as needed, or drops it when none can.
  /// `demotion` marks whether it came from a higher tier.
  void place(int tier, Index::iterator at, Lru& holding, bool demotion);
  void make_room(int tier, util::Bytes needed);

  std::vector<Tier> tiers_;
  Index index_;
  std::int64_t misses_ = 0;
  std::int64_t drops_ = 0;
};

}  // namespace evolve::storage
