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
#include <vector>

#include "storage/object_key.hpp"
#include "util/flat_id_map.hpp"
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
/// Objects are named by the store's dense ObjectIds, so no probe,
/// promotion or demotion hashes or compares a key string; the store maps
/// each key to its one id.
class TieredCache {
 public:
  explicit TieredCache(std::vector<TierConfig> tiers);
  // The index holds iterators into this cache's lists, which a copy
  // would not re-point (a move carries them along).
  TieredCache(const TieredCache&) = delete;
  TieredCache& operator=(const TieredCache&) = delete;
  TieredCache(TieredCache&&) = default;
  TieredCache& operator=(TieredCache&&) = default;

  /// Inserts or refreshes an object in tier 0. Objects larger than tier 0
  /// land in the first tier that can ever hold them; objects larger than
  /// every tier are not cached (returns false).
  bool put(ObjectId id, util::Bytes size);

  /// Looks up an object. On a hit, promotes it to tier 0 (if it fits) and
  /// returns the tier index it was found in *before* promotion. An object
  /// too big for tier 0 is refreshed in its own tier; that is a hit, not
  /// an insert.
  std::optional<int> get(ObjectId id);

  /// Looks up without promoting or touching LRU order.
  std::optional<int> peek(ObjectId id) const;

  /// Removes an object from whatever tier holds it.
  bool erase(ObjectId id);

  /// Drops every cached object (node crash: volatile tiers are gone and
  /// restart starts cold). Cumulative hit/miss counters are preserved.
  void clear();

  bool contains(ObjectId id) const { return index_.find(id) != nullptr; }

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
    ObjectId id;
    int tier;  // the tier whose list holds the entry
    util::Bytes size;
  };
  using Lru = std::list<Entry>;  // front = most recent
  struct Tier {
    TierConfig config;
    TierStats stats;
    Lru lru;
  };

  /// Moves the one entry of `holding` (spliced there by the caller) to
  /// the head of the first tier from `tier` on that can hold it,
  /// evicting/demoting there as needed, or drops it when none can.
  /// `demotion` marks whether it came from a higher tier.
  void place(int tier, Lru& holding, bool demotion);
  void make_room(int tier, util::Bytes needed);
  /// Moves `entry` out of its tier into `to`, releasing its bytes.
  void unlink(Lru::iterator entry, Lru& to);

  std::vector<Tier> tiers_;
  /// Each cached object's LRU entry. List iterators survive every splice,
  /// so an entry changes tier without touching the index.
  util::FlatIdMap<Lru::iterator> index_;
  /// Entries of erased and dropped objects, reused by the next inserts:
  /// once the cache has held its peak count, nothing allocates.
  Lru spare_;
  std::int64_t misses_ = 0;
  std::int64_t drops_ = 0;
};

}  // namespace evolve::storage
