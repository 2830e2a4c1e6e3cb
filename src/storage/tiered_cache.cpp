#include "storage/tiered_cache.hpp"

#include <iterator>
#include <stdexcept>

namespace evolve::storage {

TieredCache::TieredCache(std::vector<TierConfig> tiers) {
  if (tiers.empty()) throw std::invalid_argument("need at least one tier");
  tiers_.reserve(tiers.size());
  for (auto& config : tiers) {
    if (config.capacity < 0) {
      throw std::invalid_argument("tier capacity must be >= 0");
    }
    Tier tier;
    tier.config = std::move(config);
    tiers_.push_back(std::move(tier));
  }
}

const TierStats& TieredCache::stats(int tier) const {
  return tiers_.at(static_cast<std::size_t>(tier)).stats;
}

const TierConfig& TieredCache::config(int tier) const {
  return tiers_.at(static_cast<std::size_t>(tier)).config;
}

util::Bytes TieredCache::used(int tier) const {
  return tiers_.at(static_cast<std::size_t>(tier)).stats.used;
}

bool TieredCache::contains(const ObjectKey& key) const {
  return index_.count(key) != 0;
}

std::optional<int> TieredCache::peek(const ObjectKey& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  return it->second.tier;
}

void TieredCache::make_room(int tier_index, util::Bytes needed) {
  Tier& tier = tiers_[static_cast<std::size_t>(tier_index)];
  while (tier.stats.used + needed > tier.config.capacity &&
         !tier.lru.empty()) {
    Lru holding;
    const Lru::iterator victim = std::prev(tier.lru.end());
    holding.splice(holding.begin(), tier.lru, victim);
    tier.stats.used -= victim->size;
    ++tier.stats.demotions_out;
    place(tier_index + 1, index_.find(*victim->key), holding,
          /*demotion=*/true);
  }
}

void TieredCache::place(int tier_index, Index::iterator at, Lru& holding,
                        bool demotion) {
  // Entries move between tiers by splicing their list node, and the index
  // node stays put: no demotion or promotion allocates.
  const Lru::iterator entry = at->second.it;
  // Too big for a tier entirely: push further down, or drop.
  while (tier_index < tier_count() &&
         entry->size > config(tier_index).capacity) {
    ++tier_index;
  }
  if (tier_index == tier_count()) {
    ++drops_;
    index_.erase(at);  // the caller's holding list frees the entry
    return;
  }
  // The entry sits in `holding`, so the eviction cascade never selects it.
  make_room(tier_index, entry->size);
  Tier& tier = tiers_[static_cast<std::size_t>(tier_index)];
  tier.stats.used += entry->size;
  if (demotion) {
    ++tier.stats.demotions_in;
  } else {
    ++tier.stats.inserts;
  }
  tier.lru.splice(tier.lru.begin(), holding, entry);
  at->second.tier = tier_index;
}

bool TieredCache::put(const ObjectKey& key, util::Bytes size) {
  if (size < 0) throw std::invalid_argument("put: negative size");
  erase(key);
  bool fits_somewhere = false;
  for (const Tier& tier : tiers_) {
    if (size <= tier.config.capacity) {
      fits_somewhere = true;
      break;
    }
  }
  if (!fits_somewhere) {
    ++drops_;
    return false;
  }
  const Index::iterator at = index_.try_emplace(key).first;
  Lru holding;
  holding.push_front(Entry{&at->first, size});
  at->second.it = holding.begin();
  place(0, at, holding, /*demotion=*/false);
  return true;
}

std::optional<int> TieredCache::get(const ObjectKey& key) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  const int found_tier = it->second.tier;
  Tier& tier = tiers_[static_cast<std::size_t>(found_tier)];
  ++tier.stats.hits;
  const Lru::iterator entry = it->second.it;
  if (found_tier == 0 || entry->size > tiers_[0].config.capacity) {
    // A DRAM hit, or an object that can never fit DRAM: refresh the LRU
    // position in place. Nothing changes tier, so nothing is inserted.
    tier.lru.splice(tier.lru.begin(), tier.lru, entry);
    return found_tier;
  }
  // Promote to tier 0 through a holding list, so the eviction cascade in
  // make_room can never select the entry.
  Lru holding;
  holding.splice(holding.begin(), tier.lru, entry);
  tier.stats.used -= entry->size;
  place(0, it, holding, /*demotion=*/false);
  return found_tier;
}

bool TieredCache::erase(const ObjectKey& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return false;
  Tier& tier = tiers_[static_cast<std::size_t>(it->second.tier)];
  tier.stats.used -= it->second.it->size;
  tier.lru.erase(it->second.it);
  index_.erase(it);
  return true;
}

}  // namespace evolve::storage
