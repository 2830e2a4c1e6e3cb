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

std::optional<int> TieredCache::peek(ObjectId id) const {
  const Lru::iterator* at = index_.find(id);
  if (at == nullptr) return std::nullopt;
  return (*at)->tier;
}

void TieredCache::clear() {
  for (Tier& tier : tiers_) {
    spare_.splice(spare_.end(), tier.lru);
    tier.stats.used = 0;
  }
  index_.clear();
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
    place(tier_index + 1, holding, /*demotion=*/true);
  }
}

void TieredCache::place(int tier_index, Lru& holding, bool demotion) {
  // Entries move between tiers by splicing their list node, and the index
  // keeps pointing at it: no demotion or promotion allocates or probes
  // the index. Only a drop erases the id.
  const Lru::iterator entry = holding.begin();
  // Too big for a tier entirely: push further down, or drop.
  while (tier_index < tier_count() &&
         entry->size > config(tier_index).capacity) {
    ++tier_index;
  }
  if (tier_index == tier_count()) {
    ++drops_;
    index_.erase(entry->id);
    spare_.splice(spare_.begin(), holding, entry);
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
  entry->tier = tier_index;
}

bool TieredCache::put(ObjectId id, util::Bytes size) {
  if (size < 0) throw std::invalid_argument("put: negative size");
  bool fits_somewhere = false;
  for (const Tier& tier : tiers_) {
    if (size <= tier.config.capacity) {
      fits_somewhere = true;
      break;
    }
  }
  if (!fits_somewhere) {
    erase(id);
    ++drops_;
    return false;
  }
  Lru holding;
  const auto [at, fresh] = index_.try_emplace(id, Lru::iterator{});
  if (!fresh) {
    unlink(*at, holding);  // overwrite: the entry is reused
  } else {
    if (spare_.empty()) spare_.emplace_front();
    holding.splice(holding.begin(), spare_, spare_.begin());
    *at = holding.begin();
  }
  holding.front().id = id;
  holding.front().size = size;
  place(0, holding, /*demotion=*/false);
  return true;
}

std::optional<int> TieredCache::get(ObjectId id) {
  const Lru::iterator* at = index_.find(id);
  if (at == nullptr) {
    ++misses_;
    return std::nullopt;
  }
  const Lru::iterator entry = *at;
  const int found_tier = entry->tier;
  Tier& tier = tiers_[static_cast<std::size_t>(found_tier)];
  ++tier.stats.hits;
  if (found_tier == 0 || entry->size > tiers_[0].config.capacity) {
    // A DRAM hit, or an object that can never fit DRAM: refresh the LRU
    // position in place. Nothing changes tier, so nothing is inserted.
    tier.lru.splice(tier.lru.begin(), tier.lru, entry);
    return found_tier;
  }
  // Promote to tier 0 through a holding list, so the eviction cascade in
  // make_room can never select the entry.
  Lru holding;
  unlink(entry, holding);
  place(0, holding, /*demotion=*/false);
  return found_tier;
}

bool TieredCache::erase(ObjectId id) {
  const Lru::iterator* at = index_.find(id);
  if (at == nullptr) return false;
  unlink(*at, spare_);
  index_.erase(id);
  return true;
}

void TieredCache::unlink(Lru::iterator entry, Lru& to) {
  Tier& tier = tiers_[static_cast<std::size_t>(entry->tier)];
  tier.stats.used -= entry->size;
  to.splice(to.begin(), tier.lru, entry);
}

}  // namespace evolve::storage
