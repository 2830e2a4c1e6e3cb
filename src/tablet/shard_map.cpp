#include "tablet/shard_map.hpp"

#include <stdexcept>

namespace evolve::tablet {

ShardMap::ShardMap(std::uint64_t keyspace, cluster::NodeId node)
    : keyspace_(keyspace) {
  if (keyspace == 0) throw std::invalid_argument("shard map: empty key space");
  ShardInfo root;
  root.id = next_id_++;
  root.start = 0;
  root.end = keyspace;
  root.node = node;
  by_start_[0] = root;
  start_of_[root.id] = 0;
}

const ShardInfo& ShardMap::shard_for(std::uint64_t key) const {
  if (key >= keyspace_) key = keyspace_ - 1;
  auto it = by_start_.upper_bound(key);
  --it;  // the root shard starts at 0, so this is always valid
  return it->second;
}

const ShardInfo& ShardMap::shard(ShardId id) const {
  auto it = start_of_.find(id);
  if (it == start_of_.end()) throw std::invalid_argument("unknown shard");
  return by_start_.at(it->second);
}

ShardInfo& ShardMap::info(ShardId id) {
  auto it = start_of_.find(id);
  if (it == start_of_.end()) throw std::invalid_argument("unknown shard");
  return by_start_.at(it->second);
}

ShardId ShardMap::split(ShardId id, std::uint64_t at) {
  ShardInfo& left = info(id);
  if (at <= left.start || at >= left.end) {
    throw std::invalid_argument("split point outside the shard");
  }
  ShardInfo right;
  right.id = next_id_++;
  right.start = at;
  right.end = left.end;
  right.node = left.node;
  left.end = at;
  by_start_[at] = right;
  start_of_[right.id] = at;
  ++epoch_;
  ++splits_;
  return right.id;
}

void ShardMap::merge(ShardId left, ShardId right) {
  ShardInfo& l = info(left);
  ShardInfo& r = info(right);
  if (l.end != r.start) {
    throw std::invalid_argument("merge: shards are not range-adjacent");
  }
  l.end = r.end;
  by_start_.erase(r.start);
  start_of_.erase(right);
  ++epoch_;
  ++merges_;
}

void ShardMap::move(ShardId id, cluster::NodeId node) {
  info(id).node = node;
  ++epoch_;
  ++moves_;
}

ShardId ShardMap::right_neighbor(ShardId id) const {
  const ShardInfo& s = shard(id);
  auto it = by_start_.find(s.start);
  ++it;
  return it == by_start_.end() ? kInvalidShard : it->second.id;
}

std::vector<ShardInfo> ShardMap::shards() const {
  std::vector<ShardInfo> out;
  shards(out);
  return out;
}

void ShardMap::shards(std::vector<ShardInfo>& out) const {
  out.clear();
  out.reserve(by_start_.size());
  for (const auto& [start, info] : by_start_) out.push_back(info);
}

std::vector<ShardId> ShardMap::shards_on(cluster::NodeId node) const {
  std::vector<ShardId> out;
  for (const auto& [start, info] : by_start_) {
    if (info.node == node) out.push_back(info.id);
  }
  return out;
}

}  // namespace evolve::tablet
