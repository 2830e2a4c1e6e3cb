// Epoch-stamped range-routing table for the tablet layer.
//
// The key space [0, keyspace) is partitioned into contiguous shards
// (tablets); each shard is hosted by exactly one node. Every mutation —
// split, merge, move — bumps the map's epoch, which is the coherence
// protocol between the authoritative map (owned by the TabletService)
// and the cached copies clients route by: a client whose cached epoch is
// behind may send an op to a node that no longer owns the key, the
// server answers WrongShard, and the client refreshes and retries. The
// epoch therefore never blocks the data path; it only bounds how stale a
// route can get before it is corrected.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cluster/node.hpp"

namespace evolve::tablet {

using ShardId = std::int32_t;
inline constexpr ShardId kInvalidShard = -1;

struct ShardInfo {
  ShardId id = kInvalidShard;
  std::uint64_t start = 0;  // inclusive
  std::uint64_t end = 0;    // exclusive
  cluster::NodeId node = cluster::kInvalidNode;
};

class ShardMap {
 public:
  /// One shard spanning [0, keyspace) on `node`.
  ShardMap(std::uint64_t keyspace, cluster::NodeId node);

  std::uint64_t keyspace() const { return keyspace_; }
  std::int64_t epoch() const { return epoch_; }
  int shard_count() const { return static_cast<int>(by_start_.size()); }

  /// The shard owning `key` (keys are clamped into the key space).
  const ShardInfo& shard_for(std::uint64_t key) const;
  const ShardInfo& shard(ShardId id) const;
  bool has_shard(ShardId id) const { return start_of_.count(id) != 0; }

  /// Splits `id` at `at` (start < at < end): `id` keeps [start, at), the
  /// returned new shard takes [at, end) on the same node. Bumps epoch.
  ShardId split(ShardId id, std::uint64_t at);
  /// Merges `right` (the range neighbor directly after `left`) into
  /// `left`; `left` keeps its node and id. Bumps epoch.
  void merge(ShardId left, ShardId right);
  /// Reassigns `id` to `node`. Bumps epoch.
  void move(ShardId id, cluster::NodeId node);

  /// Shard directly after `id` in range order (kInvalidShard at the end).
  ShardId right_neighbor(ShardId id) const;

  /// All shards in range order.
  std::vector<ShardInfo> shards() const;
  /// The same, written into `out`, whose capacity is reused: a client
  /// refreshing its cached map allocates nothing once `out` has held as
  /// many shards.
  void shards(std::vector<ShardInfo>& out) const;
  /// Shards hosted by `node`, in range order.
  std::vector<ShardId> shards_on(cluster::NodeId node) const;

  std::int64_t splits() const { return splits_; }
  std::int64_t merges() const { return merges_; }
  std::int64_t moves() const { return moves_; }

 private:
  ShardInfo& info(ShardId id);

  std::uint64_t keyspace_;
  std::int64_t epoch_ = 1;
  ShardId next_id_ = 0;
  std::map<std::uint64_t, ShardInfo> by_start_;
  std::map<ShardId, std::uint64_t> start_of_;
  std::int64_t splits_ = 0;
  std::int64_t merges_ = 0;
  std::int64_t moves_ = 0;
};

}  // namespace evolve::tablet
