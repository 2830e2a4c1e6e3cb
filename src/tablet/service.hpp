// Tablet-style stateful serving: a sharded KV layer over the object
// store (Bigtable/YTsaurus dynamic-table lineage).
//
// The key space is partitioned into range shards (tablets), each hosted
// by one tablet server node. The write path is ack-after-durable: a
// write is sequenced, executed on the owner, appended to the node's
// group-commit WAL (an epoch-stamped object-store PUT, so durability
// rides the store's replication/EC machinery), applied, and only then
// acknowledged. Apply is idempotent — a write lands only when its seq is
// newer than the key's last applied seq — so client retries across
// shard-map epochs can never double-apply. The read path serves from
// the memtable when the key was written since the last flush and
// otherwise pays a checksummed block read against the newest flushed
// generation.
//
// Memtables flush into generation objects on size or age; tablets
// split under sustained load, merge when cold, and move between nodes
// (flush + re-open on the target, with the unavailability window
// accounted). Routing is epoch-stamped: clients hold a cached ShardMap
// snapshot and retry on WrongShard (see TabletClient). The fault layer
// writes the service's node conditions (fault/wiring.hpp): lease expiry
// sheds a node's tablets and — because the node's fencing epoch moved —
// its in-flight WAL/flush PUTs become zombie writes the store rejects;
// gray CPU slowdowns stretch tablet execution; quarantine drains tablets
// off the node gracefully.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cluster/conditions.hpp"
#include "metrics/registry.hpp"
#include "net/fabric.hpp"
#include "serve/request.hpp"
#include "sim/simulation.hpp"
#include "storage/object_store.hpp"
#include "tablet/shard_map.hpp"
#include "trace/tracer.hpp"
#include "util/types.hpp"

namespace evolve::tablet {

enum class OpKind { kRead, kWrite };

enum class OpStatus {
  kOk,           // completed (write durable+applied, read served)
  kNotFound,     // read of a never-written key (still a completion)
  kWrongShard,   // this node no longer owns the key; refresh and retry
  kQueueFull,    // bounced off the shard's bounded queue
  kUnavailable,  // owner not serving / tablet mid-move; retry later
  kFenced,       // write lost to fencing: the node's epoch was stale
};

const char* to_string(OpStatus status);

struct OpResult {
  OpStatus status = OpStatus::kUnavailable;
  ShardId shard = kInvalidShard;
  std::int64_t epoch = 0;  // authoritative map epoch at response time
  std::int64_t seq = 0;    // the write's sequence number (0 for reads)
  bool from_memtable = false;  // read needed no store block read
  int attempts = 1;            // client-side attempts consumed
};

struct TabletConfig {
  std::uint64_t keyspace = 1 << 20;
  /// Shards at construction, spread round-robin across the nodes.
  int initial_shards = 1;
  int queue_limit = 64;  // per-shard bounded queue
  // -- Memtable flush ---------------------------------------------------
  util::Bytes flush_bytes = 4 * util::kMiB;  // size trigger
  util::TimeNs flush_age = util::seconds(2);  // age trigger
};

/// Store bucket holding every WAL and generation object.
inline constexpr const char* kBucket = "tablets";
inline constexpr util::Bytes kRequestBytes = 512;          // client -> owner
inline constexpr util::Bytes kResponseBytes = 2 * util::kKiB;  // read payload
inline constexpr util::Bytes kAckBytes = 256;  // write ack / error responses
inline constexpr util::Bytes kValueBytes = 1 * util::kKiB;  // logical value
inline constexpr util::Bytes kBlockBytes = 16 * util::kKiB;  // gen block read
inline constexpr util::TimeNs kReadCost = util::micros(60);   // owner CPU
inline constexpr util::TimeNs kWriteCost = util::micros(90);  // owner CPU
// -- WAL group commit ---------------------------------------------------
/// Per-entry framing on top of the value.
inline constexpr util::Bytes kWalEntryBytes = 128;
inline constexpr util::TimeNs kWalGroupDelay = util::micros(200);
// -- Moves --------------------------------------------------------------
inline constexpr util::Bytes kHandoffBytes = 32 * util::kKiB;  // src -> target
inline constexpr util::TimeNs kReopenDelay = util::millis(2);
/// Extra reopen cost when the source could not hand off (lease-shed
/// recovery: the target replays the WAL instead).
inline constexpr util::TimeNs kWalReplayCost = util::millis(5);
// -- Hot keys -----------------------------------------------------------
/// One key taking at least this fraction of a shard's accesses marks the
/// shard hot-key-dominated: splitting cannot spread one key, so the
/// balancer prefers moving the shard whole.
inline constexpr double kHotKeyFraction = 0.5;

/// Per-shard introspection snapshot.
struct ShardStats {
  ShardId id = kInvalidShard;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  cluster::NodeId node = cluster::kInvalidNode;
  int queue_depth = 0;
  util::Bytes memtable_bytes = 0;
  int generations = 0;
  std::int64_t ops_interval = 0;  // accepted ops since begin_interval()
  bool moving = false;
  bool hot_key_dominated = false;
};

class TabletService {
 public:
  using OpCallback = std::function<void(OpResult)>;

  TabletService(sim::Simulation& sim, net::Fabric& fabric,
                storage::ObjectStore& store,
                std::vector<cluster::NodeId> nodes, TabletConfig config = {});
  TabletService(const TabletService&) = delete;
  TabletService& operator=(const TabletService&) = delete;

  /// Sends one op from `client` to `node` (the owner per the *caller's*
  /// routing table): request transfer, ownership check, bounded queue,
  /// execution. `done` runs on the client after the response transfer.
  /// Use TabletClient for the retrying, cache-refreshing front end.
  void submit(cluster::NodeId node, OpKind kind, std::uint64_t key,
              cluster::NodeId client, OpCallback done,
              trace::SpanId parent = trace::kNoSpan);

  const ShardMap& shard_map() const { return map_; }
  const std::vector<cluster::NodeId>& nodes() const { return nodes_list_; }

  // -- Shard lifecycle (balancer verbs) --------------------------------
  /// Splits `id` at `at`; both halves stay on the owner. False when the
  /// shard is mid-move or `at` is outside its range.
  bool split_shard(ShardId id, std::uint64_t at);
  /// Merges the range-adjacent `right` into `left`; both must sit on
  /// the same node and neither may be mid-move.
  bool merge_shards(ShardId left, ShardId right);
  /// Moves `id` to `target`: bounce the queue, flush, hand off, re-open
  /// — the shard is Unavailable for the whole window (accounted).
  bool move_shard(ShardId id, cluster::NodeId target);
  bool shard_moving(ShardId id) const;
  /// Median key of the shard's recent accesses (the split point that
  /// halves its load); the range midpoint before any access lands.
  std::uint64_t split_point(ShardId id) const;
  bool hot_key_dominated(ShardId id) const;
  /// Accepted ops per shard / node since the last begin_interval().
  std::int64_t shard_ops(ShardId id) const;
  std::int64_t node_ops(cluster::NodeId node) const;
  /// Closes the balancer observation window: resets per-shard op counts
  /// and access samples.
  void begin_interval();

  // -- Node conditions (see fault/wiring.hpp) --------------------------
  /// Written by the fault producers:
  ///  * unreachable (lease expired): the node stops serving and its
  ///    tablets are shed to surviving nodes via recovery re-open (no
  ///    source flush — but every acked write is already WAL-durable).
  ///    The node itself does not learn: its in-flight WAL/flush PUTs
  ///    still carry the old epoch and are fenced by the store. On
  ///    reconnect it may host tablets again and stamps future writes
  ///    with the new epoch;
  ///  * quarantined: drains the node — tablets move off gracefully and
  ///    the balancer stops targeting it until the quarantine lifts;
  ///  * cpu_slowdown: stretches op execution on the node.
  cluster::NodeConditions& conditions() { return conditions_; }
  /// A tablet node that may host tablets: no condition holds it out.
  bool node_serving(cluster::NodeId node) const;

  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  trace::Tracer* tracer() const { return tracer_; }
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }
  std::vector<ShardStats> shard_stats() const;

  // -- Counters ---------------------------------------------------------
  std::int64_t ops_ok() const { return op_count(OpStatus::kOk); }
  std::int64_t not_found() const { return op_count(OpStatus::kNotFound); }
  std::int64_t wrong_shard() const { return op_count(OpStatus::kWrongShard); }
  std::int64_t shed_queue_full() const {
    return op_count(OpStatus::kQueueFull);
  }
  std::int64_t unavailable() const { return op_count(OpStatus::kUnavailable); }
  std::int64_t fenced_writes() const { return op_count(OpStatus::kFenced); }
  std::int64_t dup_writes() const {
    return metrics_.counter("stale_applies_suppressed");
  }
  std::int64_t applied_writes() const { return applied_writes_; }
  std::int64_t memtable_hits() const {
    return metrics_.counter("memtable_hits");
  }
  std::int64_t block_reads() const { return metrics_.counter("block_reads"); }
  std::int64_t flushes() const { return metrics_.counter("flushes"); }
  std::int64_t wal_commits() const { return metrics_.counter("wal_commits"); }
  std::int64_t moves_completed() const {
    return metrics_.counter("moves_completed");
  }
  double move_unavail_seconds() const {
    return static_cast<double>(move_unavail_ns_) / 1e9;
  }

  /// Write audit for tests: with recording on, apply_counts()[seq] is
  /// how many times the write with that seq was applied — the no-loss /
  /// no-duplication invariant is "exactly 1 for every acked seq".
  void record_applies(bool on) { record_applies_ = on; }
  const std::map<std::int64_t, int>& apply_counts() const {
    return apply_counts_;
  }

  /// Cancels age-flush timers (end-of-experiment drain).
  void stop();

 private:
  struct Op {
    OpKind kind = OpKind::kRead;
    std::uint64_t key = 0;
    std::int64_t seq = 0;  // assigned at acceptance (writes)
    cluster::NodeId client = cluster::kInvalidNode;
    util::TimeNs queued_at = 0;
    trace::SpanId span = trace::kNoSpan;
    OpCallback cb;
  };
  struct Generation {
    std::string object;  // bucket-relative name
    util::Bytes bytes = 0;
  };
  struct Tablet {
    ShardId id = kInvalidShard;
    std::deque<Op> queue;
    /// Keys written since the last flush (seq per key) + the sealed
    /// (flushing) snapshot — both serve reads without store I/O.
    std::map<std::uint64_t, std::int64_t> memtable;
    std::map<std::uint64_t, std::int64_t> sealed;
    util::Bytes memtable_bytes = 0;
    std::vector<Generation> gens;
    std::int64_t next_gen = 0;
    bool flushing = false;
    bool moving = false;
    util::TimeNs move_start = 0;
    cluster::NodeId move_target = cluster::kInvalidNode;
    sim::EventId age_timer = 0;
    bool age_armed = false;
    // Balancer observation window.
    std::int64_t ops_interval = 0;
    std::map<std::uint64_t, std::int64_t> access;
  };
  struct PendingWrite {
    std::uint64_t key = 0;
    std::int64_t seq = 0;
    ShardId shard = kInvalidShard;
    cluster::NodeId client = cluster::kInvalidNode;
    trace::SpanId span = trace::kNoSpan;
    OpCallback cb;
  };
  struct NodeState {
    std::int64_t epoch = 1;  // fencing epoch this server stamps PUTs with
    std::vector<ShardId> hosted;  // round-robin order
    std::size_t rr = 0;
    bool busy = false;
    std::vector<PendingWrite> group;  // accumulating WAL group
    bool group_armed = false;
    bool commit_inflight = false;
    std::int64_t wal_objects = 0;
  };

  Tablet& tablet(ShardId id);
  const Tablet& tablet(ShardId id) const;
  NodeState& node(cluster::NodeId id);
  void on_condition(cluster::NodeId node, const cluster::NodeCondition& before,
                    const cluster::NodeCondition& after);
  void shed(cluster::NodeId node);
  void drain(cluster::NodeId node);
  /// Not lease-expired: the server takes ops and stamps its epoch.
  bool serving(cluster::NodeId node) const {
    return !conditions_[node].unreachable;
  }
  void arrive(cluster::NodeId node, Op op);
  void kick(cluster::NodeId node);
  void execute(cluster::NodeId node, ShardId shard, Op op);
  void finish_read(cluster::NodeId node, ShardId shard, Op op);
  void append_wal(cluster::NodeId node, ShardId shard, Op op);
  void commit_wal(cluster::NodeId node);
  void apply_write(const PendingWrite& w);
  void respond(cluster::NodeId from, const Op& op, OpStatus status,
               ShardId shard, bool from_memtable = false);
  void respond_write(cluster::NodeId from, const PendingWrite& w,
                     OpStatus status);
  /// Responses sent with `status` (its `op_<status>` counter).
  std::int64_t op_count(OpStatus status) const;
  void deliver(cluster::NodeId from, cluster::NodeId to, util::Bytes bytes,
               trace::SpanId span, OpResult result, OpCallback cb);
  void maybe_flush(cluster::NodeId node_id, ShardId shard);
  void start_flush(cluster::NodeId node_id, ShardId shard);
  void arm_age_flush(ShardId shard);
  void cancel_age_flush(Tablet& t);
  void bounce_queue(cluster::NodeId node_id, Tablet& t, OpStatus status);
  void finish_move(ShardId id, cluster::NodeId from, cluster::NodeId to);
  /// Least-loaded serving, undrained node other than `except`.
  cluster::NodeId pick_target(cluster::NodeId except) const;
  void host(cluster::NodeId node_id, ShardId shard);
  void unhost(cluster::NodeId node_id, ShardId shard);
  std::string gen_object(ShardId shard, std::int64_t gen) const;

  sim::Simulation& sim_;
  net::Fabric& fabric_;
  storage::ObjectStore& store_;
  std::vector<cluster::NodeId> nodes_list_;
  TabletConfig config_;
  ShardMap map_;
  std::map<ShardId, Tablet> tablets_;
  std::map<cluster::NodeId, NodeState> nodes_;
  cluster::NodeConditions conditions_;
  std::map<std::uint64_t, std::int64_t> applied_seq_;  // key -> last seq
  std::int64_t next_seq_ = 1;
  bool stopped_ = false;
  bool record_applies_ = false;
  std::map<std::int64_t, int> apply_counts_;
  std::int64_t applied_writes_ = 0;
  util::TimeNs move_unavail_ns_ = 0;
  metrics::Registry metrics_;
  trace::Tracer* tracer_ = nullptr;
};

struct ClientConfig {
  int max_attempts = 6;
  /// Wait before a WrongShard/Unavailable retry (on top of the map
  /// fetch).
  util::TimeNs retry_backoff = util::millis(1);
};

/// Cost of refreshing the cached shard map from the control plane.
inline constexpr util::TimeNs kMapFetchLatency = util::micros(500);

/// The routing front end: holds a cached, epoch-stamped snapshot of the
/// shard map and routes ops to the owner it *believes* is right. On
/// WrongShard/Unavailable it refreshes the snapshot (paying the fetch
/// latency) and retries, up to max_attempts. Draws no random numbers.
class TabletClient {
 public:
  TabletClient(sim::Simulation& sim, TabletService& service,
               ClientConfig config = {});
  TabletClient(const TabletClient&) = delete;
  TabletClient& operator=(const TabletClient&) = delete;

  void submit(OpKind kind, std::uint64_t key, cluster::NodeId client,
              TabletService::OpCallback done);
  /// serve-layer integration: routes a keyed serve::Request.
  void submit(const serve::Request& req, OpKind kind,
              TabletService::OpCallback done);

  /// Synchronously re-snapshots the authoritative map (tests).
  void refresh_now();
  std::int64_t cached_epoch() const { return cache_epoch_; }
  std::int64_t wrong_shard_retries() const { return wrong_shard_retries_; }
  std::int64_t unavailable_retries() const { return unavailable_retries_; }
  /// Ops that ran out of attempts (surfaced to the caller as-is).
  std::int64_t exhausted() const { return exhausted_; }

 private:
  struct Pending {
    OpKind kind = OpKind::kRead;
    std::uint64_t key = 0;
    cluster::NodeId client = cluster::kInvalidNode;
    int attempts = 0;
    trace::SpanId span = trace::kNoSpan;
    TabletService::OpCallback done;
  };

  void route(Pending p);
  cluster::NodeId cached_owner(std::uint64_t key) const;

  sim::Simulation& sim_;
  TabletService& service_;
  ClientConfig config_;
  std::vector<ShardInfo> cache_;
  std::int64_t cache_epoch_ = 0;
  std::int64_t wrong_shard_retries_ = 0;
  std::int64_t unavailable_retries_ = 0;
  std::int64_t exhausted_ = 0;
};

}  // namespace evolve::tablet
