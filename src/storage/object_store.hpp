// H3-style distributed object store over the simulated cluster.
//
// Buckets hold named objects. Objects are placed on storage servers by
// rendezvous (HRW) hashing with R-way replication or k+m erasure
// coding; placement is failure-domain aware by default: the HRW order
// is filtered so no rack holds more than ceil(copies / live racks)
// copies/fragments of one object, which is what lets an EC stripe
// survive a whole-rack outage. Every server runs a tiered cache: the
// durable home of an object is the server's slowest device; faster
// devices act as read caches. Every read is one k-of-n fetch: a
// replicated GET or block read takes the replica closest to the client
// (same node, then same rack); an erasure-coded GET reads k surviving
// fragments, data before parity and nearest first, and reconstructs
// through parity when data fragments are dead or fail their checksum.
//
// All data movement goes through the shared network fabric and the
// per-device queues, so storage traffic contends with shuffle and
// collective traffic — the central "converged storage" property of EVOLVE.
//
// The API names objects by ObjectKey; below it everything runs on dense
// ObjectIds. Each public call resolves its key once through the key
// index, and the op state, caches and repair queue carry the id.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/conditions.hpp"
#include "metrics/registry.hpp"
#include "metrics/timeseries.hpp"
#include "net/fabric.hpp"
#include "sim/simulation.hpp"
#include "storage/io_model.hpp"
#include "storage/object_key.hpp"
#include "storage/tiered_cache.hpp"
#include "trace/tracer.hpp"
#include "util/rng.hpp"
#include "util/slot_table.hpp"
#include "util/small_fn.hpp"
#include "util/types.hpp"

namespace evolve::storage {

enum class Redundancy {
  kReplication,  // R full copies
  kErasure,      // k data + m parity fragments (Reed-Solomon-style)
};

struct ObjectStoreConfig {
  Redundancy redundancy = Redundancy::kReplication;
  int replicas = 2;        // replication factor (kReplication)
  /// k (kErasure): any k of the k+m fragments reconstruct the object.
  /// An object stays readable while at most m fragments are dead; it is
  /// permanently lost only when MORE than m fragments are gone.
  int ec_data = 4;
  /// m (kErasure): parity fragments, i.e. how many fragment deaths a
  /// stripe tolerates. m dead = still recoverable; m+1 dead = lost.
  int ec_parity = 2;
  /// Failure-domain-aware placement: walk the HRW ranking but skip
  /// servers whose rack already holds ceil(copies / live racks)
  /// copies/fragments of this object (relaxed only when infeasible).
  /// Applies to replication and erasure coding alike. Disable to get
  /// the rack-oblivious pure-HRW placement (for A/B durability runs).
  bool rack_aware_placement = true;
  // Fraction of each cache device actually granted to the store
  // (the rest is left to co-located applications).
  double cache_capacity_fraction = 1.0;

  // -- Failure handling / background repair --------------------------
  /// Re-replicate degraded objects onto surviving servers after a crash.
  bool repair = true;
  /// Concurrent repair transfers.
  int repair_concurrency = 2;
  /// Grace delay between detecting a degraded object and repairing it
  /// (models failure-detection + repair-scheduling lag).
  util::TimeNs repair_delay = util::millis(500);
  /// Aggregate admission cap for background rebuild traffic in bytes/s
  /// (the fabric bytes a repair injects: one copy for replication, k
  /// fragments for an EC reconstruction). Repairs whose admission would
  /// exceed the cap wait in their concurrency slot, so a rebuild storm
  /// can be throttled below foreground GET/PUT traffic. 0 = unthrottled.
  double rebuild_bandwidth_bytes_per_s = 0;
  /// Seeded jitter fraction on repair scheduling delays (the detection
  /// grace and the post-recovery re-scan pumps): each delay stretches by
  /// uniform [0, repair_jitter)·delay, desynchronizing the repair wave
  /// that mass recovery or a partition heal would otherwise fire all at
  /// once. 0 (default) = no jitter, bit-identical to the old behavior.
  double repair_jitter = 0.0;
  /// Seed for the repair-jitter RNG.
  std::uint64_t repair_seed = 1;

  // -- Gray-failure mitigation (GET path) ------------------------------
  /// Hedged reads: if the first replica read is still outstanding after
  /// a p-quantile-based delay, fire a second read at another replica;
  /// the first finisher wins and the loser is cancelled and accounted.
  /// On erasure-coded GETs the hedge fires one extra fragment read at
  /// an unused surviving fragment, covering the straggler fragment.
  bool hedged_reads = false;
  /// Hedge delay floor, also used until the GET latency histogram has
  /// enough observations to take its p95 from (metrics::hedge_delay).
  util::TimeNs hedge_min_delay = util::millis(2);
  /// Verify payload checksums at read time: a corrupted replica is
  /// never surfaced — the read transparently fails over to a clean
  /// replica and the bad copy is dropped and queued for repair.
  bool checksum_reads = false;
  /// Background scrubber: periodically verifies stored replicas and
  /// routes corrupted ones into the repair path. Runs only while
  /// corruption exists, so the simulation still drains.
  bool scrub = false;
  util::TimeNs scrub_interval = util::millis(500);

  /// Storage overhead factor: durable bytes per logical byte.
  double storage_overhead() const {
    return redundancy == Redundancy::kReplication
               ? static_cast<double>(replicas)
               : static_cast<double>(ec_data + ec_parity) / ec_data;
  }
};

struct GetResult {
  bool found = false;
  util::Bytes size = 0;
  cluster::NodeId served_by = cluster::kInvalidNode;
  /// Device tier name the read was served from ("dram", "nvme", "hdd").
  std::string tier;
  /// The payload failed its checksum. Only ever true with
  /// `checksum_reads` off — verified reads fail over to a clean replica
  /// (or report not-found) instead of surfacing corruption.
  bool corrupted = false;
  bool hedged = false;     // a hedge read was fired for this GET
  bool hedge_won = false;  // ... and the hedge replica/fragment was used
  /// The read ran below full redundancy: a replication GET against an
  /// under-replicated object, or an EC GET that could not use the k
  /// data fragments and reconstructed through parity.
  bool degraded = false;
  /// EC only: parity fragments in the read set (0 on a clean read).
  int parity_fragments_used = 0;
};

/// Snapshot of redundancy health across all objects. Permanent loss is
/// defined per redundancy scheme: for replication an object is lost
/// when zero live replicas remain; for erasure coding it is lost only
/// when more than m fragments are dead (m dead = still recoverable by
/// any k of the survivors, m+1 dead = unrecoverable).
struct DurabilityStats {
  int objects_full = 0;      // at placed redundancy
  int objects_degraded = 0;  // readable, but fragments/replicas missing
  int objects_lost = 0;      // currently unreadable (> m fragments dead)
  /// Fragments/replicas missing from degraded (still-readable) objects;
  /// what the rebuild queue still owes.
  int missing_fragments = 0;
  /// Time integral of `missing_fragments` (fragment-seconds at risk) —
  /// the EC analogue of under-replicated object-seconds.
  double at_risk_fragment_seconds = 0;
  std::int64_t objects_lost_total = 0;  // cumulative loss transitions
};

using PutCallback = util::SmallFn<void()>;
using GetCallback = util::SmallFn<void(const GetResult&)>;

class ObjectStore {
 public:
  /// `servers`: nodes that act as storage servers. Each must have at
  /// least one device; the slowest (last) device is the durable home.
  ObjectStore(sim::Simulation& sim, const cluster::Cluster& cluster,
              net::Fabric& fabric, IoSubsystem& io,
              std::vector<cluster::NodeId> servers,
              ObjectStoreConfig config = {});

  void create_bucket(const std::string& bucket);
  bool bucket_exists(const std::string& bucket) const;

  /// Writes an object of `size` bytes from `client`. Completes when all
  /// replicas are durable.
  void put(cluster::NodeId client, const ObjectKey& key, util::Bytes size,
           PutCallback on_done);

  /// Reads an object to `client`. Completes when the last byte arrives.
  void get(cluster::NodeId client, const ObjectKey& key, GetCallback on_done);

  /// Reads `bytes` of `key`'s payload to `client` — the point-read path
  /// stateful layers use (tablet block/index reads against a flushed
  /// generation): one replica chosen by proximity, tier-aware device
  /// read, checksum failover, and a fabric transfer of only the block,
  /// never the whole object. No hedging; never admits into the cache.
  /// Replicated stores only: on an erasure-coded store a fragment holds
  /// no whole block, so this throws std::invalid_argument.
  void read_block(cluster::NodeId client, const ObjectKey& key,
                  util::Bytes bytes, GetCallback on_done);

  /// Installs an object instantly (no simulated time): metadata, durable
  /// bytes on every replica, and optional cache admission. Benchmarks use
  /// this to stage input datasets without simulating the ingest.
  void preload(const ObjectKey& key, util::Bytes size, bool warm_cache = false);

  /// Deletes an object (metadata-latency cost).
  void remove(cluster::NodeId client, const ObjectKey& key,
              PutCallback on_done);

  bool exists(const ObjectKey& key) const;
  std::optional<util::Bytes> object_size(const ObjectKey& key) const;

  /// Attaches a span tracer: GET/PUT/repair become kStorage spans (with
  /// the serving tier as an attribute). Null disables.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Names of objects in a bucket with the given prefix, sorted.
  std::vector<std::string> list(const std::string& bucket,
                                const std::string& prefix = "") const;

  /// Replica servers for a key (primary first). Exposed so the dataflow
  /// engine can do locality-aware task placement.
  std::vector<cluster::NodeId> locate(const ObjectKey& key) const;

  const std::vector<cluster::NodeId>& servers() const { return servers_; }
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

  /// Total durable bytes on one server.
  util::Bytes durable_bytes(cluster::NodeId server) const;

  /// The cache of one server (tests/benchmarks inspect hit ratios).
  const TieredCache& cache(cluster::NodeId server) const;

  // -- Failure handling ------------------------------------------------
  /// Node conditions, written by the fault producers:
  ///  * down: a storage server crashes with media loss: its replicas
  ///    vanish, its cache is wiped, and every degraded-but-readable
  ///    object is queued for background re-replication onto surviving
  ///    servers. An object is permanently lost only when its last
  ///    replica died (replication) or more than m of its fragments are
  ///    dead (erasure coding; losing exactly m still reconstructs): GETs
  ///    then return not-found, but metadata stays so callers can observe
  ///    it. Recovery: the server rejoins EMPTY (cold cache, no replicas)
  ///    and becomes a repair target again; stalled repairs re-arm. Other
  ///    nodes' crashes change nothing here.
  ///  * unreachable with its epoch (a lease expiry): the node is fenced
  ///    at that epoch. A node on the far side of a partition keeps
  ///    running with its old epoch; once fenced, its writes are zombie
  ///    writes and put_fenced rejects them.
  cluster::NodeConditions& conditions() { return conditions_; }
  /// False only for a storage server that is down.
  bool server_alive(cluster::NodeId node) const {
    return find_state(node) == nullptr || !conditions_[node].down;
  }

  const ObjectStoreConfig& config() const { return config_; }

  // -- Fencing (zombie-write rejection) --------------------------------
  /// Epoch-stamped PUT. Returns false — synchronously, without invoking
  /// `on_done` or moving any bytes — when `epoch` is below the client's
  /// fence epoch; otherwise behaves exactly like put() and returns true.
  bool put_fenced(cluster::NodeId client, std::int64_t epoch,
                  const ObjectKey& key, util::Bytes size, PutCallback on_done);
  /// Minimum epoch `node` must present (1 = never fenced).
  std::int64_t fence_epoch(cluster::NodeId node) const {
    return conditions_[node].epoch;
  }
  std::int64_t writes_fenced() const {
    return metrics_.counter("writes_fenced");
  }

  // -- Gray failures: silent corruption -------------------------------
  /// Marks one stored replica as bit-rotten: its payload no longer
  /// matches its checksum. Returns false if `server` holds no replica
  /// of `key`. Replication-path objects only.
  bool corrupt_replica(const ObjectKey& key, cluster::NodeId server);
  /// Corrupts up to `count` randomly chosen stored replicas (seeded,
  /// deterministic). With `spare_last_clean` an object's last clean
  /// replica is never corrupted, so data stays recoverable. Returns how
  /// many replicas were actually corrupted.
  int corrupt_random_replicas(std::uint64_t seed, int count,
                              bool spare_last_clean = true);
  bool replica_corrupted(const ObjectKey& key, cluster::NodeId server) const;
  int corrupted_replica_count() const {
    return static_cast<int>(corrupted_replicas_.size());
  }

  // Hedge / checksum / scrub statistics.
  std::int64_t hedges_launched() const {
    return metrics_.counter("hedges_launched");
  }
  std::int64_t hedge_wins() const { return metrics_.counter("hedge_wins"); }
  std::int64_t hedges_cancelled() const {
    return metrics_.counter("hedges_cancelled");
  }
  util::Bytes hedge_wasted_bytes() const {
    return metrics_.counter("hedge_wasted_bytes");
  }
  std::int64_t checksum_failures() const {
    return metrics_.counter("checksum_failures");
  }
  std::int64_t corrupted_reads_surfaced() const {
    return metrics_.counter("corrupted_reads_surfaced");
  }
  std::int64_t replicas_scrubbed() const {
    return metrics_.counter("replicas_scrubbed");
  }

  /// Objects currently holding fewer live replicas/fragments than
  /// placed, but still readable.
  int under_replicated_objects() const {
    return static_cast<int>(underrep_.current());
  }
  /// Objects that became permanently unreadable (cumulative).
  int lost_objects() const {
    return static_cast<int>(metrics_.counter("objects_lost"));
  }
  /// Time-weighted integral of under-replicated objects (object·s).
  double under_replicated_object_seconds() const {
    return underrep_.integral(sim_.now()) / 1e9;
  }
  /// Time-weighted integral of missing fragments/replicas on degraded
  /// objects (fragment·s) — how long data sat one step closer to loss.
  double at_risk_fragment_seconds() const {
    return at_risk_.integral(sim_.now()) / 1e9;
  }
  /// Current + cumulative durability snapshot (see DurabilityStats).
  DurabilityStats durability_stats() const;
  /// Total time repairs spent waiting on the rebuild bandwidth cap.
  double rebuild_throttle_wait_seconds() const {
    return static_cast<double>(rebuild_throttle_wait_ns_) / 1e9;
  }
  /// Durable bytes `server` should hold according to live metadata —
  /// conservation check for tests (valid once transfers have drained).
  util::Bytes expected_durable_bytes(cluster::NodeId server) const;

 private:
  static constexpr ObjectId kNoObject = ~ObjectId{0};

  /// An object id that sorts by its object's key. The sets whose walks
  /// reach simulated behaviour (the repair order, the stalled repairs and
  /// the corruption sets) hold these, so they visit objects in ObjectKey
  /// order. One key is one id, so equal ids need no string compare.
  struct KeyedId {
    const ObjectKey* key;
    ObjectId id;
    bool operator<(const KeyedId& other) const {
      return id != other.id && *key < *other.key;
    }
  };
  /// Pending repairs, drained risk-first: the object with the fewest
  /// surviving spare copies (an EC stripe one fragment from loss) is
  /// repaired before a freshly degraded one, ties in key order. Indexed
  /// by (live copies, key), with -1 for an absent object; every
  /// replica-set change re-keys its entry. Stale entries (absent, lost
  /// or full) stay until the next pump trims them from the two ends
  /// (DESIGN §13).
  using RepairOrder = std::set<std::pair<int, KeyedId>>;

  /// One slot per id, assigned on the key's first put or preload. A
  /// removed object keeps its slot (and its repair-queue entry) with
  /// `live` false, so a late fragment, repair or queue entry still finds
  /// the same object its key named.
  struct ObjectMeta {
    const ObjectKey* key = nullptr;  // its ids_ entry; map nodes never move
    std::uint64_t key_hash = 0;      // rendezvous hash of *key
    bool live = false;               // stored now: put and not removed since
    util::Bytes size = 0;
    /// Durable bytes held per server (== size for replication, the
    /// fragment size for erasure coding).
    util::Bytes per_server_bytes = 0;
    std::vector<cluster::NodeId> replicas;  // live holders, primary first
    /// Fragment id held by replicas[i] (parallel to `replicas`). For
    /// erasure coding ids 0..k-1 are data fragments and k..k+m-1 are
    /// parity; a read set that is not exactly {0..k-1} reconstructs.
    /// For replication the ids merely label copies.
    std::vector<int> fragments;
    /// Bumped on every replica-set change; in-flight repairs abandon
    /// their result when the version moved under them.
    int version = 0;
    bool queued = false;            // has an entry in repair_order_ ...
    RepairOrder::iterator queued_at;  // ... here
  };

  enum class Health { kFull, kDegraded, kLost };

  /// The id of `key`, or kNoObject when it was never stored.
  ObjectId find_id(const ObjectKey& key) const;
  /// The id of `key` if it is stored now, else kNoObject.
  ObjectId find_live(const ObjectKey& key) const;
  /// Gives `key` (absent from ids_, which holds `hint` as its lower
  /// bound) the next id, with its rendezvous hash.
  ObjectId add_key(std::map<ObjectKey, ObjectId>::iterator hint,
                   const ObjectKey& key);
  KeyedId keyed(ObjectId id) const { return {objects_[id].key, id}; }
  /// Installs a fresh replica set from `replicas` (fragment ids in
  /// order), marks the object live, and starts its health accounting.
  void install(ObjectId id, const std::vector<cluster::NodeId>& replicas,
               util::Bytes size, int version);

  /// Durable bytes one server holds for an object of `size`.
  util::Bytes per_server_bytes(util::Bytes size) const;
  struct ServerState {
    cluster::NodeId node = cluster::kInvalidNode;
    std::unique_ptr<TieredCache> cache;  // fast tiers only
    /// Queue of the durable device (the server's slowest).
    DeviceQueue* durable = nullptr;
    /// Where this server's cache-tier queues start in tier_devices_.
    std::size_t first_tier = 0;
    util::Bytes durable_used = 0;
  };
  void on_condition(cluster::NodeId node, const cluster::NodeCondition& before,
                    const cluster::NodeCondition& after);
  void handle_node_failure(ServerState& state);
  void handle_node_recovery();
  /// The state of `node`, or null when it is not a storage server.
  ServerState* find_state(cluster::NodeId node) {
    if (node < 0 || static_cast<std::size_t>(node) >= state_of_.size()) {
      return nullptr;
    }
    const int index = state_of_[static_cast<std::size_t>(node)];
    return index < 0 ? nullptr
                     : &server_states_[static_cast<std::size_t>(index)];
  }
  const ServerState* find_state(cluster::NodeId node) const {
    return const_cast<ObjectStore*>(this)->find_state(node);
  }
  /// The state of `node`; throws std::out_of_range for other nodes.
  ServerState& server_state(cluster::NodeId node);
  const ServerState& server_state(cluster::NodeId node) const;

  /// Writes `size` bytes of object `id` durably on `server`, then
  /// `on_done`. A server outside a live object's replica set takes
  /// nothing; a removed object's late fragment is charged (balancing the
  /// remove) but never admitted into the cache.
  void write_durable(cluster::NodeId server, ObjectId id, util::Bytes size,
                     util::SmallFn<void()> on_done);

  /// One PUT in flight, shared by its fragments: each fragment's events
  /// carry the slot index, not a copy of the key, placement or callback.
  struct PutOp {
    ObjectId id = kNoObject;
    cluster::NodeId client = cluster::kInvalidNode;
    util::Bytes size = 0;
    util::Bytes per_server = 0;
    int remaining = 0;  // fragments not yet durable
    util::TimeNs start = 0;
    trace::SpanId span = trace::kNoSpan;
    PutCallback cb;
    std::vector<cluster::NodeId> replicas;  // placement at put time
  };
  using PutSlot = util::SlotTable<PutOp>::Id;
  /// The body travels client -> primary (then the encode, for EC) ...
  void put_send(PutSlot op);
  /// ... the primary fans each server's payload out ...
  void put_fan_out(PutSlot op);
  /// ... and the last durable fragment completes the PUT.
  void put_landed(PutSlot op);

  /// How near a holder is to a reader: 0 same node, 1 same rack, 2 other.
  int proximity(cluster::NodeId holder, cluster::NodeId reader) const;

  /// One object read, shared by get() and read_block(): branches fetch
  /// `branch_bytes` each from distinct holders, and the read completes
  /// once `k` of them have landed at the client. A replicated GET or a
  /// block read is the k = 1 case; an erasure-coded GET needs k = ec_data
  /// fragments and then decodes. A branch picks its tier, reads the
  /// device, verifies the checksum (failing over to an untried clean
  /// holder) and ships its bytes. One hedge branch may cover a straggler;
  /// stragglers still running at completion are cancelled.
  struct Fetch {
    struct Branch {
      cluster::NodeId server = cluster::kInvalidNode;
      bool parity = false;  // EC parity fragment: the decode reconstructs
      bool hedge = false;
      bool rotten = false;  // shipped a payload that fails its checksum
      bool landed = false;
      bool flow_active = false;
      net::FlowId flow = 0;
      DeviceQueue* device = nullptr;  // the tier the branch reads from
    };
    // The plan: plain data fixed when the read starts.
    ObjectId id = kNoObject;
    cluster::NodeId client = cluster::kInvalidNode;
    util::Bytes size = 0;          // bytes the caller is told it got
    util::Bytes branch_bytes = 0;  // bytes every branch reads and ships
    int k = 1;                     // landings that complete the read
    bool block = false;     // point read: block_read_* metrics, and a
                            // cache miss only peeks (else it admits)
    bool hedge = false;     // a hedge branch may fire
    bool degraded = false;  // the object was below placement at start
    util::TimeNs decode_ns = 0;       // EC: decode after k landings ...
    util::TimeNs reconstruct_ns = 0;  // ... plus this when parity landed
    // Progress.
    util::TimeNs start = 0;
    trace::SpanId span = trace::kNoSpan;
    trace::SpanId hedge_span = trace::kNoSpan;
    GetCallback cb;
    bool done = false;
    bool hedged = false;
    int waiting = 0;   // landings still required
    int inflight = 0;  // live branches, a not-yet-launched primary included
    std::vector<Branch> branches;  // every holder tried, in launch order
    GetResult result;              // what the k-th landing delivers
  };
  /// Plans the read (`block` > 0 reads that many bytes, else the whole
  /// object), launches the first k branches and arms the hedge.
  void start_fetch(cluster::NodeId client, const ObjectKey& key,
                   util::Bytes block, GetCallback on_done);
  /// Starts one branch against `server` (holding `fragment`): tier
  /// selection, device read, checksum failover, then the transfer.
  void launch_branch(const std::shared_ptr<Fetch>& fetch,
                     cluster::NodeId server, int fragment, bool hedge);
  /// A branch's bytes arrived; the k-th landing completes the read.
  void branch_landed(const std::shared_ptr<Fetch>& fetch,
                     std::size_t branch);
  /// A branch found no clean holder left to fail over to: the read
  /// reports not-found once fewer than the missing landings remain live.
  void branch_abandoned(const std::shared_ptr<Fetch>& fetch);

  bool replica_corrupted(ObjectId id, cluster::NodeId server) const {
    return !corrupted_replicas_.empty() &&
           corrupted_replicas_.count({keyed(id), server}) != 0;
  }
  /// Drops a corrupted replica from its object's replica set and queues
  /// re-replication (the checksum-detected analogue of a media crash).
  void drop_corrupted_replica(ObjectId id, cluster::NodeId server);
  void purge_corrupted(ObjectId id);
  void arm_scrub();
  void scrub_pass();
  /// Replicas/fragments the object should hold (capped by server count).
  int placed_copies() const;
  /// Live copies below which the object is unreadable (1 or k).
  int min_live_copies() const;
  Health health(const ObjectMeta& meta) const;
  /// Missing fragments/replicas a degraded object owes the rebuild
  /// queue (0 when full or lost).
  int at_risk_fragments(const ObjectMeta& meta) const;
  /// All live servers ranked by rendezvous hash for a key of hash
  /// `key_hash`, in a scratch vector that the next call overwrites.
  const std::vector<cluster::NodeId>& ranked_servers(
      std::uint64_t key_hash) const;
  /// Per-rack copy cap for `copies` spread over the racks of `ranked`:
  /// ceil(copies / distinct racks).
  int rack_cap(const std::vector<cluster::NodeId>& ranked, int copies) const;
  /// Placement scratch count for `node`'s rack.
  int& rack_load(cluster::NodeId node) const {
    return rack_load_[static_cast<std::size_t>(cluster_.node(node).rack)];
  }
  /// HRW ranking filtered by the per-rack placement cap (when enabled):
  /// `out` becomes the first placed_copies() entries, where a key of
  /// hash `key_hash` goes.
  void place_copies(std::uint64_t key_hash,
                    std::vector<cluster::NodeId>& out) const;
  /// Appends servers of `ranked` (HRW order) that `out` does not hold
  /// until it has `count`. With rack-aware placement no rack may exceed
  /// rack_cap(ranked, copies) servers of `out`, the ones it already held
  /// included; uneven rack sizes can make that infeasible, so the rest
  /// is topped up in plain HRW order.
  void extend_placement(const std::vector<cluster::NodeId>& ranked,
                        int copies, std::size_t count,
                        std::vector<cluster::NodeId>& out) const;
  /// Applies `delta` to the under-replicated object count at now.
  void shift_underrep(int delta);
  /// Same for the missing-fragment (at-risk) count.
  void shift_at_risk(int delta);
  /// Applies a replica-set health transition: under-replication and
  /// at-risk accounting, loss counting, and repair queueing.
  void note_health_change(ObjectId id, Health before, int risk_before);
  void enqueue_repair(ObjectId id);
  /// Live copies `id` is indexed under in the repair queue: its replica
  /// count, or -1 when the object is absent.
  int queued_count(ObjectId id) const;
  /// Re-keys a queued repair entry to queued_count(id) after a replica
  /// set, put or remove changed it; no-op for unqueued objects.
  void requeue(ObjectId id);
  void pump_repairs();
  /// Claims a concurrency slot and (if capped) waits out the rebuild
  /// bandwidth admission before starting the transfers.
  void start_repair(ObjectId id);
  void begin_repair_transfers(ObjectId id, int version);
  /// One repair's transfers in flight: k source reads feed one target.
  struct RepairOp {
    ObjectId id = kNoObject;
    cluster::NodeId target = cluster::kInvalidNode;
    int version = 0;
    int remaining = 0;  // source fragments not yet at the target
    util::Bytes fragment = 0;
    util::TimeNs decode_ns = 0;
    trace::SpanId span = trace::kNoSpan;
  };
  using RepairSlot = util::SlotTable<RepairOp>::Id;
  /// A source fragment arrived; the last one decodes, then persists.
  void repair_landed(RepairSlot op);
  void finish_repair(ObjectId id, cluster::NodeId target, int version);

  sim::Simulation& sim_;
  const cluster::Cluster& cluster_;
  net::Fabric& fabric_;
  IoSubsystem& io_;
  std::vector<cluster::NodeId> servers_;
  ObjectStoreConfig config_;
  std::map<std::string, bool> buckets_;
  /// The key index: every key ever stored, with its id, in ObjectKey
  /// order (so walking it visits objects in key order). Keys with the
  /// same full() are one entry, hence one id.
  std::map<ObjectKey, ObjectId> ids_;
  std::vector<ObjectMeta> objects_;  // by id
  util::SlotTable<PutOp> puts_;
  util::SlotTable<RepairOp> repairs_;
  std::vector<ServerState> server_states_;  // one per distinct server
  std::vector<int> state_of_;  // index into server_states_ by node id, or -1
  /// Cache-tier device queues of every server, contiguous per server.
  /// IoSubsystem's queues never move, so the pointers stay valid.
  std::vector<DeviceQueue*> tier_devices_;
  /// Placement scratch: (hash, server) pairs, then the ranked servers.
  mutable std::vector<std::pair<std::uint64_t, cluster::NodeId>> rank_keys_;
  mutable std::vector<cluster::NodeId> ranked_;
  /// Copies per rack id while placing; all zero between calls.
  mutable std::vector<int> rack_load_;
  std::vector<cluster::NodeId> placement_;  // preload, repair targets
  std::vector<cluster::NodeId> repair_sources_;  // begin_repair_transfers
  /// Scratch for per-tier metric names ("get_tier_<device>").
  std::string metric_name_;
  // Failure/repair state.
  RepairOrder repair_order_;
  std::set<KeyedId> repair_stalled_;  // no live target; retry on recovery
  int repairs_in_flight_ = 0;
  /// Token-bucket edge for the rebuild bandwidth cap: the sim time at
  /// which the next repair's fabric bytes may be admitted.
  util::TimeNs rebuild_admit_at_ = 0;
  util::TimeNs rebuild_throttle_wait_ns_ = 0;
  util::Rng repair_rng_;  // repair-delay jitter (config.repair_seed)
  cluster::NodeConditions conditions_;
  // Gray-failure state: replicas whose stored payload is bit-rotten, in
  // (key, server) order.
  std::set<std::pair<KeyedId, cluster::NodeId>> corrupted_replicas_;
  /// Entries under scrub verification right now (subset of the above;
  /// they stay corrupted until the verification read completes).
  std::set<std::pair<KeyedId, cluster::NodeId>> scrub_inflight_;
  bool scrub_armed_ = false;
  metrics::UsageTracker underrep_;  // under-replicated objects
  metrics::UsageTracker at_risk_;   // missing fragments on degraded objects
  metrics::Registry metrics_;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace evolve::storage
