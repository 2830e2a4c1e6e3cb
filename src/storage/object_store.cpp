#include "storage/object_store.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "util/backoff.hpp"
#include "util/rng.hpp"

namespace evolve::storage {

namespace {

/// Encode/decode compute cost charged at the coordinating server (PUT)
/// or the reading client (GET stripe assembly).
constexpr double kEcNsPerByte = 0.3;
/// Extra per-logical-byte decode cost when a GET has to reconstruct
/// through parity (some fragment in the read set is not a data
/// fragment) — the modeled Reed-Solomon recovery math.
constexpr double kEcReconstructNsPerByte = 0.5;
constexpr util::TimeNs kMetadataLatency = util::micros(200);
/// GET latency samples before hedging takes the p95 over the floor.
constexpr int kHedgeMinSamples = 20;
/// Replicas verified per scrub pass (bounds scrub I/O per interval).
constexpr int kScrubReplicasPerPass = 64;

/// Stateless 64-bit mix for rendezvous hashing.
std::uint64_t mix_hash(std::uint64_t seed) {
  return util::splitmix64(seed);
}

/// FNV-1a over key.full(), then a SplitMix finalizer for avalanche.
std::uint64_t key_hash(const ObjectKey& key) { return mix_hash(key.fnv1a()); }

/// Index into `holders` of the best one no branch in `tried` has read
/// yet: the lowest non-negative `rank(i)`, first in holder order among
/// equals. A negative rank rules a holder out; -1 when none is left. The
/// scan stops at the first rank of 0, so ranks are computed only as far
/// as needed.
template <typename Branches, typename Rank>
int untried_holder(const std::vector<cluster::NodeId>& holders,
                   const Branches& tried, Rank rank) {
  int best = -1;
  int best_rank = 0;
  for (std::size_t i = 0; i < holders.size(); ++i) {
    if (std::any_of(tried.begin(), tried.end(), [&](const auto& branch) {
          return branch.server == holders[i];
        })) {
      continue;
    }
    const int r = rank(i);
    if (r < 0 || (best >= 0 && r >= best_rank)) continue;
    best = static_cast<int>(i);
    best_rank = r;
    if (r == 0) break;
  }
  return best;
}

}  // namespace

ObjectStore::ObjectStore(sim::Simulation& sim,
                         const cluster::Cluster& cluster, net::Fabric& fabric,
                         IoSubsystem& io, std::vector<cluster::NodeId> servers,
                         ObjectStoreConfig config)
    : sim_(sim),
      cluster_(cluster),
      fabric_(fabric),
      io_(io),
      servers_(std::move(servers)),
      config_(config),
      repair_rng_(config.repair_seed),
      conditions_([this](cluster::NodeId node,
                         const cluster::NodeCondition& before,
                         const cluster::NodeCondition& after) {
        on_condition(node, before, after);
      }) {
  if (servers_.empty()) {
    throw std::invalid_argument("object store needs at least one server");
  }
  if (config_.replicas < 1) {
    throw std::invalid_argument("replicas must be >= 1");
  }
  if (config_.redundancy == Redundancy::kErasure) {
    if (config_.ec_data < 1 || config_.ec_parity < 0) {
      throw std::invalid_argument("bad erasure-coding parameters");
    }
    if (config_.ec_data + config_.ec_parity >
        static_cast<int>(servers_.size())) {
      throw std::invalid_argument(
          "erasure coding needs at least k+m storage servers");
    }
  }
  if (config_.cache_capacity_fraction <= 0 ||
      config_.cache_capacity_fraction > 1.0) {
    throw std::invalid_argument("cache_capacity_fraction must be in (0, 1]");
  }
  // Every server has max(1, devices - 1) cache tiers.
  std::size_t tier_count = 0;
  int max_rack = 0;
  for (cluster::NodeId node : servers_) {
    const auto& spec = cluster_.node(node);
    if (spec.devices.empty()) {
      throw std::invalid_argument("storage server '" + spec.name +
                                  "' has no devices");
    }
    tier_count += std::max<std::size_t>(1, spec.devices.size() - 1);
    max_rack = std::max(max_rack, spec.rack);
  }
  tier_devices_.reserve(tier_count);
  rack_load_.assign(static_cast<std::size_t>(max_rack) + 1, 0);
  server_states_.reserve(servers_.size());
  state_of_.assign(static_cast<std::size_t>(cluster_.size()), -1);
  for (cluster::NodeId node : servers_) {
    int& index = state_of_[static_cast<std::size_t>(node)];
    if (index >= 0) continue;  // listed twice
    index = static_cast<int>(server_states_.size());
    const auto& spec = cluster_.node(node);
    ServerState state;
    state.node = node;
    state.durable = &io_.device(node, spec.devices.back().name);
    state.first_tier = tier_devices_.size();
    std::vector<TierConfig> tiers;
    tiers.reserve(std::max<std::size_t>(1, spec.devices.size() - 1));
    for (std::size_t i = 0; i + 1 < spec.devices.size(); ++i) {
      tiers.push_back(TierConfig{
          spec.devices[i].name,
          static_cast<util::Bytes>(
              static_cast<double>(spec.devices[i].capacity) *
              config_.cache_capacity_fraction)});
      tier_devices_.push_back(&io_.device(node, spec.devices[i].name));
    }
    if (tiers.empty()) {
      // Single-device server: the durable device is also the only "cache".
      tiers.push_back(TierConfig{spec.devices.back().name, 0});
      tier_devices_.push_back(state.durable);
    }
    state.cache = std::make_unique<TieredCache>(std::move(tiers));
    server_states_.push_back(std::move(state));
  }
}

ObjectStore::ServerState& ObjectStore::server_state(cluster::NodeId node) {
  ServerState* state = find_state(node);
  if (state == nullptr) {
    throw std::out_of_range("node is not a storage server");
  }
  return *state;
}

const ObjectStore::ServerState& ObjectStore::server_state(
    cluster::NodeId node) const {
  return const_cast<ObjectStore*>(this)->server_state(node);
}

void ObjectStore::create_bucket(const std::string& bucket) {
  if (bucket.empty()) throw std::invalid_argument("empty bucket name");
  buckets_[bucket] = true;
}

bool ObjectStore::bucket_exists(const std::string& bucket) const {
  return buckets_.count(bucket) != 0;
}

const std::vector<cluster::NodeId>& ObjectStore::ranked_servers(
    const ObjectKey& key) const {
  // Rendezvous hashing: rank live servers by hash(key, server).
  rank_keys_.clear();
  const std::uint64_t kh = key_hash(key);
  for (cluster::NodeId node : servers_) {
    if (!server_alive(node)) continue;
    rank_keys_.emplace_back(
        mix_hash(kh ^ (0x9e3779b97f4a7c15ULL *
                       static_cast<std::uint64_t>(node + 1))),
        node);
  }
  std::sort(rank_keys_.begin(), rank_keys_.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  ranked_.clear();
  for (const auto& [hash, node] : rank_keys_) ranked_.push_back(node);
  return ranked_;
}

int ObjectStore::rack_cap(const std::vector<cluster::NodeId>& ranked,
                          int copies) const {
  int racks = 0;
  for (cluster::NodeId node : ranked) {
    int& seen = rack_load(node);
    if (seen++ == 0) ++racks;
  }
  for (cluster::NodeId node : ranked) {
    rack_load(node) = 0;
  }
  racks = std::max(1, racks);
  return (copies + racks - 1) / racks;
}

int ObjectStore::placed_copies() const {
  const int wanted = config_.redundancy == Redundancy::kReplication
                         ? config_.replicas
                         : config_.ec_data + config_.ec_parity;
  return std::min<int>(wanted, static_cast<int>(servers_.size()));
}

int ObjectStore::min_live_copies() const {
  return config_.redundancy == Redundancy::kReplication ? 1
                                                        : config_.ec_data;
}

ObjectStore::Health ObjectStore::health(const ObjectMeta& meta) const {
  // Lost means fewer than k live fragments (i.e. more than m dead) for
  // erasure coding, or zero live replicas for replication. Exactly m
  // dead fragments is still recoverable.
  const int live = static_cast<int>(meta.replicas.size());
  if (live < min_live_copies()) return Health::kLost;
  if (live < placed_copies()) return Health::kDegraded;
  return Health::kFull;
}

int ObjectStore::at_risk_fragments(const ObjectMeta& meta) const {
  const int live = static_cast<int>(meta.replicas.size());
  if (live < min_live_copies()) return 0;  // lost outright, not at risk
  return std::max(0, placed_copies() - live);
}

std::vector<cluster::NodeId> ObjectStore::place_copies(
    const ObjectKey& key) const {
  const auto& ranked = ranked_servers(key);
  const int count =
      std::min<int>(placed_copies(), static_cast<int>(ranked.size()));
  std::vector<cluster::NodeId> out;
  out.reserve(static_cast<std::size_t>(count));
  extend_placement(ranked, count, static_cast<std::size_t>(count), out);
  return out;
}

void ObjectStore::extend_placement(const std::vector<cluster::NodeId>& ranked,
                                   int copies, std::size_t count,
                                   std::vector<cluster::NodeId>& out) const {
  if (config_.rack_aware_placement) {
    // Failure-domain spread: walk the HRW order but let no rack exceed
    // ceil(copies / live racks), so a whole-rack outage kills at most
    // that many fragments of any one stripe.
    const int cap = rack_cap(ranked, copies);
    const std::size_t held = out.size();
    for (cluster::NodeId node : out) ++rack_load(node);
    for (cluster::NodeId node : ranked) {
      if (out.size() == count) break;
      const auto held_end = out.begin() + static_cast<std::ptrdiff_t>(held);
      if (std::find(out.begin(), held_end, node) != held_end) continue;
      int& used = rack_load(node);
      if (used >= cap) continue;
      ++used;
      out.push_back(node);
    }
    for (cluster::NodeId node : out) rack_load(node) = 0;
  }
  for (cluster::NodeId node : ranked) {
    if (out.size() == count) break;
    if (std::find(out.begin(), out.end(), node) == out.end()) {
      out.push_back(node);
    }
  }
}

std::vector<cluster::NodeId> ObjectStore::locate(const ObjectKey& key) const {
  return place_copies(key);
}

int ObjectStore::proximity(cluster::NodeId holder,
                           cluster::NodeId reader) const {
  if (holder == reader) return 0;
  return fabric_.topology().same_rack(holder, reader) ? 1 : 2;
}

void ObjectStore::write_durable(cluster::NodeId server, const ObjectKey& key,
                                util::Bytes size,
                                std::function<void()> on_done) {
  // A write that raced a crash lands nowhere: the crash handler already
  // dropped this server from the object's replica set (and wiped its
  // accounting), so skipping keeps durable_used consistent even if the
  // server has since recovered empty.
  if (!server_alive(server)) {
    sim_.defer(std::move(on_done));
    return;
  }
  if (auto it = objects_.find(key); it != objects_.end()) {
    const auto& replicas = it->second.replicas;
    if (std::find(replicas.begin(), replicas.end(), server) ==
        replicas.end()) {
      sim_.defer(std::move(on_done));
      return;
    }
  }
  ServerState& state = server_state(server);
  state.durable->submit(IoKind::kWrite, size, std::move(on_done));
  state.durable_used += size;
  state.cache->put(key, size);  // write-through into the cache tiers
}

util::Bytes ObjectStore::per_server_bytes(util::Bytes size) const {
  if (config_.redundancy == Redundancy::kReplication) return size;
  return (size + config_.ec_data - 1) / config_.ec_data;  // fragment
}

void ObjectStore::put(cluster::NodeId client, const ObjectKey& key,
                      util::Bytes size, PutCallback on_done) {
  if (!bucket_exists(key.bucket)) {
    throw std::invalid_argument("bucket does not exist: " + key.bucket);
  }
  if (size < 0) throw std::invalid_argument("put: negative size");
  const auto replicas = locate(key);
  if (static_cast<int>(replicas.size()) < min_live_copies()) {
    throw std::runtime_error("put: not enough live storage servers");
  }
  const util::TimeNs start = sim_.now();
  metrics_.count("put_requests");
  metrics_.count("put_bytes", size);
  const trace::SpanId span =
      trace::begin_span(tracer_, trace::Layer::kStorage, "store.put");
  if (span != trace::kNoSpan) {
    tracer_->annotate(span, "key", key.full());
    tracer_->annotate(span, "bytes", std::to_string(size));
  }

  // If overwriting, reclaim the old durable bytes first.
  int version = 0;
  const auto [it, fresh] = objects_.try_emplace(key);
  ObjectMeta& meta = it->second;
  if (!fresh) {
    for (cluster::NodeId r : meta.replicas) {
      ServerState& state = server_state(r);
      state.durable_used -= meta.per_server_bytes;
      state.cache->erase(key);
    }
    if (health(meta) == Health::kDegraded) shift_underrep(-1);
    shift_at_risk(-at_risk_fragments(meta));
    version = meta.version + 1;
    purge_corrupted(key);  // the overwrite replaces any rotten payload
  }
  const util::Bytes per_server = per_server_bytes(size);
  std::vector<int> fragments(replicas.size());
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    fragments[i] = static_cast<int>(i);
  }
  meta = ObjectMeta{size, per_server, replicas, std::move(fragments), version};
  sync_queued(key);
  // Born degraded when live servers cannot host every copy.
  shift_at_risk(at_risk_fragments(meta));
  if (health(meta) == Health::kDegraded) {
    shift_underrep(+1);
    enqueue_repair(key);
  }

  auto remaining = std::make_shared<int>(static_cast<int>(replicas.size()));
  auto finish = [this, remaining, start, span,
                 cb = std::move(on_done)]() mutable {
    if (--*remaining > 0) return;
    metrics_.observe("put_latency_us",
                     (sim_.now() - start) / util::kMicrosecond);
    trace::end_span(tracer_, span);
    cb();
  };
  const cluster::NodeId primary = replicas.front();

  // Metadata round, then client -> primary (the full body); an
  // erasure-coded primary encodes first. The primary then fans its
  // per-server payload (a full copy, or one fragment) out in parallel;
  // done when every server holds it durably. Replication is the k = 1
  // case, with no encode step.
  auto fan_out = [this, primary, key, per_server, replicas, span,
                  finish]() mutable {
    write_durable(primary, key, per_server, finish);
    trace::ScopedContext tctx(tracer_, span);
    for (std::size_t i = 1; i < replicas.size(); ++i) {
      const cluster::NodeId peer = replicas[i];
      fabric_.transfer(primary, peer, per_server,
                       [this, peer, key, per_server, finish]() mutable {
                         write_durable(peer, key, per_server, finish);
                       });
    }
  };
  const bool encode = config_.redundancy == Redundancy::kErasure;
  const auto encode_ns = static_cast<util::TimeNs>(
      std::ceil(static_cast<double>(size) * kEcNsPerByte));
  sim_.after(kMetadataLatency, [this, client, primary, size, span, encode,
                                encode_ns,
                                fan_out = std::move(fan_out)]() mutable {
    trace::ScopedContext tctx(tracer_, span);
    fabric_.transfer(client, primary, size,
                     [this, encode, encode_ns,
                      fan_out = std::move(fan_out)]() mutable {
                       if (encode) {
                         sim_.after(encode_ns, std::move(fan_out));
                       } else {
                         fan_out();
                       }
                     });
  });
}

void ObjectStore::get(cluster::NodeId client, const ObjectKey& key,
                      GetCallback on_done) {
  start_fetch(client, key, 0, std::move(on_done));
}

void ObjectStore::read_block(cluster::NodeId client, const ObjectKey& key,
                             util::Bytes bytes, GetCallback on_done) {
  if (bytes <= 0) throw std::invalid_argument("read_block: bytes <= 0");
  if (config_.redundancy == Redundancy::kErasure) {
    // A fragment holds a slice of the stripe, never a whole block.
    throw std::invalid_argument("read_block: store is erasure-coded");
  }
  start_fetch(client, key, bytes, std::move(on_done));
}

void ObjectStore::start_fetch(cluster::NodeId client, const ObjectKey& key,
                              util::Bytes block, GetCallback on_done) {
  const util::TimeNs start = sim_.now();
  metrics_.count(block > 0 ? "block_read_requests" : "get_requests");
  const trace::SpanId span =
      trace::begin_span(tracer_, trace::Layer::kStorage,
                        block > 0 ? "store.read_block" : "store.get");
  if (span != trace::kNoSpan) tracer_->annotate(span, "key", key.full());
  auto it = objects_.find(key);
  if (it == objects_.end() || health(it->second) == Health::kLost) {
    // Unknown, or every replica (too many fragments) died with its node:
    // unreadable until someone re-writes it.
    const bool lost = it != objects_.end();
    metrics_.count(lost ? "get_lost" : "get_misses");
    if (span != trace::kNoSpan) {
      tracer_->annotate(span, "result", lost ? "lost" : "miss");
    }
    sim_.after(kMetadataLatency,
               [this, span, cb = std::move(on_done)] {
                 trace::end_span(tracer_, span);
                 cb(GetResult{});
               });
    return;
  }
  const ObjectMeta& meta = it->second;
  const bool ec = config_.redundancy == Redundancy::kErasure;
  auto f = std::make_shared<Fetch>();
  f->key = key;
  f->client = client;
  f->block = block > 0;
  f->size = f->block ? std::min(block, meta.size) : meta.size;
  f->branch_bytes = ec ? meta.per_server_bytes : f->size;
  f->k = ec ? config_.ec_data : 1;
  f->hedge = config_.hedged_reads && !f->block &&
             static_cast<int>(meta.replicas.size()) > f->k;
  f->degraded = health(meta) == Health::kDegraded;
  if (ec) {
    f->decode_ns = static_cast<util::TimeNs>(
        std::ceil(static_cast<double>(meta.size) * kEcNsPerByte));
    f->reconstruct_ns = static_cast<util::TimeNs>(std::ceil(
        static_cast<double>(meta.size) * kEcReconstructNsPerByte));
  }
  f->start = start;
  f->span = span;
  f->cb = std::move(on_done);
  f->waiting = f->k;
  f->inflight = f->k;
  if (f->degraded) {
    metrics_.count("degraded_reads");
    if (span != trace::kNoSpan) tracer_->annotate(span, "degraded", "1");
  }
  if (f->block) metrics_.count("block_read_bytes", f->size);
  if (span != trace::kNoSpan) {
    tracer_->annotate(span, "bytes", std::to_string(f->size));
  }

  // Data fragments before parity (a pure-data read set skips the
  // reconstruction math), then nearest the client, first in replica
  // order among equals. For replication that is just the nearest replica.
  const auto nearest_data = [&](std::size_t i) {
    const bool parity = ec && meta.fragments[i] >= config_.ec_data;
    return (parity ? 3 : 0) + proximity(meta.replicas[i], client);
  };
  if (ec) {
    // Every fragment branch pays its own metadata round.
    for (int i = 0; i < f->k; ++i) {
      const auto pick = static_cast<std::size_t>(
          untried_holder(meta.replicas, f->branches, nearest_data));
      launch_branch(f, meta.replicas[pick], meta.fragments[pick],
                    /*hedge=*/false);
    }
  } else {
    // One metadata round before the primary; hedges and failovers skip it.
    const cluster::NodeId server = meta.replicas[static_cast<std::size_t>(
        untried_holder(meta.replicas, f->branches, nearest_data))];
    sim_.after(kMetadataLatency, [this, f, server] {
      launch_branch(f, server, 0, /*hedge=*/false);
    });
  }
  if (!f->hedge) return;

  // Straggler hedge: after the latency-quantile delay, read one more
  // untried holder — whichever k branches land first win.
  const util::TimeNs delay =
      metrics::hedge_delay(metrics_.histogram("get_latency_us"),
                           config_.hedge_min_delay, kHedgeMinSamples);
  sim_.after(delay, [this, f, ec] {
    if (f->done || f->hedged) return;
    auto obj = objects_.find(f->key);
    if (obj == objects_.end()) return;
    const auto& holders = obj->second.replicas;
    // Clean before rotten (the checksum path fails over from a rotten
    // one); an erasure-coded hedge then takes the nearest fragment.
    const int pick = untried_holder(holders, f->branches, [&](std::size_t i) {
      const int rotten = replica_corrupted(f->key, holders[i]) ? 3 : 0;
      return ec ? rotten + proximity(holders[i], f->client) : rotten;
    });
    if (pick < 0) return;
    const auto i = static_cast<std::size_t>(pick);
    const cluster::NodeId target = holders[i];
    metrics_.count("hedges_launched");
    f->hedged = true;
    f->hedge_span = trace::begin_span(tracer_, trace::Layer::kStorage,
                                      "store.hedge", f->span);
    if (f->hedge_span != trace::kNoSpan) {
      tracer_->annotate(f->hedge_span, "server", std::to_string(target));
    }
    ++f->inflight;
    launch_branch(f, target, obj->second.fragments[i], /*hedge=*/true);
  });
}

void ObjectStore::launch_branch(const std::shared_ptr<Fetch>& f,
                                cluster::NodeId server, int fragment,
                                bool hedge) {
  const bool ec = config_.redundancy == Redundancy::kErasure;
  const std::size_t b = f->branches.size();
  Fetch::Branch branch;
  branch.server = server;
  branch.parity = ec && fragment >= config_.ec_data;
  branch.hedge = hedge;
  // Which tier serves the read? A GET's cache miss admits the object; a
  // block read comes from wherever the object already is.
  ServerState& state = server_state(server);
  const std::optional<int> cached = f->block ? state.cache->peek(f->key)
                                             : state.cache->get(f->key);
  if (!f->block && !cached) state.cache->put(f->key, f->branch_bytes);
  branch.device = state.durable;
  if (cached) {
    branch.device =
        tier_devices_[state.first_tier + static_cast<std::size_t>(*cached)];
  }
  metric_name_ = f->block ? "block_read_tier_" : "get_tier_";
  metric_name_ += branch.device->spec().name;
  metrics_.count(metric_name_);
  if (!f->block) metrics_.count("get_bytes", f->branch_bytes);
  f->branches.push_back(std::move(branch));

  auto read = [this, f, b, server] {
    f->branches[b].device->submit(
        IoKind::kRead, f->branch_bytes, [this, f, b, server] {
          if (f->done) {
            --f->inflight;
            return;
          }
          // Checksum verification as the payload leaves the media.
          if (replica_corrupted(f->key, server)) {
            if (!config_.checksum_reads) {
              f->branches[b].rotten = true;  // served as-is
            } else {
              metrics_.count("checksum_failures");
              drop_corrupted_replica(f->key, server);
              // Transparent failover to the first untried clean holder
              // in replica order; any fragment substitutes in the decode.
              int next = -1;
              auto obj = objects_.find(f->key);
              if (obj != objects_.end()) {
                const auto& holders = obj->second.replicas;
                next = untried_holder(holders, f->branches, [&](std::size_t i) {
                  return replica_corrupted(f->key, holders[i]) ? -1 : 0;
                });
              }
              if (next < 0) {
                branch_abandoned(f);
                return;
              }
              const auto i = static_cast<std::size_t>(next);
              launch_branch(f, obj->second.replicas[i],
                            obj->second.fragments[i], f->branches[b].hedge);
              return;
            }
          }
          trace::ScopedContext tctx(
              tracer_, f->branches[b].hedge ? f->hedge_span : f->span);
          f->branches[b].flow = fabric_.transfer(
              server, f->client, f->branch_bytes,
              [this, f, b] { branch_landed(f, b); });
          f->branches[b].flow_active = true;
        });
  };
  // An erasure-coded branch pays its own metadata round; replicated and
  // block reads paid theirs once, before the primary.
  if (ec) {
    sim_.after(kMetadataLatency, std::move(read));
  } else {
    read();
  }
}

void ObjectStore::branch_landed(const std::shared_ptr<Fetch>& f,
                                std::size_t b) {
  f->branches[b].flow_active = false;
  --f->inflight;
  if (f->done) return;
  f->branches[b].landed = true;
  if (--f->waiting > 0) return;
  f->done = true;
  const bool ec = config_.redundancy == Redundancy::kErasure;

  // The stragglers lose: a flow still on the wire is torn off the fabric
  // (its bytes were wasted), a branch still in device I/O fizzles
  // against `done`. A replicated race counts its one loser either way;
  // an erasure-coded read counts the flows it tears off, and a rotten
  // fragment already on the wire still corrupts its decode.
  if (!ec && f->inflight > 0) metrics_.count("hedges_cancelled");
  GetResult result;
  for (Fetch::Branch& s : f->branches) {
    if (s.landed) {
      result.hedge_won = result.hedge_won || s.hedge;
      result.corrupted = result.corrupted || s.rotten;
      if (s.parity) ++result.parity_fragments_used;
      continue;
    }
    if (!s.flow_active) continue;
    fabric_.cancel(s.flow);
    s.flow_active = false;
    --f->inflight;  // its completion callback will never run
    metrics_.count("hedge_wasted_bytes", f->branch_bytes);
    if (ec) {
      metrics_.count("hedges_cancelled");
      result.corrupted = result.corrupted || s.rotten;
    }
  }
  // An erasure-coded read reports the nearest fragment it opened with,
  // a replicated one the holder whose bytes won.
  const Fetch::Branch& shown = ec ? f->branches.front() : f->branches[b];
  result.found = true;
  result.size = f->size;
  result.served_by = shown.server;
  result.tier = shown.device->spec().name;
  result.hedged = f->hedged;
  result.degraded = f->degraded || result.parity_fragments_used > 0;
  if (result.hedge_won) {
    metrics_.count("hedge_wins");
    if (f->span != trace::kNoSpan) {
      tracer_->annotate(f->span, "hedge_won", "1");
    }
  }
  if (result.corrupted) {
    metrics_.count("corrupted_reads_surfaced");
    if (f->span != trace::kNoSpan) {
      tracer_->annotate(f->span, "corrupted", "1");
    }
  }
  trace::end_span(tracer_, f->hedge_span);
  // Decode at the client: stripe assembly, plus the Reed-Solomon
  // recovery math when parity stood in for dead or rotten data.
  util::TimeNs decode_ns = f->decode_ns;
  if (result.parity_fragments_used > 0) {
    decode_ns += f->reconstruct_ns;
    metrics_.count("ec_reconstructed_reads");
    if (f->span != trace::kNoSpan) {
      tracer_->annotate(f->span, "reconstructed", "1");
      tracer_->annotate(f->span, "parity_fragments",
                        std::to_string(result.parity_fragments_used));
    }
  }
  auto deliver = [this, f, result] {
    const auto latency_us = (sim_.now() - f->start) / util::kMicrosecond;
    if (f->block) {
      // Never feeds get_latency_us: the hedge delay is a GET quantile.
      metrics_.observe("block_read_latency_us", latency_us);
    } else {
      metrics_.observe("get_latency_us", latency_us);
      if (result.degraded) {
        metrics_.observe("degraded_get_latency_us", latency_us);
      }
    }
    if (f->span != trace::kNoSpan) {
      tracer_->annotate(f->span, "tier", result.tier);
    }
    trace::end_span(tracer_, f->span);
    f->cb(result);
  };
  if (ec) {
    sim_.after(decode_ns, std::move(deliver));
  } else {
    deliver();  // nothing to decode
  }
}

void ObjectStore::branch_abandoned(const std::shared_ptr<Fetch>& f) {
  --f->inflight;
  // Enough live branches remain to land the missing ones: carry on.
  if (f->done || f->inflight >= f->waiting) return;
  // With verification on the read reports not-found rather than
  // surfacing rotten bytes. Branches still running fizzle against `done`.
  f->done = true;
  metrics_.count("get_unreadable");
  if (f->span != trace::kNoSpan) {
    tracer_->annotate(f->span, "result", "unreadable");
  }
  trace::end_span(tracer_, f->hedge_span);
  trace::end_span(tracer_, f->span);
  f->cb(GetResult{});
}

void ObjectStore::preload(const ObjectKey& key, util::Bytes size,
                          bool warm_cache) {
  if (!bucket_exists(key.bucket)) create_bucket(key.bucket);
  if (size < 0) throw std::invalid_argument("preload: negative size");
  const auto [it, fresh] = objects_.try_emplace(key);
  if (!fresh) {
    throw std::invalid_argument("preload: object already exists: " +
                                key.full());
  }
  ObjectMeta& meta = it->second;
  const auto replicas = locate(key);
  const util::Bytes per_server = per_server_bytes(size);
  std::vector<int> fragments(replicas.size());
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    fragments[i] = static_cast<int>(i);
  }
  meta = ObjectMeta{size, per_server, replicas, std::move(fragments), 0};
  sync_queued(key);
  for (cluster::NodeId r : replicas) {
    ServerState& state = server_state(r);
    state.durable_used += per_server;
    if (warm_cache) state.cache->put(key, per_server);
  }
  shift_at_risk(at_risk_fragments(meta));
  if (health(meta) == Health::kDegraded) {
    shift_underrep(+1);
    enqueue_repair(key);
  }
}

void ObjectStore::remove(cluster::NodeId /*client*/, const ObjectKey& key,
                         PutCallback on_done) {
  auto it = objects_.find(key);
  if (it != objects_.end()) {
    for (cluster::NodeId r : it->second.replicas) {
      ServerState& state = server_state(r);
      state.durable_used -= it->second.per_server_bytes;
      state.cache->erase(key);
    }
    if (health(it->second) == Health::kDegraded) shift_underrep(-1);
    shift_at_risk(-at_risk_fragments(it->second));
    purge_corrupted(key);
    objects_.erase(it);
    sync_queued(key);
    metrics_.count("delete_requests");
  }
  sim_.after(kMetadataLatency, std::move(on_done));
}

bool ObjectStore::exists(const ObjectKey& key) const {
  return objects_.count(key) != 0;
}

std::optional<util::Bytes> ObjectStore::object_size(
    const ObjectKey& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) return std::nullopt;
  return it->second.size;
}

std::vector<std::string> ObjectStore::list(const std::string& bucket,
                                           const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [key, meta] : objects_) {
    if (key.bucket != bucket) continue;
    if (key.name.compare(0, prefix.size(), prefix) != 0) continue;
    out.push_back(key.name);
  }
  return out;
}

void ObjectStore::shift_underrep(int delta) {
  underrep_.add(sim_.now(), delta);
  metrics_.set_gauge("under_replicated_objects", underrep_.current());
}

void ObjectStore::shift_at_risk(int delta) {
  if (delta == 0) return;
  at_risk_.add(sim_.now(), delta);
  metrics_.set_gauge("at_risk_fragments", at_risk_.current());
}

DurabilityStats ObjectStore::durability_stats() const {
  DurabilityStats stats;
  for (const auto& [key, meta] : objects_) {
    switch (health(meta)) {
      case Health::kFull:
        ++stats.objects_full;
        break;
      case Health::kDegraded:
        ++stats.objects_degraded;
        stats.missing_fragments += at_risk_fragments(meta);
        break;
      case Health::kLost:
        ++stats.objects_lost;
        break;
    }
  }
  stats.at_risk_fragment_seconds = at_risk_fragment_seconds();
  stats.objects_lost_total = metrics_.counter("objects_lost");
  return stats;
}

void ObjectStore::note_health_change(const ObjectKey& key,
                                     const ObjectMeta& meta, Health before,
                                     int risk_before) {
  requeue(key, static_cast<int>(meta.replicas.size()));
  const Health after = health(meta);
  if (before == Health::kDegraded && after != Health::kDegraded) {
    shift_underrep(-1);
  } else if (before != Health::kDegraded && after == Health::kDegraded) {
    shift_underrep(+1);
  }
  shift_at_risk(at_risk_fragments(meta) - risk_before);
  if (after == Health::kLost && before != Health::kLost) {
    metrics_.count("objects_lost");
    metrics_.count("bytes_lost", meta.size);
  }
  if (after == Health::kDegraded) enqueue_repair(key);
}

util::Bytes ObjectStore::expected_durable_bytes(cluster::NodeId server) const {
  util::Bytes total = 0;
  for (const auto& [key, meta] : objects_) {
    for (cluster::NodeId r : meta.replicas) {
      if (r == server) total += meta.per_server_bytes;
    }
  }
  return total;
}

void ObjectStore::on_condition(cluster::NodeId node,
                               const cluster::NodeCondition& before,
                               const cluster::NodeCondition& after) {
  if (after.unreachable && !before.unreachable) metrics_.count("nodes_fenced");
  ServerState* state = find_state(node);
  if (state == nullptr || after.down == before.down) return;
  if (after.down) {
    handle_node_failure(*state);
  } else {
    handle_node_recovery();
  }
}

void ObjectStore::handle_node_failure(ServerState& state) {
  const cluster::NodeId node = state.node;
  metrics_.count("server_failures");
  // Media loss: everything the server held is gone, cache included —
  // and so is any bit-rot it carried.
  state.durable_used = 0;
  state.cache->clear();
  for (auto corrupt = corrupted_replicas_.begin();
       corrupt != corrupted_replicas_.end();) {
    if (corrupt->second == node) {
      scrub_inflight_.erase(*corrupt);
      corrupt = corrupted_replicas_.erase(corrupt);
    } else {
      ++corrupt;
    }
  }
  for (auto& [key, meta] : objects_) {
    auto rep = std::find(meta.replicas.begin(), meta.replicas.end(), node);
    if (rep == meta.replicas.end()) continue;
    const Health before = health(meta);
    const int risk_before = at_risk_fragments(meta);
    meta.fragments.erase(meta.fragments.begin() +
                         (rep - meta.replicas.begin()));
    meta.replicas.erase(rep);
    ++meta.version;
    note_health_change(key, meta, before, risk_before);
  }
}

void ObjectStore::handle_node_recovery() {
  metrics_.count("server_recoveries");
  // The node rejoins empty; repairs that had no live target re-arm.
  for (const ObjectKey& key : repair_stalled_) enqueue_repair(key);
  repair_stalled_.clear();
  // With jitter configured the re-enqueues above scheduled their own
  // staggered pumps — skipping the synchronous pump here is what spreads
  // the post-recovery repair wave out in time.
  if (config_.repair_jitter <= 0) pump_repairs();
}

bool ObjectStore::corrupt_replica(const ObjectKey& key,
                                  cluster::NodeId server) {
  auto it = objects_.find(key);
  if (it == objects_.end()) return false;
  const auto& replicas = it->second.replicas;
  if (std::find(replicas.begin(), replicas.end(), server) == replicas.end()) {
    return false;
  }
  if (!corrupted_replicas_.insert({key, server}).second) return false;
  metrics_.count("replicas_corrupted");
  arm_scrub();
  return true;
}

int ObjectStore::corrupt_random_replicas(std::uint64_t seed, int count,
                                         bool spare_last_clean) {
  // Candidates in deterministic metadata order, sampled with a seeded RNG.
  std::vector<std::pair<ObjectKey, cluster::NodeId>> candidates;
  for (const auto& [key, meta] : objects_) {
    for (cluster::NodeId r : meta.replicas) {
      if (corrupted_replicas_.count({key, r}) != 0) continue;
      candidates.emplace_back(key, r);
    }
  }
  util::Rng rng(seed);
  int corrupted = 0;
  while (corrupted < count && !candidates.empty()) {
    const auto pick = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(candidates.size()) - 1));
    const auto [key, server] = candidates[pick];
    candidates.erase(candidates.begin() +
                     static_cast<std::ptrdiff_t>(pick));
    if (spare_last_clean) {
      int clean = 0;
      for (cluster::NodeId r : objects_.at(key).replicas) {
        if (corrupted_replicas_.count({key, r}) == 0) ++clean;
      }
      // Keep the object recoverable: one clean copy for replication,
      // k clean fragments for erasure coding.
      if (clean <= min_live_copies()) continue;
    }
    corrupted_replicas_.insert({key, server});
    metrics_.count("replicas_corrupted");
    ++corrupted;
  }
  if (corrupted > 0) arm_scrub();
  return corrupted;
}

void ObjectStore::drop_corrupted_replica(const ObjectKey& key,
                                         cluster::NodeId server) {
  corrupted_replicas_.erase({key, server});
  auto it = objects_.find(key);
  if (it == objects_.end()) return;
  ObjectMeta& meta = it->second;
  auto rep = std::find(meta.replicas.begin(), meta.replicas.end(), server);
  if (rep == meta.replicas.end()) return;
  const Health before = health(meta);
  const int risk_before = at_risk_fragments(meta);
  meta.fragments.erase(meta.fragments.begin() + (rep - meta.replicas.begin()));
  meta.replicas.erase(rep);
  ++meta.version;
  if (server_alive(server)) {
    ServerState& state = server_state(server);
    state.durable_used -= meta.per_server_bytes;
    state.cache->erase(key);
  }
  metrics_.count("corrupted_replicas_dropped");
  note_health_change(key, meta, before, risk_before);
}

void ObjectStore::purge_corrupted(const ObjectKey& key) {
  auto it = corrupted_replicas_.lower_bound(
      {key, std::numeric_limits<cluster::NodeId>::min()});
  while (it != corrupted_replicas_.end() && !(key < it->first) &&
         !(it->first < key)) {
    scrub_inflight_.erase(*it);
    it = corrupted_replicas_.erase(it);
  }
}

void ObjectStore::arm_scrub() {
  if (!config_.scrub || scrub_armed_) return;
  // Only corruption not already under verification needs a pass; the
  // scrubber stays idle otherwise, so the simulation drains.
  if (corrupted_replicas_.size() <= scrub_inflight_.size()) return;
  scrub_armed_ = true;
  sim_.after(config_.scrub_interval, [this] { scrub_pass(); });
}

void ObjectStore::scrub_pass() {
  scrub_armed_ = false;
  // Oracle-guided scrub: the simulator models the verification I/O and
  // the repair traffic for rotten replicas without simulating full-disk
  // scans of clean data.
  int budget = kScrubReplicasPerPass;
  auto it = corrupted_replicas_.begin();
  while (it != corrupted_replicas_.end() && budget > 0) {
    if (scrub_inflight_.count(*it) != 0) {
      ++it;
      continue;
    }
    const auto [key, server] = *it;
    const auto obj = objects_.find(key);
    const bool live =
        obj != objects_.end() &&
        std::find(obj->second.replicas.begin(), obj->second.replicas.end(),
                  server) != obj->second.replicas.end() &&
        server_alive(server);
    if (!live) {
      // Stale entry (object deleted, replica already dropped, or the
      // server crashed): nothing on media left to verify.
      it = corrupted_replicas_.erase(it);
      continue;
    }
    --budget;
    scrub_inflight_.insert(*it);
    metrics_.count("replicas_scrubbed");
    const trace::SpanId span = trace::begin_span(
        tracer_, trace::Layer::kStorage, "store.scrub", trace::kNoSpan);
    if (span != trace::kNoSpan) {
      tracer_->annotate(span, "key", key.full());
      tracer_->annotate(span, "server", std::to_string(server));
    }
    // Verification read off the durable device, then drop + re-replicate.
    server_state(server).durable->submit(
        IoKind::kRead, obj->second.per_server_bytes,
        [this, key, server, span] {
          scrub_inflight_.erase({key, server});
          drop_corrupted_replica(key, server);
          trace::end_span(tracer_, span);
          arm_scrub();
        });
    ++it;
  }
  arm_scrub();  // re-arm if more corruption than this pass could take
}

void ObjectStore::enqueue_repair(const ObjectKey& key) {
  if (!config_.repair) return;
  const auto [queued, fresh] = repair_queued_.try_emplace(key);
  if (!fresh) return;
  queued->second = repair_order_.emplace(queued_count(key), key).first;
  // Detection + scheduling grace before the repair traffic starts; the
  // optional seeded jitter keeps a mass-recovery repair wave from firing
  // as one synchronized pump.
  util::TimeNs delay = config_.repair_delay;
  if (config_.repair_jitter > 0) {
    delay = util::jittered(delay, repair_rng_, config_.repair_jitter);
  }
  sim_.after(delay, [this] { pump_repairs(); });
}

int ObjectStore::queued_count(const ObjectKey& key) const {
  const auto obj = objects_.find(key);
  return obj == objects_.end()
             ? -1
             : static_cast<int>(obj->second.replicas.size());
}

void ObjectStore::requeue(const ObjectKey& key, int count) {
  const auto queued = repair_queued_.find(key);
  if (queued == repair_queued_.end() || queued->second->first == count) {
    return;
  }
  // Move the set node to its new position; nothing is allocated.
  auto node = repair_order_.extract(queued->second);
  node.value().first = count;
  queued->second = repair_order_.insert(std::move(node)).position;
}

void ObjectStore::pump_repairs() {
  // Risk-first: repair the object with the fewest surviving spare copies
  // (live minus the minimum to stay readable) — an EC stripe one
  // fragment from loss beats a freshly degraded one, ties in key order.
  // Only live counts in [min_live_copies(), placed_copies()) are
  // degraded, so the stale entries sit at the two ends of the order:
  // absent and lost objects at the front, full ones at the back.
  const auto drop = [this](RepairOrder::iterator entry) {
    repair_queued_.erase(entry->second);
    repair_order_.erase(entry);
  };
  while (repairs_in_flight_ < config_.repair_concurrency &&
         !repair_order_.empty()) {
    while (!repair_order_.empty() &&
           repair_order_.begin()->first < min_live_copies()) {
      drop(repair_order_.begin());
    }
    while (!repair_order_.empty() &&
           std::prev(repair_order_.end())->first >= placed_copies()) {
      drop(std::prev(repair_order_.end()));
    }
    if (repair_order_.empty()) return;
    const ObjectKey key = repair_order_.begin()->second;
    drop(repair_order_.begin());
    start_repair(key);
  }
}

void ObjectStore::start_repair(const ObjectKey& key) {
  auto it = objects_.find(key);
  if (it == objects_.end()) return;  // deleted while queued
  ObjectMeta& meta = it->second;
  if (health(meta) != Health::kDegraded) return;  // repaired or lost
  const int version = meta.version;
  ++repairs_in_flight_;
  metrics_.count("repairs_started");
  // Admission throttle: a token-bucket edge over the fabric bytes this
  // repair will inject (one copy for replication, k source fragments
  // for an EC reconstruction). The repair holds its concurrency slot
  // while it waits, so a rebuild storm is paced below the cap instead
  // of stampeding foreground traffic.
  util::TimeNs wait = 0;
  if (config_.rebuild_bandwidth_bytes_per_s > 0) {
    const util::Bytes bytes =
        config_.redundancy == Redundancy::kReplication
            ? meta.per_server_bytes
            : meta.per_server_bytes * config_.ec_data;
    const auto duration = static_cast<util::TimeNs>(
        std::ceil(static_cast<double>(bytes) * 1e9 /
                  config_.rebuild_bandwidth_bytes_per_s));
    const util::TimeNs admit = std::max(rebuild_admit_at_, sim_.now());
    rebuild_admit_at_ = admit + duration;
    wait = admit - sim_.now();
    if (wait > 0) {
      rebuild_throttle_wait_ns_ += wait;
      metrics_.count("repairs_throttled");
    }
  }
  if (wait > 0) {
    sim_.after(wait, [this, key, version] {
      begin_repair_transfers(key, version);
    });
  } else {
    begin_repair_transfers(key, version);
  }
}

void ObjectStore::begin_repair_transfers(const ObjectKey& key, int version) {
  // Revalidate after the admission wait: the object may have been
  // deleted, fully repaired, or lost while the repair sat in the
  // throttle. The slot is released on every abort path.
  auto it = objects_.find(key);
  if (it == objects_.end() || health(it->second) != Health::kDegraded ||
      it->second.version != version) {
    --repairs_in_flight_;
    metrics_.count("repairs_abandoned");
    if (it != objects_.end() && health(it->second) == Health::kDegraded) {
      enqueue_repair(key);
    }
    pump_repairs();
    return;
  }
  ObjectMeta& meta = it->second;
  // Target: the next server placement would add to the live copies.
  std::vector<cluster::NodeId>& placed = repair_placement_;
  placed = meta.replicas;
  extend_placement(ranked_servers(key), placed_copies(), placed.size() + 1,
                   placed);
  if (placed.size() == meta.replicas.size()) {
    // Every live server already holds a copy; retry on the next recovery.
    --repairs_in_flight_;
    repair_stalled_.insert(key);
    pump_repairs();
    return;
  }
  const cluster::NodeId target = placed.back();
  const util::Bytes fragment = meta.per_server_bytes;
  // Re-replication runs in the background, so the span is a root.
  const trace::SpanId span =
      trace::begin_span(tracer_, trace::Layer::kStorage, "store.repair",
                        trace::kNoSpan);
  if (span != trace::kNoSpan) {
    tracer_->annotate(span, "key", key.full());
    tracer_->annotate(span, "target", std::to_string(target));
  }

  // Stream from the k surviving copies nearest the target (replication:
  // the one nearest copy, first in holder order among equals), decode at
  // the target (erasure coding only), then persist.
  const bool ec = config_.redundancy == Redundancy::kErasure;
  const int k = ec ? config_.ec_data : 1;
  std::vector<cluster::NodeId> sources = meta.replicas;
  std::stable_sort(sources.begin(), sources.end(),
                   [&](cluster::NodeId a, cluster::NodeId b) {
                     return proximity(a, target) < proximity(b, target);
                   });
  sources.resize(static_cast<std::size_t>(k));
  const auto decode_ns =
      ec ? static_cast<util::TimeNs>(
               std::ceil(static_cast<double>(meta.size) * kEcNsPerByte))
         : 0;
  auto remaining = std::make_shared<int>(k);
  for (cluster::NodeId source : sources) {
    server_state(source).durable->submit(
        IoKind::kRead, fragment,
        [this, key, source, target, fragment, version, remaining, decode_ns,
         span] {
          trace::ScopedContext tctx(tracer_, span);
          fabric_.transfer(
              source, target, fragment,
              [this, key, target, version, remaining, decode_ns, span] {
                if (--*remaining > 0) return;
                const auto persist = [this, key, target, version, span] {
                  trace::end_span(tracer_, span);
                  finish_repair(key, target, version);
                };
                if (decode_ns > 0) {
                  sim_.after(decode_ns, persist);
                } else {
                  persist();
                }
              });
        });
  }
}

void ObjectStore::finish_repair(const ObjectKey& key, cluster::NodeId target,
                                int version) {
  --repairs_in_flight_;
  auto it = objects_.find(key);
  const bool valid =
      it != objects_.end() && it->second.version == version &&
      server_alive(target) &&
      std::find(it->second.replicas.begin(), it->second.replicas.end(),
                target) == it->second.replicas.end();
  if (!valid) {
    // The replica set moved (another failure, overwrite, delete) or the
    // target died mid-repair; whoever moved it re-queued as needed.
    metrics_.count("repairs_abandoned");
    if (it != objects_.end() && health(it->second) == Health::kDegraded) {
      enqueue_repair(key);
    }
    pump_repairs();
    return;
  }
  ObjectMeta& meta = it->second;
  const Health before = health(meta);
  const int risk_before = at_risk_fragments(meta);
  meta.replicas.push_back(target);
  // The rebuilt copy takes the smallest fragment id the stripe is
  // missing (for EC that is the actual reconstructed fragment; for
  // replication it just relabels the copy).
  int rebuilt = 0;
  while (std::find(meta.fragments.begin(), meta.fragments.end(), rebuilt) !=
         meta.fragments.end()) {
    ++rebuilt;
  }
  meta.fragments.push_back(rebuilt);
  ++meta.version;
  write_durable(target, key, meta.per_server_bytes, [] {});
  metrics_.count("objects_repaired");
  note_health_change(key, meta, before, risk_before);
  pump_repairs();
}

bool ObjectStore::put_fenced(cluster::NodeId client, std::int64_t epoch,
                             const ObjectKey& key, util::Bytes size,
                             PutCallback on_done) {
  if (epoch < fence_epoch(client)) {
    // Zombie write: the client's lease expired (and its epoch was
    // bumped) while it was on the far side of a partition. Reject
    // synchronously — no metadata change, no bytes moved, no callback.
    metrics_.count("writes_fenced");
    return false;
  }
  put(client, key, size, std::move(on_done));
  return true;
}

util::Bytes ObjectStore::durable_bytes(cluster::NodeId server) const {
  return server_state(server).durable_used;
}

const TieredCache& ObjectStore::cache(cluster::NodeId server) const {
  return *server_state(server).cache;
}

}  // namespace evolve::storage
