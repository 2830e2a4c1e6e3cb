#include "tablet/service.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/strings.hpp"

namespace evolve::tablet {

namespace {

// Every response is counted under `op_<status>`: one literal per
// OpStatus, in enum order, so responding builds no key string.
const char* op_key(OpStatus status) {
  static constexpr const char* kKeys[] = {"op_ok",          "op_not_found",
                                          "op_wrong_shard", "op_queue_full",
                                          "op_unavailable", "op_fenced"};
  return kKeys[static_cast<std::size_t>(status)];
}

}  // namespace

const char* to_string(OpStatus status) {
  return op_key(status) + 3;  // the key without its "op_" prefix
}

std::int64_t TabletService::op_count(OpStatus status) const {
  return metrics_.counter(op_key(status));
}

TabletService::TabletService(sim::Simulation& sim, net::Fabric& fabric,
                             storage::ObjectStore& store,
                             std::vector<cluster::NodeId> nodes,
                             TabletConfig config)
    : sim_(sim),
      fabric_(fabric),
      store_(store),
      nodes_list_(std::move(nodes)),
      config_(std::move(config)),
      map_(config_.keyspace, nodes_list_.empty() ? cluster::kInvalidNode
                                                 : nodes_list_.front()),
      conditions_([this](cluster::NodeId node,
                         const cluster::NodeCondition& before,
                         const cluster::NodeCondition& after) {
        on_condition(node, before, after);
      }) {
  if (nodes_list_.empty()) {
    throw std::invalid_argument("tablet service needs at least one node");
  }
  if (config_.initial_shards < 1) {
    throw std::invalid_argument("initial_shards must be >= 1");
  }
  store_.create_bucket(kBucket);
  for (cluster::NodeId n : nodes_list_) nodes_[n];  // default NodeState
  // Carve the key space into even initial shards, spread round-robin.
  for (int i = 1; i < config_.initial_shards; ++i) {
    const auto shards = map_.shards();
    const ShardInfo& last = shards.back();
    const std::uint64_t at =
        config_.keyspace * static_cast<std::uint64_t>(i) /
        static_cast<std::uint64_t>(config_.initial_shards);
    if (at > last.start && at < last.end) map_.split(last.id, at);
  }
  const auto shards = map_.shards();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const cluster::NodeId host_node =
        nodes_list_[i % nodes_list_.size()];
    if (shards[i].node != host_node) map_.move(shards[i].id, host_node);
    Tablet t;
    t.id = shards[i].id;
    tablets_[t.id] = std::move(t);
    host(host_node, shards[i].id);
  }
}

TabletService::Tablet& TabletService::tablet(ShardId id) {
  return tablets_.at(id);
}

const TabletService::Tablet& TabletService::tablet(ShardId id) const {
  return tablets_.at(id);
}

TabletService::NodeState& TabletService::node(cluster::NodeId id) {
  return nodes_.at(id);
}

void TabletService::host(cluster::NodeId node_id, ShardId shard) {
  node(node_id).hosted.push_back(shard);
}

void TabletService::unhost(cluster::NodeId node_id, ShardId shard) {
  NodeState& n = node(node_id);
  n.hosted.erase(std::remove(n.hosted.begin(), n.hosted.end(), shard),
                 n.hosted.end());
  if (n.rr >= n.hosted.size()) n.rr = 0;
}

std::string TabletService::gen_object(ShardId shard, std::int64_t gen) const {
  // Appended, not a `+` chain of temporaries: see util::numbered.
  std::string name = util::numbered("t", shard);
  name += "-g";
  name += std::to_string(gen);
  return name;
}

// -- Data path ----------------------------------------------------------

void TabletService::submit(cluster::NodeId node_id, OpKind kind,
                           std::uint64_t key, cluster::NodeId client,
                           OpCallback done, trace::SpanId parent) {
  metrics_.count("submits");
  Op op;
  op.kind = kind;
  op.key = key;
  op.client = client;
  op.cb = std::move(done);
  fabric_.transfer(client, node_id, kRequestBytes,
                   [this, node_id, parent, op = std::move(op)]() mutable {
                     op.span = trace::begin_span(
                         tracer_, trace::Layer::kTablet, "tablet.serve",
                         parent);
                     arrive(node_id, std::move(op));
                   });
}

void TabletService::arrive(cluster::NodeId node_id, Op op) {
  if (!serving(node_id)) {
    respond(node_id, op, OpStatus::kUnavailable, kInvalidShard);
    return;
  }
  const ShardInfo& si = map_.shard_for(op.key);
  if (si.node != node_id) {
    respond(node_id, op, OpStatus::kWrongShard, si.id);
    return;
  }
  Tablet& t = tablet(si.id);
  if (t.moving) {
    respond(node_id, op, OpStatus::kUnavailable, si.id);
    return;
  }
  if (static_cast<int>(t.queue.size()) >= config_.queue_limit) {
    respond(node_id, op, OpStatus::kQueueFull, si.id);
    return;
  }
  if (op.kind == OpKind::kWrite) op.seq = next_seq_++;
  op.queued_at = sim_.now();
  ++t.ops_interval;
  ++t.access[op.key];
  metrics_.observe("queue_depth_at_arrival",
                   static_cast<std::int64_t>(t.queue.size()));
  t.queue.push_back(std::move(op));
  kick(node_id);
}

void TabletService::kick(cluster::NodeId node_id) {
  NodeState& n = node(node_id);
  if (n.busy || !serving(node_id) || n.hosted.empty()) return;
  for (std::size_t i = 0; i < n.hosted.size(); ++i) {
    const std::size_t idx = (n.rr + i) % n.hosted.size();
    Tablet& t = tablet(n.hosted[idx]);
    if (t.moving || t.queue.empty()) continue;
    n.rr = (idx + 1) % n.hosted.size();
    Op op = std::move(t.queue.front());
    t.queue.pop_front();
    n.busy = true;
    metrics_.observe("queue_wait_us",
                     (sim_.now() - op.queued_at) / util::kMicrosecond);
    execute(node_id, t.id, std::move(op));
    return;
  }
}

void TabletService::execute(cluster::NodeId node_id, ShardId shard, Op op) {
  const util::TimeNs base =
      op.kind == OpKind::kRead ? kReadCost : kWriteCost;
  const auto cost = static_cast<util::TimeNs>(
      static_cast<double>(base) * conditions_[node_id].cpu_slowdown);
  const trace::SpanId exec_span = trace::begin_span(
      tracer_, trace::Layer::kTablet, "tablet.exec", op.span);
  sim_.after(cost, [this, node_id, shard, exec_span,
                    op = std::move(op)]() mutable {
    trace::end_span(tracer_, exec_span);
    NodeState& n = node(node_id);
    n.busy = false;
    if (op.kind == OpKind::kRead) {
      finish_read(node_id, shard, std::move(op));
    } else {
      append_wal(node_id, shard, std::move(op));
    }
    kick(node_id);
  });
}

void TabletService::finish_read(cluster::NodeId node_id, ShardId shard,
                                Op op) {
  if (applied_seq_.count(op.key) == 0) {
    respond(node_id, op, OpStatus::kNotFound, shard);
    return;
  }
  // The shard may have split/merged while the op executed: resolve the
  // tablet that owns the key now.
  const ShardInfo& si = map_.shard_for(op.key);
  Tablet& t = tablet(si.id);
  if (t.memtable.count(op.key) != 0 || t.sealed.count(op.key) != 0 ||
      t.gens.empty()) {
    metrics_.count("memtable_hits");
    respond(node_id, op, OpStatus::kOk, si.id, /*from_memtable=*/true);
    return;
  }
  metrics_.count("block_reads");
  const trace::SpanId read_span = trace::begin_span(
      tracer_, trace::Layer::kTablet, "tablet.read", op.span);
  trace::ScopedContext tctx(tracer_, read_span);
  store_.read_block(
      node_id, {kBucket, t.gens.back().object}, kBlockBytes,
      [this, node_id, shard = si.id, read_span,
       op = std::move(op)](const storage::GetResult& r) mutable {
        trace::end_span(tracer_, read_span);
        if (!r.found) metrics_.count("gen_read_misses");
        respond(node_id, op, OpStatus::kOk, shard);
      });
}

void TabletService::append_wal(cluster::NodeId node_id, ShardId shard,
                               Op op) {
  NodeState& n = node(node_id);
  PendingWrite w;
  w.key = op.key;
  w.seq = op.seq;
  w.shard = shard;
  w.client = op.client;
  w.span = op.span;
  w.cb = std::move(op.cb);
  n.group.push_back(std::move(w));
  if (!n.group_armed && !n.commit_inflight) {
    n.group_armed = true;
    sim_.after(kWalGroupDelay, [this, node_id] { commit_wal(node_id); });
  }
}

void TabletService::commit_wal(cluster::NodeId node_id) {
  NodeState& n = node(node_id);
  n.group_armed = false;
  if (n.commit_inflight || n.group.empty()) return;
  auto group = std::make_shared<std::vector<PendingWrite>>(
      std::move(n.group));
  n.group.clear();
  const auto bytes = static_cast<util::Bytes>(group->size()) *
                     (kWalEntryBytes + kValueBytes);
  const storage::ObjectKey wal_key{
      kBucket, "wal-n" + std::to_string(node_id) + "-" +
                          std::to_string(n.wal_objects++)};
  const trace::SpanId wal_span = trace::begin_span(
      tracer_, trace::Layer::kTablet, "tablet.wal",
      group->front().span);
  trace::ScopedContext tctx(tracer_, wal_span);
  const bool accepted = store_.put_fenced(
      node_id, n.epoch, wal_key, bytes,
      [this, node_id, group, wal_span] {
        trace::end_span(tracer_, wal_span);
        NodeState& n = node(node_id);
        n.commit_inflight = false;
        metrics_.count("wal_commits");
        // Durable: apply in order (idempotent per key), then ack.
        for (PendingWrite& w : *group) {
          apply_write(w);
          respond_write(node_id, w, OpStatus::kOk);
        }
        if (!n.group.empty() && !n.group_armed) {
          n.group_armed = true;
          sim_.after(kWalGroupDelay, [this, node_id] { commit_wal(node_id); });
        }
      });
  if (!accepted) {
    // Zombie commit: this server's epoch is stale. Nothing became
    // durable, nothing is applied, and the ops fail un-acked.
    trace::end_span(tracer_, wal_span);
    metrics_.count("wal_commits_fenced");
    for (PendingWrite& w : *group) respond_write(node_id, w, OpStatus::kFenced);
    return;
  }
  n.commit_inflight = true;
}

void TabletService::apply_write(const PendingWrite& w) {
  std::int64_t& applied = applied_seq_[w.key];
  if (w.seq <= applied) {
    // A newer write to this key already landed (a cross-epoch ordering
    // inversion): suppress the stale apply — exactly-once effect.
    metrics_.count("stale_applies_suppressed");
    return;
  }
  applied = w.seq;
  ++applied_writes_;
  if (record_applies_) ++apply_counts_[w.seq];
  // Insert into the memtable of whoever owns the key now (the shard may
  // have moved mid-commit; WAL replay delivers the entry there).
  const ShardInfo& si = map_.shard_for(w.key);
  Tablet& t = tablet(si.id);
  t.memtable[w.key] = w.seq;
  t.memtable_bytes += kValueBytes;
  if (!t.moving) {
    maybe_flush(si.node, si.id);
    arm_age_flush(si.id);
  }
}

void TabletService::respond(cluster::NodeId from, const Op& op,
                            OpStatus status, ShardId shard,
                            bool from_memtable) {
  metrics_.count(op_key(status));
  OpResult result;
  result.status = status;
  result.shard = shard;
  result.epoch = map_.epoch();
  result.seq = op.seq;
  result.from_memtable = from_memtable;
  const util::Bytes bytes =
      status == OpStatus::kOk && op.kind == OpKind::kRead ? kResponseBytes
                                                          : kAckBytes;
  if (tracer_ && op.span != trace::kNoSpan) {
    tracer_->annotate(op.span, "status", to_string(status));
  }
  trace::end_span(tracer_, op.span);
  deliver(from, op.client, bytes, op.span, result, op.cb);
}

void TabletService::respond_write(cluster::NodeId from, const PendingWrite& w,
                                  OpStatus status) {
  metrics_.count(op_key(status));
  OpResult result;
  result.status = status;
  result.shard = w.shard;
  result.epoch = map_.epoch();
  result.seq = w.seq;
  if (tracer_ && w.span != trace::kNoSpan) {
    tracer_->annotate(w.span, "status", to_string(status));
  }
  trace::end_span(tracer_, w.span);
  deliver(from, w.client, kAckBytes, w.span, result, w.cb);
}

void TabletService::deliver(cluster::NodeId from, cluster::NodeId to,
                            util::Bytes bytes, trace::SpanId /*span*/,
                            OpResult result, OpCallback cb) {
  fabric_.transfer(from, to, bytes,
                   [result, cb = std::move(cb)] { cb(result); });
}

// -- Memtable flush -----------------------------------------------------

void TabletService::maybe_flush(cluster::NodeId node_id, ShardId shard) {
  Tablet& t = tablet(shard);
  if (t.flushing || t.moving) return;
  if (t.memtable_bytes >= config_.flush_bytes) start_flush(node_id, shard);
}

void TabletService::arm_age_flush(ShardId shard) {
  Tablet& t = tablet(shard);
  if (t.age_armed || config_.flush_age <= 0 || t.memtable.empty()) return;
  t.age_armed = true;
  t.age_timer = sim_.after(config_.flush_age, [this, shard] {
    auto it = tablets_.find(shard);
    if (it == tablets_.end()) return;  // merged away
    it->second.age_armed = false;
    if (it->second.flushing || it->second.moving) return;
    if (it->second.memtable_bytes <= 0) return;
    if (!map_.has_shard(shard)) return;
    start_flush(map_.shard(shard).node, shard);
  });
}

void TabletService::cancel_age_flush(Tablet& t) {
  if (!t.age_armed) return;
  sim_.cancel(t.age_timer);
  t.age_armed = false;
}

void TabletService::start_flush(cluster::NodeId node_id, ShardId shard) {
  Tablet& t = tablet(shard);
  if (t.flushing) return;
  t.flushing = true;
  cancel_age_flush(t);
  // Seal the memtable: reads keep hitting the sealed snapshot in memory
  // while the PUT is in flight; new writes start a fresh memtable.
  t.sealed = std::move(t.memtable);
  t.memtable.clear();
  const util::Bytes bytes = t.memtable_bytes;
  t.memtable_bytes = 0;
  const std::string name = gen_object(shard, t.next_gen++);
  NodeState& n = node(node_id);
  const trace::SpanId span =
      trace::begin_span(tracer_, trace::Layer::kTablet, "tablet.flush");
  if (span != trace::kNoSpan) {
    tracer_->annotate(span, "shard", std::to_string(shard));
    tracer_->annotate(span, "bytes", std::to_string(bytes));
  }
  trace::ScopedContext tctx(tracer_, span);
  const bool accepted = store_.put_fenced(
      node_id, n.epoch, {kBucket, name}, bytes,
      [this, shard, name, bytes, span] {
        trace::end_span(tracer_, span);
        auto it = tablets_.find(shard);
        if (it == tablets_.end()) return;  // merged away mid-flush
        Tablet& t = it->second;
        t.gens.push_back(Generation{name, bytes});
        t.sealed.clear();
        t.flushing = false;
        metrics_.count("flushes");
        metrics_.count("flush_bytes", bytes);
        if (t.moving) {
          // The move was waiting on this flush: hand off to the target.
          fabric_.transfer(
              map_.shard(shard).node, t.move_target, kHandoffBytes,
              [this, shard] {
                sim_.after(kReopenDelay, [this, shard] {
                  auto jt = tablets_.find(shard);
                  if (jt == tablets_.end()) return;
                  finish_move(shard, map_.shard(shard).node,
                              jt->second.move_target);
                });
              });
          return;
        }
        if (!map_.has_shard(shard)) return;
        maybe_flush(map_.shard(shard).node, shard);
        arm_age_flush(shard);
      });
  if (!accepted) {
    // Fenced flush (zombie server): restore the seal; the tablet is
    // about to be shed and re-opened elsewhere from WAL-durable state.
    trace::end_span(tracer_, span);
    metrics_.count("flushes_fenced");
    for (const auto& [key, seq] : t.sealed) {
      auto mem = t.memtable.find(key);
      if (mem == t.memtable.end() || mem->second < seq) {
        t.memtable[key] = seq;
      }
    }
    t.sealed.clear();
    t.memtable_bytes += bytes;
    t.flushing = false;
    --t.next_gen;
  }
}

// -- Shard lifecycle ----------------------------------------------------

bool TabletService::split_shard(ShardId id, std::uint64_t at) {
  auto it = tablets_.find(id);
  if (it == tablets_.end()) return false;
  Tablet& t = it->second;
  if (t.moving || t.flushing) return false;
  const ShardInfo info = map_.shard(id);
  if (at <= info.start || at >= info.end) return false;
  const ShardId right = map_.split(id, at);
  Tablet r;
  r.id = right;
  // Hand the upper half of the in-memory state to the new tablet.
  for (auto mem = t.memtable.lower_bound(at); mem != t.memtable.end();) {
    r.memtable.insert(*mem);
    mem = t.memtable.erase(mem);
  }
  const std::size_t total_entries = t.memtable.size() + r.memtable.size();
  if (total_entries > 0) {
    const util::Bytes moved =
        t.memtable_bytes *
        static_cast<util::Bytes>(r.memtable.size()) /
        static_cast<util::Bytes>(total_entries);
    r.memtable_bytes = moved;
    t.memtable_bytes -= moved;
  }
  r.gens = t.gens;  // both halves keep reading the shared generations
  std::deque<Op> keep;
  for (Op& op : t.queue) {
    (op.key < at ? keep : r.queue).push_back(std::move(op));
  }
  t.queue = std::move(keep);
  for (auto acc = t.access.lower_bound(at); acc != t.access.end();) {
    r.access.insert(*acc);
    acc = t.access.erase(acc);
  }
  std::int64_t left_ops = 0, right_ops = 0;
  for (const auto& [k, c] : t.access) left_ops += c;
  for (const auto& [k, c] : r.access) right_ops += c;
  t.ops_interval = left_ops;
  r.ops_interval = right_ops;
  const ShardId rid = r.id;
  tablets_[rid] = std::move(r);
  host(info.node, rid);
  metrics_.count("splits");
  if (tablets_.at(rid).memtable_bytes > 0) arm_age_flush(rid);
  kick(info.node);
  return true;
}

bool TabletService::merge_shards(ShardId left, ShardId right) {
  auto lt = tablets_.find(left);
  auto rt = tablets_.find(right);
  if (lt == tablets_.end() || rt == tablets_.end()) return false;
  Tablet& l = lt->second;
  Tablet& r = rt->second;
  if (l.moving || r.moving || l.flushing || r.flushing) return false;
  const ShardInfo li = map_.shard(left);
  const ShardInfo ri = map_.shard(right);
  if (li.end != ri.start || li.node != ri.node) return false;
  map_.merge(left, right);
  l.memtable.insert(r.memtable.begin(), r.memtable.end());
  l.memtable_bytes += r.memtable_bytes;
  for (const Generation& g : r.gens) {
    const bool dup = std::any_of(
        l.gens.begin(), l.gens.end(),
        [&g](const Generation& mine) { return mine.object == g.object; });
    if (!dup) l.gens.push_back(g);
  }
  for (Op& op : r.queue) l.queue.push_back(std::move(op));
  for (const auto& [k, c] : r.access) l.access[k] += c;
  l.ops_interval += r.ops_interval;
  cancel_age_flush(r);
  unhost(li.node, right);
  tablets_.erase(rt);
  metrics_.count("merges");
  if (l.memtable_bytes > 0) arm_age_flush(left);
  return true;
}

bool TabletService::move_shard(ShardId id, cluster::NodeId target) {
  auto it = tablets_.find(id);
  if (it == tablets_.end()) return false;
  Tablet& t = it->second;
  if (t.moving || t.flushing) return false;
  if (nodes_.count(target) == 0) return false;
  const cluster::NodeId source = map_.shard(id).node;
  if (target == source) return false;
  if (!node_serving(target)) return false;
  t.moving = true;
  t.move_start = sim_.now();
  t.move_target = target;
  metrics_.count("moves_started");
  cancel_age_flush(t);
  bounce_queue(source, t, OpStatus::kUnavailable);
  NodeState& src = node(source);
  if (serving(source) && t.memtable_bytes > 0) {
    // Graceful: flush, then hand off (start_flush resumes the move).
    start_flush(source, id);
    if (t.moving && t.flushing) return true;
    // The flush was fenced: fall through to a recovery re-open.
  }
  if (serving(source) && !t.flushing && t.memtable_bytes == 0 &&
      store_.fence_epoch(source) <= src.epoch) {
    fabric_.transfer(source, target, kHandoffBytes, [this, id] {
      sim_.after(kReopenDelay, [this, id] {
        auto jt = tablets_.find(id);
        if (jt == tablets_.end()) return;
        finish_move(id, map_.shard(id).node, jt->second.move_target);
      });
    });
    return true;
  }
  // Recovery re-open: the target rebuilds from flushed generations plus
  // WAL replay; the source contributes nothing.
  sim_.after(kReopenDelay + kWalReplayCost, [this, id] {
    auto jt = tablets_.find(id);
    if (jt == tablets_.end()) return;
    finish_move(id, map_.shard(id).node, jt->second.move_target);
  });
  return true;
}

void TabletService::finish_move(ShardId id, cluster::NodeId from,
                                cluster::NodeId to) {
  Tablet& t = tablet(id);
  if (!node_serving(to)) {
    // The target died while the shard was in flight: re-open somewhere
    // else (or park on the target until it reconnects).
    const cluster::NodeId other = pick_target(to);
    if (other != cluster::kInvalidNode && other != from) {
      t.move_target = other;
      sim_.after(kReopenDelay, [this, id, from] {
        auto jt = tablets_.find(id);
        if (jt == tablets_.end()) return;
        finish_move(id, from, jt->second.move_target);
      });
      return;
    }
  }
  map_.move(id, to);
  unhost(from, id);
  host(to, id);
  t.moving = false;
  const util::TimeNs window = sim_.now() - t.move_start;
  move_unavail_ns_ += window;
  metrics_.count("moves_completed");
  metrics_.observe("move_unavail_us", window / util::kMicrosecond);
  if (t.memtable_bytes > 0) arm_age_flush(id);
  kick(to);
}

void TabletService::bounce_queue(cluster::NodeId node_id, Tablet& t,
                                 OpStatus status) {
  std::deque<Op> drained;
  drained.swap(t.queue);
  for (Op& op : drained) respond(node_id, op, status, t.id);
}

bool TabletService::shard_moving(ShardId id) const {
  auto it = tablets_.find(id);
  return it != tablets_.end() && it->second.moving;
}

std::uint64_t TabletService::split_point(ShardId id) const {
  const ShardInfo info = map_.shard(id);
  const std::uint64_t mid = info.start + (info.end - info.start) / 2;
  const Tablet& t = tablet(id);
  std::int64_t total = 0;
  for (const auto& [k, c] : t.access) total += c;
  if (total == 0) return mid;
  std::int64_t cum = 0;
  std::uint64_t median = info.start;
  for (const auto& [k, c] : t.access) {
    cum += c;
    if (cum * 2 >= total) {
      median = k;
      break;
    }
  }
  if (median <= info.start || median >= info.end) return mid;
  return median;
}

bool TabletService::hot_key_dominated(ShardId id) const {
  const Tablet& t = tablet(id);
  std::int64_t total = 0, top = 0;
  for (const auto& [k, c] : t.access) {
    total += c;
    top = std::max(top, c);
  }
  return total > 0 &&
         static_cast<double>(top) >=
             kHotKeyFraction * static_cast<double>(total);
}

std::int64_t TabletService::shard_ops(ShardId id) const {
  auto it = tablets_.find(id);
  return it == tablets_.end() ? 0 : it->second.ops_interval;
}

std::int64_t TabletService::node_ops(cluster::NodeId node_id) const {
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) return 0;
  std::int64_t total = 0;
  for (ShardId s : it->second.hosted) total += shard_ops(s);
  return total;
}

void TabletService::begin_interval() {
  for (auto& [id, t] : tablets_) {
    t.ops_interval = 0;
    t.access.clear();
  }
}

// -- Fault hooks --------------------------------------------------------

void TabletService::on_condition(cluster::NodeId node_id,
                                 const cluster::NodeCondition& before,
                                 const cluster::NodeCondition& after) {
  const auto it = nodes_.find(node_id);
  if (it == nodes_.end()) return;
  if (after.unreachable && !before.unreachable) shed(node_id);
  if (before.unreachable && !after.unreachable) {
    it->second.epoch = after.epoch;  // the server learns its new epoch
    metrics_.count("lease_rejoins");
    kick(node_id);
  }
  if (after.quarantined != before.quarantined) {
    metrics_.count(after.quarantined ? "drains" : "undrains");
    if (after.quarantined) drain(node_id);
  }
}

void TabletService::shed(cluster::NodeId node_id) {
  metrics_.count("lease_sheds");
  // Note: the node's epoch is deliberately NOT bumped — the zombie
  // server does not know it was fenced, and its in-flight WAL/flush PUTs
  // still carry the old epoch (the store rejects them).
  const std::vector<ShardId> hosted = node(node_id).hosted;
  for (ShardId id : hosted) {
    Tablet& t = tablet(id);
    bounce_queue(node_id, t, OpStatus::kUnavailable);
    if (t.moving) continue;  // its in-flight move will re-target
    const cluster::NodeId target = pick_target(node_id);
    if (target == cluster::kInvalidNode) continue;  // park until reconnect
    t.moving = true;
    t.move_start = sim_.now();
    t.move_target = target;
    cancel_age_flush(t);
    metrics_.count("moves_started");
    sim_.after(kReopenDelay + kWalReplayCost,
               [this, id, node_id] {
                 auto jt = tablets_.find(id);
                 if (jt == tablets_.end()) return;
                 finish_move(id, node_id, jt->second.move_target);
               });
  }
}

void TabletService::drain(cluster::NodeId node_id) {
  // Graceful shed: the node is alive (just flagged), so tablets move
  // off with a proper flush + handoff.
  const std::vector<ShardId> hosted = node(node_id).hosted;
  for (ShardId id : hosted) {
    const cluster::NodeId target = pick_target(node_id);
    if (target == cluster::kInvalidNode) break;
    move_shard(id, target);
  }
}

bool TabletService::node_serving(cluster::NodeId node_id) const {
  return nodes_.count(node_id) != 0 && conditions_[node_id].usable();
}

cluster::NodeId TabletService::pick_target(cluster::NodeId except) const {
  cluster::NodeId best = cluster::kInvalidNode;
  std::size_t best_hosted = 0;
  for (cluster::NodeId id : nodes_list_) {
    if (id == except) continue;
    if (!node_serving(id)) continue;
    const NodeState& n = nodes_.at(id);
    if (best == cluster::kInvalidNode || n.hosted.size() < best_hosted) {
      best = id;
      best_hosted = n.hosted.size();
    }
  }
  return best;
}

std::vector<ShardStats> TabletService::shard_stats() const {
  std::vector<ShardStats> out;
  for (const ShardInfo& info : map_.shards()) {
    const Tablet& t = tablet(info.id);
    ShardStats s;
    s.id = info.id;
    s.start = info.start;
    s.end = info.end;
    s.node = info.node;
    s.queue_depth = static_cast<int>(t.queue.size());
    s.memtable_bytes = t.memtable_bytes;
    s.generations = static_cast<int>(t.gens.size());
    s.ops_interval = t.ops_interval;
    s.moving = t.moving;
    s.hot_key_dominated = hot_key_dominated(info.id);
    out.push_back(s);
  }
  return out;
}

void TabletService::stop() {
  stopped_ = true;
  for (auto& [id, t] : tablets_) cancel_age_flush(t);
}

// -- TabletClient -------------------------------------------------------

TabletClient::TabletClient(sim::Simulation& sim, TabletService& service,
                           ClientConfig config)
    : sim_(sim), service_(service), config_(config) {
  refresh_now();
}

void TabletClient::refresh_now() {
  cache_ = service_.shard_map().shards();
  cache_epoch_ = service_.shard_map().epoch();
}

cluster::NodeId TabletClient::cached_owner(std::uint64_t key) const {
  // cache_ is sorted by start; find the last shard starting at or
  // before the key.
  auto it = std::upper_bound(
      cache_.begin(), cache_.end(), key,
      [](std::uint64_t k, const ShardInfo& s) { return k < s.start; });
  --it;
  return it->node;
}

void TabletClient::submit(OpKind kind, std::uint64_t key,
                          cluster::NodeId client,
                          TabletService::OpCallback done) {
  Pending p;
  p.kind = kind;
  p.key = key;
  p.client = client;
  p.done = std::move(done);
  p.span = trace::begin_span(service_.tracer(), trace::Layer::kTablet,
                             "tablet.op");
  if (p.span != trace::kNoSpan) {
    service_.tracer()->annotate(p.span, "key", std::to_string(key));
  }
  route(std::move(p));
}

void TabletClient::submit(const serve::Request& req, OpKind kind,
                          TabletService::OpCallback done) {
  submit(kind, req.key, req.client, std::move(done));
}

void TabletClient::route(Pending p) {
  ++p.attempts;
  const cluster::NodeId owner = cached_owner(p.key);
  const auto kind = p.kind;
  const auto key = p.key;
  const auto client = p.client;
  const auto span = p.span;
  service_.submit(
      owner, kind, key, client,
      [this, p = std::move(p)](OpResult r) mutable {
        const bool retryable = r.status == OpStatus::kWrongShard ||
                               r.status == OpStatus::kUnavailable;
        if (retryable && p.attempts < config_.max_attempts) {
          if (r.status == OpStatus::kWrongShard) {
            ++wrong_shard_retries_;
          } else {
            ++unavailable_retries_;
          }
          // Refresh the cached map (paying the fetch) and try again.
          sim_.after(config_.retry_backoff + kMapFetchLatency,
                     [this, p = std::move(p)]() mutable {
                       refresh_now();
                       route(std::move(p));
                     });
          return;
        }
        if (retryable) ++exhausted_;
        r.attempts = p.attempts;
        if (service_.tracer() && p.span != trace::kNoSpan) {
          service_.tracer()->annotate(p.span, "status",
                                      to_string(r.status));
          service_.tracer()->annotate(p.span, "attempts",
                                      std::to_string(p.attempts));
        }
        trace::end_span(service_.tracer(), p.span);
        p.done(r);
      },
      span);
}

}  // namespace evolve::tablet
