// Flow-level network simulation with progressive max-min fair sharing.
//
// A Flow occupies every directed link on its path. Whenever the set of
// active flows changes, the fabric re-solves max-min fair rates
// (water-filling over bottleneck links) and reschedules the earliest flow
// completion. This reproduces the bandwidth contention behaviour that
// drives shuffle, collective, and storage-transfer times in EVOLVE.
//
// Scale design (see DESIGN.md "Simulation kernel performance"):
//  * Flows are grouped by path signature — all flows sharing a path have
//    identical max-min rates, so the water-filling solver iterates groups,
//    not flows, and only the links those groups load:
//    O(groups · path + loaded links · rounds) per solve.
//  * Progress settling is lazy: each group keeps a cumulative
//    "bytes drained per member flow" counter; a flow records the counter
//    value when it joins and completes when the counter passes
//    join_value + bytes. Churn events therefore touch O(groups) state,
//    never O(flows).
//  * Same-timestamp churn (a shuffle wave, a collective fan-out) is
//    batched: transfer()/cancel() only mark the fabric dirty and a
//    deferred same-time event runs a single recompute for the whole wave.
//  * Flow state lives in flat structure-of-arrays slot columns with a
//    free list (no std::map node churn, and the solver/completion scans
//    touch only the columns they need); solver scratch buffers are
//    reused across recomputes. Flow ids and endpoint pairs are indexed
//    by util::FlatIdMap, paths are inline net::Path values, a recycled
//    group keeps its member heap's capacity, and completion callbacks
//    are util::SmallFn. Once the fabric has seen its peak flow and group
//    counts, starting, cancelling and finishing a flow allocates
//    nothing, provided the callback's capture fits SmallFn's inline
//    buffer. Three cases still allocate: a zero-byte transfer (its
//    latency event wraps the callback), a traced transfer (the span
//    wrapper does) and a parked flow (a std::map node).
//
// Determinism invariants (preserved from the original implementation):
// completion callbacks within one event fire in flow-id order, and rates
// follow the exact same water-filling arithmetic as the per-flow
// reference engine (reference::RefFabric, a test-only oracle), so
// simulation outputs are unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "net/reachability.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "trace/tracer.hpp"
#include "util/flat_id_map.hpp"
#include "util/small_fn.hpp"
#include "util/types.hpp"

namespace evolve::net {

using FlowId = std::int64_t;
using FlowCallback = util::SmallFn;

struct FlowStats {
  std::int64_t flows_started = 0;
  std::int64_t flows_completed = 0;
  std::int64_t flows_cancelled = 0;
  /// Flows accepted but not yet completed or cancelled (includes zero-byte
  /// transfers still waiting out their propagation latency, and flows
  /// parked behind a network partition).
  std::int64_t flows_in_flight = 0;
  util::Bytes bytes_delivered = 0;
  /// Bytes that actually crossed network links (excludes loopback).
  util::Bytes bytes_remote = 0;
  std::int64_t rate_recomputations = 0;
  /// Park events: a flow stalled because its (src, dst) pair became (or
  /// was) unreachable under the active partition set. Cumulative.
  std::int64_t flows_parked = 0;
  /// Parked flows that resumed after a heal/reachability change.
  std::int64_t flows_resumed = 0;
};

class Fabric {
 public:
  Fabric(sim::Simulation& sim, const Topology& topology);

  /// Starts a transfer of `bytes` from host `src` to host `dst`;
  /// `on_complete` fires (as a simulation event) when the last byte lands.
  /// Zero-byte transfers complete after just the propagation latency.
  FlowId transfer(cluster::NodeId src, cluster::NodeId dst, util::Bytes bytes,
                  FlowCallback on_complete);

  /// Cancels an in-flight transfer — draining, parked behind a
  /// partition, or a zero-byte transfer waiting out its latency; its
  /// callback never fires. Returns false if the flow already completed.
  bool cancel(FlowId id);

  /// Current max-min rate of a flow in bytes/s (0 if unknown/finished).
  double flow_rate(FlowId id) const;

  int active_flows() const { return active_flows_; }
  const FlowStats& stats() const { return stats_; }
  const Topology& topology() const { return topology_; }

  /// Attaches a span tracer; every transfer becomes a kNetwork span
  /// parented by the caller's current trace context. Null disables.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  // -- Gray-failure link degradation ----------------------------------
  /// Scales a link's effective capacity: base * factor. Callers fold
  /// packet loss into the factor (bw_factor * (1 - loss)). In-flight
  /// flows re-solve from the call's timestamp. Must be > 0 (a zero-rate
  /// flow would never complete). Factor 1.0 is exact (x * 1.0 == x), so an
  /// undegraded fabric computes bit-identical rates.
  void set_link_capacity_factor(LinkId link, double factor);
  /// Extra one-way propagation latency added to every *new* transfer
  /// whose path crosses the link (in-flight flows keep their latency).
  void set_link_extra_latency(LinkId link, util::TimeNs extra);
  double link_capacity_factor(LinkId link) const {
    return link_capacity_factor_[static_cast<std::size_t>(link)];
  }
  util::TimeNs link_extra_latency(LinkId link) const {
    return link_extra_latency_[static_cast<std::size_t>(link)];
  }

  // -- Network partitions ---------------------------------------------
  /// Installs a reachability mask (see net::Reachability, which validates
  /// its shape): `host_group[h]` assigns every host to an equivalence
  /// class and `blocked[a][b]` marks class a → class b as unreachable.
  /// In-flight flows whose (src, dst) pair becomes blocked are *parked* —
  /// they stop draining, leave the solver, and keep their remaining
  /// bytes — and resume when a later mask (or clear_partitions) unblocks
  /// the pair. New transfers on blocked pairs park immediately. Loopback
  /// (src == dst) is never blocked. Driven by fault::PartitionInjector.
  void set_reachability(std::vector<int> host_group,
                        std::vector<std::vector<char>> blocked);
  /// Heals all partitions; every parked flow resumes.
  void clear_partitions();
  /// True when src can currently reach dst.
  bool reachable(cluster::NodeId src, cluster::NodeId dst) const {
    return mask_.reachable(src, dst);
  }
  /// Flows currently parked behind a partition.
  int parked_flows() const { return static_cast<int>(parked_.size()); }

 private:
  // ---- incremental grouped engine ----

  struct Member {
    double finish_drain;
    FlowId id;
    int slot;
  };
  struct MemberLater {
    bool operator()(const Member& a, const Member& b) const {
      if (a.finish_drain != b.finish_drain) {
        return a.finish_drain > b.finish_drain;
      }
      return a.id > b.id;  // deterministic pop order for identical finishes
    }
  };
  struct Group {
    std::uint64_t key = 0;   // group_of_pair_ key
    Path path;               // empty = loopback
    double rate = 0;         // bytes/s per member flow
    double drain_total = 0;  // cumulative bytes drained per member flow
    int size = 0;            // live member count
    // Min-heap of members by finish_drain under MemberLater, kept with
    // std::push_heap/pop_heap exactly as std::priority_queue would, but
    // cleared (not freed) when the group is recycled. Cancelled members
    // are skipped lazily (slot id mismatch).
    std::vector<Member> members;
  };
  /// A live flow: its engine slot, or (slot -1) a zero-byte transfer
  /// waiting out its propagation latency in `latency_event`.
  struct LiveFlow {
    int slot = -1;
    sim::EventId latency_event = 0;
  };

  /// Data captured for a completed flow before its slot is recycled;
  /// callbacks fire in flow-id order after the post-completion recompute.
  struct DoneFlow {
    FlowId id;
    util::Bytes bytes;
    bool remote;
    util::TimeNs latency;
    FlowCallback cb;
  };

  /// The group of flows from `src` to `dst`; creates it (and computes
  /// its path) when no live flow uses the pair.
  int group_for_pair(cluster::NodeId src, cluster::NodeId dst);
  int acquire_flow_slot();
  void release_flow_slot(int slot);
  void leave_group(int group_index);
  static void push_member(Group& group, Member member);
  static void pop_member(Group& group);
  /// Drops cancelled members off a group's heap top.
  void purge_dead_members(Group& group);

  /// Folds elapsed time into every group's drain counter — O(groups).
  void settle_progress();

  /// Marks rates stale and schedules a single same-time recompute event
  /// for the current timestamp batch.
  void mark_dirty();

  /// Runs the solver and reschedules the next completion if dirty.
  void flush_if_dirty();

  /// Completion event body: completes all flows that have drained.
  void on_completion_event();

  /// Grouped water-filling: identical arithmetic to per-flow
  /// water-filling, but iterates path groups instead of flows.
  void solve_grouped();

  /// A flow stalled behind a partition: it holds its remaining bytes and
  /// callback while unreachable and re-enters the engine on heal.
  struct ParkedFlow {
    cluster::NodeId src = 0;
    cluster::NodeId dst = 0;
    double remaining = 0;   // bytes left to drain once resumed
    util::Bytes bytes = 0;  // original transfer size (delivery accounting)
    util::TimeNs latency = 0;
    FlowCallback cb;
  };

  /// Re-evaluates every in-flight and parked flow against the current
  /// mask: blocked live flows park, unblocked parked flows resume.
  void apply_reachability();
  /// Re-enters a previously parked flow into the active engine (or
  /// delivers it immediately when its remaining bytes already drained).
  void resume_flow(FlowId id, ParkedFlow p);

  void deliver(util::Bytes bytes, bool remote, util::TimeNs latency,
               FlowCallback cb);
  void schedule_completion(double earliest_s);
  void clear_pending_event();
  /// Closes a cancelled/completed flow's span (no-op when untraced).
  void end_flow_span(FlowId id);

  sim::Simulation& sim_;
  const Topology& topology_;

  FlowId next_id_ = 1;
  int active_flows_ = 0;
  util::TimeNs last_settle_ = 0;
  sim::EventId pending_event_ = 0;
  bool has_pending_event_ = false;
  FlowStats stats_;

  // Incremental-engine state. Per-flow slot fields are structure-of-arrays
  // columns indexed by slot: the completion scan reads ids and drains, the
  // rate query reads groups, and only a finishing flow touches its
  // callback — each scan stays in the one dense column it needs.
  std::vector<FlowId> flow_id_;       // 0 marks a free slot
  std::vector<int> flow_group_;
  std::vector<util::Bytes> flow_bytes_;
  std::vector<util::TimeNs> flow_latency_;
  std::vector<cluster::NodeId> flow_src_;
  std::vector<cluster::NodeId> flow_dst_;
  // Group drain_total at which the flow is done.
  std::vector<double> flow_finish_drain_;
  std::vector<FlowCallback> flow_cb_;
  std::vector<int> free_slots_;
  // Neither index below is ever iterated.
  util::FlatIdMap<LiveFlow> live_;
  std::vector<Group> groups_;
  std::vector<int> free_groups_;
  // Live groups by endpoint pair: distinct remote pairs have distinct
  // paths (host uplink first, host downlink last), and every loopback
  // pair shares the key ~0, as it shared the empty path.
  util::FlatIdMap<int> group_of_pair_;
  // Gray-failure degradation state (1.0 / 0 = healthy).
  std::vector<double> link_capacity_factor_;
  std::vector<util::TimeNs> link_extra_latency_;
  bool any_extra_latency_ = false;
  bool dirty_ = false;
  bool flush_scheduled_ = false;
  // Reusable solver scratch (avoids per-recompute allocation);
  // unfixed_scratch_ is zero on every link between solves.
  std::vector<double> cap_scratch_;
  std::vector<int> unfixed_scratch_;
  std::vector<LinkId> loaded_scratch_;
  std::vector<int> pending_scratch_;
  std::vector<DoneFlow> done_scratch_;

  // Partition state. parked_ is flow-id ordered so resume order after a
  // heal is deterministic.
  Reachability mask_;
  std::map<FlowId, ParkedFlow> parked_;

  // Tracing (observational only; empty when no tracer is attached).
  trace::Tracer* tracer_ = nullptr;
  util::FlatIdMap<trace::SpanId> span_of_;
};

}  // namespace evolve::net
