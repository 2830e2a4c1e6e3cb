// Executor slot management with delay scheduling (locality waits).
//
// Tasks queue FIFO with an optional preferred-node set. The scheduler
// assigns a task to a preferred executor immediately; a task with
// preferences only falls back to a non-preferred executor after waiting
// `locality_wait` (0 disables delay scheduling: immediate fallback).
//
// Hot-path layout: executors with free slots are indexed per node and
// globally (ordered by executor index, preserving the deterministic
// lowest-index-wins tie break), and waiting tasks are indexed by preferred
// node, so assign() never rescans the whole queue after a release() — it
// walks only nodes that have both a free executor and a waiter.
//
// Precondition: `now` passed to enqueue()/assign() is non-decreasing (it
// is simulation time), so tasks expire their locality wait in FIFO order.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/conditions.hpp"
#include "util/types.hpp"

namespace evolve::dataflow {

using TaskId = std::int64_t;

struct Assignment {
  TaskId task;
  int executor;
  bool local;  // assigned to a preferred node
};

class TaskScheduler {
 public:
  /// `conditions` (null: every node usable) says which nodes are down or
  /// quarantined: their executors receive no assignments and their free
  /// slots stay out of the pool (running tasks finish). The owner calls
  /// node_changed() after each write.
  explicit TaskScheduler(util::TimeNs locality_wait,
                         const cluster::NodeConditions* conditions = nullptr)
      : locality_wait_(locality_wait), conditions_(conditions) {}

  /// Registers an executor with `slots` concurrent task slots; they join
  /// the pool only while the node is available. Returns the executor
  /// index.
  int add_executor(cluster::NodeId node, int slots);

  cluster::NodeId executor_node(int executor) const;
  int executor_count() const { return static_cast<int>(executors_.size()); }
  int free_slots() const { return free_total_; }

  /// Queues a task; `preferred` may be empty (no locality preference).
  void enqueue(TaskId task, std::vector<cluster::NodeId> preferred,
               util::TimeNs now);

  /// Frees one slot on `executor` (its task finished).
  void release(int executor);

  /// The node's condition was written: moves its free slots out of or
  /// back into the pool when its availability flipped from
  /// `was_available`.
  void node_changed(cluster::NodeId node, bool was_available);
  /// Neither down nor quarantined.
  bool node_available(cluster::NodeId node) const {
    if (conditions_ == nullptr) return true;
    const cluster::NodeCondition& c = (*conditions_)[node];
    return !c.down && !c.quarantined;
  }

  /// Assigns as many queued tasks as possible at time `now`, in FIFO
  /// order among the currently assignable tasks.
  std::vector<Assignment> assign(util::TimeNs now);

  /// Earliest time a waiting preferred task becomes eligible for remote
  /// fallback; -1 when no such task exists.
  util::TimeNs next_expiry() const;

  int pending() const { return static_cast<int>(queue_.size()); }
  std::int64_t local_assignments() const { return local_; }
  std::int64_t total_assignments() const { return total_; }

 private:
  struct Executor {
    cluster::NodeId node;
    int free;
  };
  struct Pending {
    TaskId task;
    std::vector<cluster::NodeId> preferred;
    util::TimeNs enqueued;
  };

  /// Lowest free executor index on any of the given nodes; -1 if none.
  int find_free_preferred(const std::vector<cluster::NodeId>& preferred) const;
  void take_slot(int executor);
  void remove_task(std::int64_t seq, const Pending& task);

  util::TimeNs locality_wait_;
  const cluster::NodeConditions* conditions_;
  std::vector<Executor> executors_;
  /// FIFO queue: monotonically increasing sequence number -> task.
  std::map<std::int64_t, Pending> queue_;
  std::int64_t next_seq_ = 0;
  // Waiting-task indexes.
  std::set<std::int64_t> no_pref_;    // seqs of tasks without preference
  std::set<std::int64_t> with_pref_;  // seqs of tasks with preference
  std::map<cluster::NodeId, std::set<std::int64_t>> waiting_by_node_;
  // Free-slot indexes (executor indices with free > 0 on live nodes).
  std::map<cluster::NodeId, std::set<int>> free_by_node_;
  std::set<int> free_execs_;
  int free_total_ = 0;
  std::int64_t local_ = 0;
  std::int64_t total_ = 0;
};

}  // namespace evolve::dataflow
