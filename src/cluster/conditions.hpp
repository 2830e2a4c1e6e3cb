// One node's condition as every layer sees it, and the per-node table
// a consumer keeps of it (DESIGN §8).
//
// Each field has exactly one producer, and a producer's write sets only
// its own fields, so two producers can never clear each other's state:
//
//   down                  FaultInjector (crash-stop)
//   unreachable, epoch    LeaseManager (lease expiry, fencing epoch)
//   quarantined           QuarantineController (gray-failure drain)
//   cpu/accel_slowdown    GrayInjector (degradation, >= 1)
//
// A consumer owns one NodeConditions and hands it to every producer it
// listens to (fault::connect). After each write the table calls the
// consumer's one handler with the node's condition before and after, so
// the consumer reacts to transitions in one place and answers "is this
// node usable?" by reading the table. A producer writes its attached
// tables in attach order, which fixes the order the consumers react in.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cluster/node.hpp"

namespace evolve::cluster {

struct NodeCondition {
  bool down = false;
  bool unreachable = false;
  std::int64_t epoch = 1;  // fencing epoch; writes stamped lower are stale
  bool quarantined = false;
  double cpu_slowdown = 1.0;
  double accel_slowdown = 1.0;

  /// No producer holds the node out of service.
  bool usable() const { return !down && !unreachable && !quarantined; }
  bool operator==(const NodeCondition&) const = default;
};

class NodeConditions {
 public:
  using Handler = std::function<void(NodeId, const NodeCondition& before,
                                     const NodeCondition& after)>;

  explicit NodeConditions(Handler on_condition = {})
      : on_condition_(std::move(on_condition)) {}
  NodeConditions(const NodeConditions&) = delete;
  NodeConditions& operator=(const NodeConditions&) = delete;

  /// The node's condition; a node never written is healthy.
  const NodeCondition& operator[](NodeId node) const {
    const auto index = static_cast<std::size_t>(node);
    return index < nodes_.size() ? nodes_[index] : kHealthy;
  }

  // Writes, one per producer. Each calls the handler, changed or not.
  void set_down(NodeId node, bool down);
  void set_unreachable(NodeId node, bool unreachable, std::int64_t epoch);
  void set_quarantined(NodeId node, bool quarantined);
  void set_slowdown(NodeId node, double cpu, double accel);

 private:
  static constexpr NodeCondition kHealthy{};

  template <typename Set>
  void write(NodeId node, Set set);

  std::vector<NodeCondition> nodes_;  // by node id, grown on write
  Handler on_condition_;
};

/// A producer's attached tables: each write goes to every table, in
/// attach order.
class ConditionTables {
 public:
  void attach(NodeConditions& table) { tables_.push_back(&table); }

  void set_down(NodeId node, bool down) {
    for (NodeConditions* t : tables_) t->set_down(node, down);
  }
  void set_unreachable(NodeId node, bool unreachable, std::int64_t epoch) {
    for (NodeConditions* t : tables_) {
      t->set_unreachable(node, unreachable, epoch);
    }
  }
  void set_quarantined(NodeId node, bool quarantined) {
    for (NodeConditions* t : tables_) t->set_quarantined(node, quarantined);
  }
  void set_slowdown(NodeId node, double cpu, double accel) {
    for (NodeConditions* t : tables_) t->set_slowdown(node, cpu, accel);
  }

 private:
  std::vector<NodeConditions*> tables_;
};

}  // namespace evolve::cluster
